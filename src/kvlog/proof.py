"""Hilbert systems, derivation checking, and soundness fuzzing.

Three systems over the box languages:

  SMLKVr  TAUT, DISTK, DISTKVR, KVROR with MP, NECK, NECKVR, SUB, RE
  SMLKVb  TAUT, DISTK, DISTKVB, SYM, INCL, ATEUC
          with MP, NECK, NECKVB, SUB, RE
  SMLKV   TAUT, DISTK, INCLT with MP, NECK, SUB, RE

Derivations are line-oriented scripts:

    # optional comments
    vocab agents a b ; props p q r ; constants c d
    1. (p -> (q -> p)) BY TAUT
    2. ([a]^c(p, q) -> [a]^c(q, p)) BY AX(SYM, i=a, c=c, p=p, q=q)
    3. <formula> BY MP(1, 2)

Every step states its formula; the checker recomputes what the cited
rule yields and compares structurally, so checking is deterministic and
justification-local.  TAUT certifies propositional tautologies over the
modal-subformula skeleton by truth table (at most 12 distinct atoms).
"""

from __future__ import annotations

import functools
import random
import re as _re
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .models import GenParams, TernaryModel, generate_direct, \
    generate_value_induced
from .semantics import IndexedModel
from .syntax import (And, BBoxB, BBoxU, Box, Formula, Neg, Path, Prop, Top,
                     Vocabulary, children, f_or, fold, iff, imp, occurrences,
                     parse, print_formula, random_formula, rebuild, replace_at,
                     split_iff, str_to_path, substitute, subterms)

TAUT_ATOM_LIMIT = 12

META_VOCAB = Vocabulary(agents=("i",), props=("p", "q", "r"), constants=("c",))

_SCHEMA_TEXT = {
    "DISTK": "([i](p -> q) -> ([i]p -> [i]q))",
    "DISTKVR": "([i](p -> q) -> ([i]^c p -> [i]^c q))",
    "KVROR": "((<i>(p & q) & <i>^c (p | q)) -> (<i>^c p | <i>^c q))",
    "DISTKVB": "([i]^c((p -> q), r) -> ([i]^c(p, r) -> [i]^c(q, r)))",
    "SYM": "([i]^c(p, q) -> [i]^c(q, p))",
    "INCL": "(<i>^c(p, q) -> <i>p)",
    "ATEUC": "((<i>^c(p, q) & <i>r) -> (<i>^c(p, r) | <i>^c(q, r)))",
    "INCLT": "(<i>^c T -> <i>T)",
}

SCHEMAS: dict[str, Formula] = {name: parse(text, META_VOCAB)
                               for name, text in _SCHEMA_TEXT.items()}


def schema_metavars(template: Formula) -> tuple[str, ...]:
    """The proposition names of a schema template, sorted."""
    return tuple(sorted({g.name for g in subterms(template)
                         if isinstance(g, Prop)}))


@dataclass(frozen=True)
class ProofSystem:
    name: str
    schemas: tuple[str, ...]       # includes TAUT
    rules: tuple[str, ...]
    language: str                  # sampling language for the fuzzer


SMLKVR = ProofSystem("SMLKVr", ("TAUT", "DISTK", "DISTKVR", "KVROR"),
                     ("MP", "NECK", "NECKVR", "SUB", "RE"), "MLKvR")
SMLKVB = ProofSystem("SMLKVb", ("TAUT", "DISTK", "DISTKVB", "SYM", "INCL",
                                "ATEUC"),
                     ("MP", "NECK", "NECKVB", "SUB", "RE"), "MLKvB")
SMLKV = ProofSystem("SMLKV", ("TAUT", "DISTK", "INCLT"),
                    ("MP", "NECK", "SUB", "RE"), "MLKv")

SYSTEMS = {"SMLKVr": SMLKVR, "SMLKVb": SMLKVB, "SMLKV": SMLKV}


@functools.lru_cache(maxsize=256)
def _slotted(template: Formula, agent: str,
             constant: str) -> tuple[Formula, tuple[str, ...]]:
    """The template with its slots i and c replaced by concrete symbols,
    and its metavariables; built once per key, since schemas are constants."""
    def step(g: Formula, subs: tuple) -> Formula:
        if not isinstance(g, (Box, BBoxU, BBoxB)):
            return rebuild(g, subs)
        a = agent if g.agent == "i" else g.agent
        if isinstance(g, Box):
            return Box(a, *subs)
        return type(g)(a, constant if g.constant == "c" else g.constant, *subs)

    return fold(template, step), schema_metavars(template)


def axiom_instance(system: ProofSystem, schema: str,
                   sigma: Mapping[str, Formula],
                   agent: str, constant: str) -> Formula:
    """The stated schema instance; sigma must cover the metavariables
    exactly."""
    if schema not in system.schemas or schema == "TAUT":
        raise ValueError(f"{system.name} has no schema {schema}")
    template, metavars = _slotted(SCHEMAS[schema], agent, constant)
    needed, given = set(metavars), set(sigma)
    if given != needed:
        missing = ", ".join(sorted(needed - given)) or "none"
        extra = ", ".join(sorted(given - needed)) or "none"
        raise ValueError(f"schema {schema} wants metavariables "
                         f"{sorted(needed)}; missing {missing}, extra {extra}")
    return substitute(template, sigma)


# --- tautology checking -----------------------------------------------------

def propositional_skeleton(f: Formula) -> tuple[list[Formula], list]:
    """Atoms of f (props and modal subformulas under its boolean
    connectives), equal ones merged, in order of first occurrence; and the
    distinct nodes of its boolean skeleton, children first, each paired
    with its atom index (None for Top, Neg, And)."""
    index: dict[Formula, int] = {}    # atom -> its index
    atom: dict[int, Optional[int]] = {}   # skeleton node id -> its atom index
    stack = [f]
    while stack:                      # preorder over the skeleton
        g = stack.pop()
        if id(g) in atom:
            continue
        if isinstance(g, (Top, Neg, And)):
            atom[id(g)] = None
            stack.extend(reversed(children(g)))
        else:
            atom[id(g)] = index.setdefault(g, len(index))
    return list(index), [(g, atom[id(g)]) for g in subterms(f) if id(g) in atom]


def _truth_table(n: int) -> tuple[int, list[int]]:
    """full, all 2^n rows set, and each atom j's column: bit k is bit j of k.
    full // (2^2^(j+1) - 1) marks each run of 2^(j+1) rows; times its top half."""
    full = (1 << (1 << n)) - 1
    return full, [full // ((1 << (2 << j)) - 1) * (((1 << (1 << j)) - 1) << (1 << j))
                  for j in range(n)]


def is_tautology(f: Formula) -> tuple[bool, str]:
    atoms, skeleton = propositional_skeleton(f)
    if len(atoms) > TAUT_ATOM_LIMIT:
        return False, (f"skeleton has {len(atoms)} atoms, "
                       f"limit is {TAUT_ATOM_LIMIT}; decompose the step")
    # truth sets over all assignments at once: bit k of a mask is the value
    # under assignment k, which makes atom j true when its bit j is set
    full, column = _truth_table(len(atoms))
    truth: dict[int, int] = {}
    for g, atom in skeleton:
        if atom is not None:
            truth[id(g)] = column[atom]
        elif isinstance(g, Top):
            truth[id(g)] = full
        elif isinstance(g, Neg):
            truth[id(g)] = full ^ truth[id(g.sub)]
        else:
            truth[id(g)] = truth[id(g.left)] & truth[id(g.right)]
    mask = truth[id(f)]
    if mask != full:
        bits = ((mask + 1) & ~mask).bit_length() - 1
        return False, f"fails under assignment {bits:0{len(atoms)}b}"
    return True, ""


# --- derivations ------------------------------------------------------------

@dataclass(frozen=True)
class Step:
    num: int
    formula: Formula
    rule: str
    refs: tuple[int, ...] = ()
    schema: Optional[str] = None
    sigma: Optional[dict] = None
    agent: Optional[str] = None
    constant: Optional[str] = None
    side: Optional[Formula] = None
    positions: tuple[Path, ...] = ()


@dataclass(frozen=True)
class Derivation:
    vocab: Vocabulary
    steps: tuple[Step, ...]

    def conclusion(self) -> Formula:
        return self.steps[-1].formula


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    step: Optional[int] = None
    reason: Optional[str] = None

    def describe(self) -> str:
        if self.ok:
            return "accepted"
        return f"rejected at step {self.step}: {self.reason}"


DEFAULT_SCRIPT_VOCAB = Vocabulary(agents=("a", "b"), props=("p", "q", "r"),
                                  constants=("c", "d"))


class ScriptError(ValueError):
    def __init__(self, msg: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {msg}")


def _split_args(text: str) -> list[str]:
    """Split at top-level commas; arrows do not count as angle brackets."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        if text.startswith("<->", i):
            i += 3
            continue
        if text.startswith("->", i):
            i += 2
            continue
        ch = text[i]
        if ch in "([<":
            depth += 1
        elif ch in ")]>":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
        i += 1
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


_STEP_RE = _re.compile(r"^(\d+)\.\s*(.*)$")
_VOCAB_RE = _re.compile(r"^vocab\s+(.*)$")


def _parse_vocab_line(body: str, lineno: int) -> Vocabulary:
    sets = {"agents": None, "props": None, "constants": None}
    for part in body.split(";"):
        words = part.split()
        if not words:
            continue
        if words[0] not in sets or len(words) < 2:
            raise ScriptError(f"bad vocab section {part.strip()!r}", lineno)
        sets[words[0]] = tuple(words[1:])
    missing = [k for k, v in sets.items() if v is None]
    if missing:
        raise ScriptError(f"vocab line misses {', '.join(missing)}", lineno)
    return Vocabulary(agents=sets["agents"], props=sets["props"],
                      constants=sets["constants"])


def parse_script(text: str) -> Derivation:
    vocab = DEFAULT_SCRIPT_VOCAB
    steps: list[Step] = []
    expected = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        vm = _VOCAB_RE.match(line)
        if vm:
            if steps:
                raise ScriptError("vocab line must precede the steps", lineno)
            vocab = _parse_vocab_line(vm.group(1), lineno)
            continue
        sm = _STEP_RE.match(line)
        if not sm:
            raise ScriptError(f"unreadable line {line!r}", lineno)
        num = int(sm.group(1))
        if num != expected:
            raise ScriptError(f"step {num} out of order, expected {expected}",
                              lineno)
        expected += 1
        rest = sm.group(2)
        if " BY " not in rest:
            raise ScriptError("step lacks a BY justification", lineno)
        formula_text, by = rest.rsplit(" BY ", 1)
        try:
            formula = parse(formula_text.strip(), vocab)
        except Exception as exc:
            raise ScriptError(f"bad formula: {exc}", lineno) from None
        steps.append(_parse_justification(num, formula, by.strip(), vocab,
                                          lineno))
    if not steps:
        raise ScriptError("script has no steps", 0)
    return Derivation(vocab=vocab, steps=tuple(steps))


def _parse_justification(num: int, formula: Formula, by: str,
                         vocab: Vocabulary, lineno: int) -> Step:
    m = _re.match(r"^([A-Z]+)\s*(?:\((.*)\))?\s*$", by)
    if not m:
        raise ScriptError(f"unreadable justification {by!r}", lineno)
    rule, argtext = m.group(1), m.group(2) or ""
    args = _split_args(argtext) if argtext.strip() else []
    refs: list[int] = []
    schema = None
    sigma: dict[str, Formula] = {}
    agent = constant = None
    side = None
    positions: list[Path] = []
    keys: set[str] = set()
    for pos, arg in enumerate(args):
        if "=" in arg and not arg.startswith("("):
            key, _, value = arg.partition("=")
            key, value = key.strip(), value.strip()
            if key == "at":
                try:
                    positions.append(str_to_path(value))
                except ValueError as exc:
                    raise ScriptError(str(exc), lineno) from None
                continue
            if key in keys:
                raise ScriptError(f"{key}= is given twice", lineno)
            keys.add(key)
            if rule != "SUB" and key == "i":
                agent = value
            elif rule != "SUB" and key == "c":
                constant = value
            else:
                try:
                    parsed = parse(value, vocab)
                except Exception as exc:
                    raise ScriptError(f"bad value for {key}: {exc}",
                                      lineno) from None
                if key == "side":
                    side = parsed
                else:
                    sigma[key] = parsed
        elif arg.isdigit():
            refs.append(int(arg))
        elif pos == 0 and rule == "AX":
            schema = arg
        else:
            raise ScriptError(f"unreadable argument {arg!r}", lineno)
    return Step(num=num, formula=formula, rule=rule, refs=tuple(refs),
                schema=schema, sigma=sigma or None, agent=agent,
                constant=constant, side=side, positions=tuple(positions))


def check_derivation(system: ProofSystem, d: Derivation) -> CheckResult:
    """Accept or reject, with the first failing step and a reason."""
    for k, step in enumerate(d.steps, start=1):
        if step.num != k:
            return CheckResult(False, step.num, "steps are not numbered 1..n")
        bad = _check_step(system, d, step)
        if bad is not None:
            return CheckResult(False, step.num, bad)
    return CheckResult(True)


def _check_step(system: ProofSystem, d: Derivation,
                step: Step) -> Optional[str]:
    def ref(idx: int) -> Optional[Formula]:
        if not 1 <= idx < step.num:
            return None
        return d.steps[idx - 1].formula

    rule = step.rule
    if rule == "TAUT":
        ok, why = is_tautology(step.formula)
        if not ok:
            return f"not a propositional tautology: {why}"
        return None
    if rule == "AX":
        if step.schema is None:
            return "AX needs a schema name"
        if step.schema not in system.schemas:
            return f"{system.name} has no schema {step.schema}"
        if step.agent is None:
            return "AX needs i=<agent>"
        if d.vocab.kind_of(step.agent) != "agent":
            return f"{step.agent!r} is not an agent"
        constant = step.constant
        if constant is None:
            if step.schema != "DISTK":
                return "AX needs c=<constant>"
            constant = d.vocab.constants[0]  # no constant slot in DISTK
        elif d.vocab.kind_of(constant) != "constant":
            return f"{constant!r} is not a constant"
        try:
            inst = axiom_instance(system, step.schema, step.sigma or {},
                                  step.agent, constant)
        except ValueError as exc:
            return str(exc)
        if inst != step.formula:
            return (f"stated formula differs from the {step.schema} "
                    f"instance {print_formula(inst)}")
        return None
    if rule not in system.rules:
        return f"{system.name} has no rule {rule}"
    if rule == "MP":
        if len(step.refs) != 2:
            return "MP needs two step references"
        prem = ref(step.refs[0])
        cond = ref(step.refs[1])
        if prem is None or cond is None:
            return "MP references must point at earlier steps"
        if cond != imp(prem, step.formula):
            return (f"step {step.refs[1]} is not "
                    f"({print_formula(prem)} -> {print_formula(step.formula)})")
        return None
    if rule == "NECK":
        if len(step.refs) != 1 or step.agent is None:
            return "NECK needs one reference and i=<agent>"
        prem = ref(step.refs[0])
        if prem is None:
            return "NECK reference must point at an earlier step"
        if d.vocab.kind_of(step.agent) != "agent":
            return f"{step.agent!r} is not an agent"
        if step.formula != Box(step.agent, prem):
            return "stated formula is not the boxed premise"
        return None
    if rule == "NECKVR":
        if len(step.refs) != 1 or step.agent is None or step.constant is None:
            return "NECKVR needs one reference, i=<agent> and c=<constant>"
        prem = ref(step.refs[0])
        if prem is None:
            return "NECKVR reference must point at an earlier step"
        if step.formula != BBoxU(step.agent, step.constant, prem):
            return "stated formula is not the premise under [i]^c"
        return None
    if rule == "NECKVB":
        if (len(step.refs) != 1 or step.agent is None
                or step.constant is None or step.side is None):
            return ("NECKVB needs one reference, i=<agent>, c=<constant> "
                    "and side=<formula>")
        prem = ref(step.refs[0])
        if prem is None:
            return "NECKVB reference must point at an earlier step"
        if step.formula != BBoxB(step.agent, step.constant, prem, step.side):
            return "stated formula is not [i]^c(premise, side)"
        return None
    if rule == "SUB":
        if len(step.refs) != 1 or not step.sigma:
            return "SUB needs one reference and at least one prop binding"
        prem = ref(step.refs[0])
        if prem is None:
            return "SUB reference must point at an earlier step"
        for name in step.sigma:
            if d.vocab.kind_of(name) != "prop":
                return f"SUB binds {name!r}, which is not a prop"
        if step.formula != substitute(prem, step.sigma):
            return "stated formula is not the substitution instance"
        return None
    if rule == "RE":
        if len(step.refs) != 1:
            return "RE needs one step reference"
        prem = ref(step.refs[0])
        if prem is None:
            return "RE reference must point at an earlier step"
        sides = split_iff(prem)
        if sides is None:
            return f"step {step.refs[0]} is not a biconditional"
        psi, chi = sides
        own = split_iff(step.formula)
        if own is None:
            return "stated formula is not a biconditional"
        left, right = own
        try:
            rebuilt = replace_at(left, step.positions, psi, chi)
        except ValueError as exc:
            return str(exc)
        if rebuilt != right:
            return (f"replacement yields {print_formula(rebuilt)}, "
                    f"not {print_formula(right)}")
        return None
    return f"unknown rule {rule}"


# --- soundness fuzzing -------------------------------------------------------

@dataclass(frozen=True)
class Falsification:
    system: str
    trial: int
    kind: str                  # schema or rule name
    formula: str
    state: str
    params: GenParams


@dataclass
class FuzzReport:
    system: str
    trials: int
    checks: int = 0
    falsifications: list = field(default_factory=list)

    def summary(self) -> str:
        verdict = ("no falsification found" if not self.falsifications
                   else f"{len(self.falsifications)} falsifications")
        return (f"{self.system}: {self.trials} trials, "
                f"{self.checks} validity checks, {verdict}")


_FUZZ_VOCAB = Vocabulary(agents=("a", "b"), props=("p", "q"),
                         constants=("c", "d"))


def _fuzz_model(rng, trial: int) -> tuple[TernaryModel, GenParams]:
    params = GenParams(vocab=_FUZZ_VOCAB,
                       num_states=1 + rng.randrange(5),
                       edge_density=rng.choice((0.2, 0.4, 0.6)),
                       value_count=1 + rng.randrange(3),
                       seed=rng.randrange(1 << 30))
    if trial % 2 == 0:
        return generate_direct(params), params
    _, ternary = generate_value_induced(params)
    return ternary, params


def soundness_fuzz(system: ProofSystem, trials: int, seed: int,
                   extra_schemas: Optional[Mapping[str, Formula]] = None,
                   start: int = 0) -> FuzzReport:
    """Random schema instances and rule applications on random models.

    Every axiom instance must be valid on every sampled model; every rule
    must preserve validity-on-the-model for premises that hold on it.
    SUB is exercised through axiom instances only, since substitution
    preserves validity but not truth on a fixed model.  Trial k always
    runs the same checks for the same seed, so a run can be sharded by
    start offsets without changing what gets tested.  A trial's checks
    all run on one semantics.IndexedModel of its model, so the layout is
    built once and subterms shared between checks are evaluated once.
    Each schema's slots are renamed once per agent and constant (_slotted).
    """
    report = FuzzReport(system=system.name, trials=trials)
    lang = system.language

    def note(trial, params, kind, formula, state):
        report.falsifications.append(Falsification(
            system=system.name, trial=trial, kind=kind,
            formula=print_formula(formula), state=state, params=params))

    pool = {name: SCHEMAS[name] for name in system.schemas if name != "TAUT"}
    pool.update(extra_schemas or {})
    for trial in range(start, start + trials):
        rng = random.Random(seed * 1_000_003 + trial)
        model, params = _fuzz_model(rng, trial)
        vocab = model.vocab
        indexed = IndexedModel(model)

        def rand(depth=2):
            return random_formula(rng, vocab, depth, lang)

        def check_valid(kind, formula) -> bool:
            report.checks += 1
            state = indexed.counterexample_state(formula)
            if state is not None:
                note(trial, params, kind, formula, state)
                return False
            return True

        agent = vocab.agents[rng.randrange(len(vocab.agents))]
        constant = vocab.constants[rng.randrange(len(vocab.constants))]

        instances = []
        for name, template in sorted(pool.items()):
            renamed, metavars = _slotted(template, agent, constant)
            # a plain-prop instance plus a random one; the former is the
            # strongest single probe on small models
            atomic = {v: Prop(vocab.props[k % len(vocab.props)])
                      for k, v in enumerate(metavars)}
            for sigma in (atomic, {v: rand() for v in metavars}):
                inst = substitute(renamed, sigma)
                if check_valid(name, inst):
                    instances.append(inst)

        # formulas known to hold everywhere on this model
        known = list(instances)
        for _ in range(6):
            f = rand()
            report.checks += 1
            if indexed.counterexample_state(f) is None:
                known.append(f)
        if not known:
            continue

        def pick(seq):
            return seq[rng.randrange(len(seq))]

        # MP: premises valid on the model force a valid conclusion
        phi = pick(known)
        psi = rand()
        conditional = imp(phi, psi)
        report.checks += 1
        if indexed.counterexample_state(conditional) is None:
            check_valid("MP", psi)

        # NECK and the NEC rule of the system
        phi = pick(known)
        check_valid("NECK", Box(agent, phi))
        if "NECKVR" in system.rules:
            check_valid("NECKVR", BBoxU(agent, constant, phi))
        if "NECKVB" in system.rules:
            check_valid("NECKVB", BBoxB(agent, constant, phi, rand()))

        # SUB on an axiom instance stays an axiom instance
        if instances:
            inst = pick(instances)
            sigma = {vocab.props[0]: rand(1)}
            check_valid("SUB", substitute(inst, sigma))

        # RE: replace equivalents inside a random host
        x = rand(1)
        y = pick((Neg(Neg(x)), And(x, Top()), And(x, x), f_or(x, x)))
        premise = iff(x, y)
        report.checks += 1
        if indexed.counterexample_state(premise) is None:
            host = rand()
            spots = occurrences(host, x)
            conclusion = iff(host, replace_at(host, spots, x, y))
            check_valid("RE", conclusion)

    return report
