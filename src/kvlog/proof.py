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
justification-local.  Each rule is one row of RULES: the steps it cites,
the Step fields it needs and may take, its usage text and its own check.
_check_step runs the checks all rules share, then the row's; the NEC rows
also build the conclusions the fuzzer tests.  TAUT certifies propositional
tautologies over the modal-subformula skeleton on semantics' compiled
evaluator, one state per assignment (at most 12 distinct atoms).
"""

from __future__ import annotations

import functools
import random
import re as _re
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional

from .models import GenParams, TernaryModel, generate_direct, \
    generate_value_induced
from .semantics import _PROP, IndexedModel, _compile, _run
from .syntax import (And, BBoxB, BBoxU, Box, Formula, Neg, Path, Prop, Top,
                     Vocabulary, children, f_or, fold, iff, imp, memo_parser,
                     occurrences, parse, print_formula, random_formula, rebuild,
                     replace_at, split_iff, str_to_path, substitute, subterms)

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

def is_tautology(f: Formula) -> tuple[bool, str]:
    """TAUT's decision, by semantics._run with one state per assignment."""
    atoms: dict[Formula, int] = {}    # atom -> its number
    index: dict[int, int] = {}        # node id -> its instruction, as _compile keeps it
    prog: list[tuple[int, int, int, int]] = []
    seen: set[int] = set()
    stack = [f]
    while stack:                      # preorder over the skeleton
        g = stack.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        if isinstance(g, (Top, Neg, And)):
            stack.extend(reversed(children(g)))
        else:                         # an atom: a prop or a modal subformula
            index[id(g)] = len(prog)
            prog.append((_PROP, atoms.setdefault(g, len(atoms)), 0, 0))
    n = len(atoms)
    if n > TAUT_ATOM_LIMIT:
        return False, (f"skeleton has {n} atoms, "
                       f"limit is {TAUT_ATOM_LIMIT}; decompose the step")
    prog += _compile(f, ({}, {}, {}), index)    # the skeleton names no symbol
    # bit k of a mask is the value under assignment k, where atom j is bit j of
    # k: full // (2^2^(j+1) - 1) marks each run of 2^(j+1) rows; times its top half
    full = (1 << (1 << n)) - 1
    columns = [full // ((1 << (2 << j)) - 1) * (((1 << (1 << j)) - 1) << (1 << j))
               for j in range(n)]
    vals = [0] * len(prog)
    _run(prog, range(len(prog)), vals, 1 << n, columns, None, None)
    mask = vals[index[id(f)]]         # _compile adds nothing when f is an atom
    if mask != full:
        bits = ((mask + 1) & ~mask).bit_length() - 1
        return False, f"fails under assignment {bits:0{n}b}"
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
    parts, depth, start = [], 0, 0
    for m in _ARG_TOKEN_RE.finditer(text):
        if m.group(2):
            depth += 1
        elif m.group(3):
            depth -= 1
        elif m.group(4) and depth == 0:
            parts.append(text[start:m.start()])
            start = m.end()
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


_ARG_TOKEN_RE = _re.compile(r"(<?->)|([(\[<])|([)\]>])|(,)")
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
    return Vocabulary(**sets)


def parse_script(text: str) -> Derivation:
    vocab = DEFAULT_SCRIPT_VOCAB
    read = memo_parser(vocab)       # every formula of the script, one memo
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
            read = memo_parser(vocab)
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
            formula = read(formula_text.strip())
        except Exception as exc:
            raise ScriptError(f"bad formula: {exc}", lineno) from None
        steps.append(_parse_justification(num, formula, by.strip(), read,
                                          lineno))
    if not steps:
        raise ScriptError("script has no steps", 0)
    return Derivation(vocab=vocab, steps=tuple(steps))


def _parse_justification(num: int, formula: Formula, by: str,
                         read: Callable[[str], Formula], lineno: int) -> Step:
    m = _re.match(r"^([A-Z]+)\s*(?:\((.*)\))?\s*$", by)
    if not m:
        raise ScriptError(f"unreadable justification {by!r}", lineno)
    rule = m.group(1)
    symbols = () if rule == "SUB" else ("i", "c")   # SUB may bind i and c
    refs: list[int] = []
    positions: list[Path] = []
    named: dict[str, object] = {}   # key -> symbol name or parsed formula
    schema = None
    for pos, arg in enumerate(_split_args(m.group(2) or "")):
        if "=" in arg and not arg.startswith("("):
            key, _, value = arg.partition("=")
            key, value = key.strip(), value.strip()
            if not key:
                raise ScriptError(f"unreadable argument {arg!r}", lineno)
            if key == "at":
                try:
                    positions.append(str_to_path(value))
                except ValueError as exc:
                    raise ScriptError(str(exc), lineno) from None
                continue
            if key in named:
                raise ScriptError(f"{key}= is given twice", lineno)
            if key not in symbols:
                try:
                    value = read(value)
                except Exception as exc:
                    raise ScriptError(f"bad value for {key}: {exc}",
                                      lineno) from None
            named[key] = value
        elif arg.isdigit():
            refs.append(int(arg))
        elif pos == 0 and rule == "AX":
            schema = arg
        else:
            raise ScriptError(f"unreadable argument {arg!r}", lineno)
    agent, constant = (named.pop(k, None) if k in symbols else None
                       for k in ("i", "c"))
    side = named.pop("side", None)
    return Step(num=num, formula=formula, rule=rule, refs=tuple(refs),
                schema=schema, sigma=named or None, agent=agent,
                constant=constant, side=side, positions=tuple(positions))


# --- the rules: each function gets a step that passed _check_step's shared
# checks and the formulas of the steps it cites, and says why the step fails

def _tautology(system, vocab, step, prems) -> Optional[str]:
    ok, why = is_tautology(step.formula)
    return None if ok else f"not a propositional tautology: {why}"


def _axiom(system, vocab, step, prems) -> Optional[str]:
    if step.schema not in system.schemas:
        return f"{system.name} has no schema {step.schema}"
    if step.agent is None:
        return "AX needs i=<agent>"
    if step.constant is None and step.schema != "DISTK":
        return "AX needs c=<constant>"
    try:                            # DISTK has no constant slot to fill
        inst = axiom_instance(system, step.schema, step.sigma or {}, step.agent,
                              step.constant or vocab.constants[0])
    except ValueError as exc:
        return str(exc)
    return None if inst == step.formula else (
        f"stated formula differs from the {step.schema} "
        f"instance {print_formula(inst)}")


def _modus_ponens(system, vocab, step, prems) -> Optional[str]:
    prem, cond = prems
    return None if cond == imp(prem, step.formula) else (
        f"step {step.refs[1]} is not "
        f"({print_formula(prem)} -> {print_formula(step.formula)})")


def _necessitation(shape: str):
    """The check of a NEC row: the step states what the row builds."""
    def check(system, vocab, step, prems) -> Optional[str]:
        built = RULES[step.rule].build(step.agent, step.constant, prems[0], step.side)
        return None if step.formula == built else f"stated formula is not {shape}"
    return check


def _substitution(system, vocab, step, prems) -> Optional[str]:
    for name in step.sigma:
        if vocab.kind_of(name) != "prop":
            return f"SUB binds {name!r}, which is not a prop"
    return None if step.formula == substitute(prems[0], step.sigma) else (
        "stated formula is not the substitution instance")


def _replacement(system, vocab, step, prems) -> Optional[str]:
    sides, own = split_iff(prems[0]), split_iff(step.formula)
    if sides is None:
        return f"step {step.refs[0]} is not a biconditional"
    if own is None:
        return "stated formula is not a biconditional"
    try:
        rebuilt = replace_at(own[0], step.positions, *sides)
    except ValueError as exc:
        return str(exc)
    return None if rebuilt == own[1] else (
        f"replacement yields {print_formula(rebuilt)}, "
        f"not {print_formula(own[1])}")


class Rule(NamedTuple):
    refs: int                  # how many steps it cites
    needs: tuple[str, ...]     # Step fields it must be given
    takes: tuple[str, ...]     # Step fields it may be given besides
    usage: str                 # the reason when refs or needs are not met
    check: Callable[..., Optional[str]]   # (system, vocab, step, premises)
    # a NEC rule's conclusion from (agent, constant, premise, side)
    build: Optional[Callable[..., Formula]] = None


RULES: dict[str, Rule] = {
    "TAUT": Rule(0, (), (), "", _tautology),
    "AX": Rule(0, ("schema",), ("sigma", "agent", "constant"),
               "AX needs a schema name", _axiom),
    "MP": Rule(2, (), (), "MP needs two step references", _modus_ponens),
    "NECK": Rule(1, ("agent",), (), "NECK needs one reference and i=<agent>",
                 _necessitation("the boxed premise"),
                 lambda i, c, prem, side: Box(i, prem)),
    "NECKVR": Rule(1, ("agent", "constant"), (),
                   "NECKVR needs one reference, i=<agent> and c=<constant>",
                   _necessitation("the premise under [i]^c"),
                   lambda i, c, prem, side: BBoxU(i, c, prem)),
    "NECKVB": Rule(1, ("agent", "constant", "side"), (),
                   "NECKVB needs one reference, i=<agent>, c=<constant> "
                   "and side=<formula>",
                   _necessitation("[i]^c(premise, side)"),
                   lambda i, c, prem, side: BBoxB(i, c, prem, side)),
    "SUB": Rule(1, ("sigma",), (),
                "SUB needs one reference and at least one prop binding",
                _substitution),
    "RE": Rule(1, (), ("positions",), "RE needs one step reference",
               _replacement),
}

_ARGS = {"schema": "a schema name", "sigma": "prop bindings", "agent": "i=",
         "constant": "c=", "side": "side=", "positions": "at="}   # as scripts spell them


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
    row = RULES.get(step.rule)              # every system has TAUT and AX
    if row is None or step.rule not in ("TAUT", "AX") + system.rules:
        return f"{system.name} has no rule {step.rule}"
    if step.refs and not row.refs:
        return f"{step.rule} does not read step references"
    for name, arg in _ARGS.items():
        if getattr(step, name) not in (None, ()) and name not in row.needs + row.takes:
            return f"{step.rule} does not read {arg}"
    if (len(step.refs) != row.refs
            or any(getattr(step, name) is None for name in row.needs)):
        return row.usage
    if not all(1 <= j < step.num for j in step.refs):
        return (f"{step.rule} references must point at earlier steps" if row.refs > 1
                else f"{step.rule} reference must point at an earlier step")
    if step.agent is not None and d.vocab.kind_of(step.agent) != "agent":
        return f"{step.agent!r} is not an agent"
    if step.constant is not None and d.vocab.kind_of(step.constant) != "constant":
        return f"{step.constant!r} is not a constant"
    return row.check(system, d.vocab, step,
                     tuple(d.steps[j - 1].formula for j in step.refs))


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
                report.falsifications.append(Falsification(
                    system=system.name, trial=trial, kind=kind,
                    formula=print_formula(formula), state=state, params=params))
            return state is None

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

        # the system's NEC rules, in its order, built as the checker builds
        phi = pick(known)
        for name in system.rules:
            if (build := RULES[name].build) is not None:
                side = rand() if "side" in RULES[name].needs else None
                check_valid(name, build(agent, constant, phi, side))

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
