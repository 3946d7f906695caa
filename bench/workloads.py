"""The four workloads: seeded job lists, and the check of every verdict.

A job is one user-level request (one refute, one fuzz trial, one bisim
query, one validate/convert/reduce/prove call).  A workload hands out
its jobs in passes.  Every pass has the same make-up; the seed and the
pass index choose the inputs, so the same seed always gives the same
jobs.  ``build`` does the input building that counts as set-up and may
call the package; ``refine`` is the benchmark's own selection work and is
never timed.

Each job's ``check`` compares the output with a reference from
``refs.py`` or ``tests/oracles.py``.  The package only rebuilds inputs
for a check (parsing, model generation, ``translate_T``); it never
supplies the expected answer.  Checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import re
from dataclasses import dataclass
from typing import Callable

import refs


@dataclass
class Job:
    kind: str
    desc: tuple                     # the inputs, for determinism checks
    run: Callable[[], object]
    check: Callable[[object], bool]
    control: bool = False           # negative control: the answer is a finding
    found: bool = False             # set by check when the output is a finding


@dataclass
class Context:
    """What the jobs use: the imported package, the oracles, the seed."""
    api: object
    root: object
    seed: int
    oracles: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[Context, int], list]
    refine: Callable[[Context, list], list]
    trace_passes: int               # passes in each half of a traced run
    controls_in_aggregate: bool = False   # one finding among all controls suffices


def _rng(ctx: Context, salt: int, index: int) -> random.Random:
    return random.Random((ctx.seed * 1_000_003 + index) * 16 + salt)


def _keep(ctx: Context, jobs: list) -> list:
    return jobs


# --- search -----------------------------------------------------------------

# The paper's schemas in the slots a / c, with p for every proposition.
# Soundness of each schema is the reference: no countermodel.
SCHEMAS = {
    "SYM": "([a]^c(p, p) -> [a]^c(p, p))",
    "INCL": "(<a>^c(p, p) -> <a>p)",
    "INCLT": "(<a>^c T -> <a>T)",
    "DISTKVR": "([a](p -> p) -> ([a]^c p -> [a]^c p))",
    "DISTKVB": "([a]^c((p -> p), p) -> ([a]^c(p, p) -> [a]^c(p, p)))",
}
# Known non-theorems (negative controls).  The two-prop ones, among them
# the non-normality schema, are refuted on two states after 10-20 ms of
# search, slower than any selected random formula, so they also hold the
# tail of the latency distribution steady.
NON_THEOREM_TEMPLATES = (
    "(<a>^c (P | Q) -> (<a>^c P | <a>^c Q))",
    "(<a>^c(P, Q) -> (<a>^c P | <a>^c Q))",
    "((<a>^c P & <a>^c Q) -> <a>^c (P & Q))",
    "((<a>^c(P, Q) & <a>^c(Q, P)) -> <a>^c (P & Q))",
)
NON_THEOREMS = tuple(
    t.replace("P", p).replace("Q", q) for t in NON_THEOREM_TEMPLATES
    for p in ("p", "~p") for q in ("q", "~q")) + (
    "(<a>T -> <a>^c T)", "([a]^c p -> p)", "(<a>p -> <a>^c p)")
SEARCH_STATES = 3
SEARCH_CANDIDATES = 1500     # random draws per pass, before selection
SEARCH_RANDOM = 1000         # random formulas kept per pass


def _refute_job(ctx: Context, vocab, kind: str, text: str,
                expect_valid: bool, states: int = SEARCH_STATES) -> Job:
    syn, sem = ctx.api.syntax, ctx.api.semantics

    def run():
        return sem.find_countermodel(syn.parse(text, vocab), states, vocab)

    def check(out):
        if expect_valid:
            return out is None
        if out is None:
            return False
        model, state = out
        job.found = True
        f = syn.parse(text, vocab)
        return (ctx.oracles.oracle_violations(model) == []
                and ctx.oracles.oracle_eval(model, state, f) is False)

    job = Job(kind, ("refute", text, states), run, check,
              control=kind == "non-theorem")
    return job


def search_vocab(api, props=("p",)):
    return api.syntax.Vocabulary(agents=("a",), props=props, constants=("c",))


def build_search(ctx: Context, index: int) -> list:
    syn = ctx.api.syntax
    rng = _rng(ctx, 1, index)
    vocab, two_props = search_vocab(ctx.api), search_vocab(ctx.api, ("p", "q"))
    jobs = [_refute_job(ctx, vocab, "schema", t, True) for t in SCHEMAS.values()]
    jobs += [_refute_job(ctx, two_props, "non-theorem", t, False)
             for t in NON_THEOREMS]
    for _ in range(SEARCH_CANDIDATES):
        text = syn.print_formula(syn.random_formula(rng, vocab, 2, "MLKvB"))
        jobs.append(_refute_job(ctx, vocab, "random", text, False))
    rng.shuffle(jobs)
    return jobs


def _random_refutes(ctx: Context, jobs: list, keep: int) -> list:
    """Keep the random formulas that the oracle refutes on some model with
    at most two states, up to ``keep`` of them.

    A random formula that is valid up to two states costs anything from
    0.2 to 5 s at three states, so a few of them would decide a whole
    run; the schema instances cover the exhaustive path at a fixed cost.
    """
    vocab = search_vocab(ctx.api)
    small = [m for n in (1, 2) for m in ctx.oracles.enumerate_small_models(
        vocab, [f"s{i}" for i in range(n)], "p")]
    kept, randoms = [], 0
    for job in jobs:
        if job.kind == "random":
            if randoms == keep:
                continue
            f = ctx.api.syntax.parse(job.desc[1], vocab)
            if all(ctx.oracles.oracle_eval(m, s, f)
                   for m in small for s in m.states):
                continue
            randoms += 1
        kept.append(job)
    return kept


def refine_search(ctx: Context, jobs: list) -> list:
    return _random_refutes(ctx, jobs, SEARCH_RANDOM)


# --- fuzz -------------------------------------------------------------------

NON_NORMALITY = "(<i>^c (p | q) -> (<i>^c p | <i>^c q))"
FUZZ_TRIALS = 40             # per system and pass
FUZZ_CONTROLS = 20           # trials with the unsound schema added
CONTROL_OFFSET = 1_000_000   # trial numbers of the controls


def _fuzz_job(ctx: Context, system, start: int, extra) -> Job:
    proof, models = ctx.api.proof, ctx.api.models

    def run():
        return proof.soundness_fuzz(system, 1, ctx.seed, extra_schemas=extra,
                                    start=start)

    def real(fal) -> bool:
        # the reported instance fails at the reported state of one of the
        # two models the fuzzer draws from these parameters
        f = ctx.api.syntax.parse(fal.formula, fal.params.vocab)
        candidates = (models.generate_direct(fal.params),
                      models.generate_value_induced(fal.params)[1])
        return any(fal.state in m.states
                   and ctx.oracles.oracle_violations(m) == []
                   and not ctx.oracles.oracle_eval(m, fal.state, f)
                   for m in candidates)

    def check(out):
        if out.trials != 1 or out.checks <= 0:
            return False
        if extra is None:
            return out.falsifications == []
        # instances of the unsound schema also feed the rule checks (SUB,
        # MP, ...), so those may fail too; every report must be real
        job.found = any(fal.kind == "NONNORM" for fal in out.falsifications)
        return all(real(fal) for fal in out.falsifications)

    job = Job("control" if extra else "trial",
              ("fuzz", system.name, ctx.seed, start, extra is not None),
              run, check, control=extra is not None)
    return job


def build_fuzz(ctx: Context, index: int) -> list:
    syn, proof = ctx.api.syntax, ctx.api.proof
    meta = syn.Vocabulary(agents=("i",), props=("p", "q"), constants=("c",))
    extra = {"NONNORM": syn.parse(NON_NORMALITY, meta)}
    jobs = []
    for system in proof.SYSTEMS.values():
        jobs += [_fuzz_job(ctx, system, index * FUZZ_TRIALS + k, None)
                 for k in range(FUZZ_TRIALS)]
        jobs += [_fuzz_job(ctx, system,
                           CONTROL_OFFSET + index * FUZZ_CONTROLS + k, extra)
                 for k in range(FUZZ_CONTROLS)]
    _rng(ctx, 2, index).shuffle(jobs)
    return jobs


# --- bisim ------------------------------------------------------------------

CHAIN_LENGTHS = (16, 24, 32)   # chain n against chain n + 1
SPLIT_SIZES = (6, 9)           # generate_direct model against its split copy
SMALL_PAIRS = 10               # criterion-8 style random pairs per pass


def criterion_vocab(api):
    return api.syntax.Vocabulary(agents=("a", "b"), props=("p", "q"),
                                 constants=("c", "d"))


def _bisim_job(ctx: Context, family: str, desc: tuple, m1, s1, m2, s2,
               expect: Callable[[], bool], control: bool = False) -> Job:
    def run():
        return ctx.api.bisim.distinguishing_formula(m1, s1, m2, s2)

    def check(out):
        if expect():
            return out is None
        if out is None:
            return False
        job.found = True
        ev = ctx.oracles.oracle_eval
        return ev(m1, s1, out) is True and ev(m2, s2, out) is False

    job = Job(family, ("bisim", family) + desc + (s1, s2), run, check,
              control=control)
    return job


def build_bisim(ctx: Context, index: int) -> list:
    models, transform = ctx.api.models, ctx.api.transform
    rng = _rng(ctx, 3, index)
    vocab = criterion_vocab(ctx.api)
    jobs = []
    for n in CHAIN_LENGTHS:
        m1 = models.json_to_model(refs.chain_raw(n, "x"))[0]
        m2 = models.json_to_model(refs.chain_raw(n + 1, "y"))[0]
        i = rng.randrange(n)
        for a, b, control in ((0, 0, True), (i, i + 1, False), (i, i, False)):
            jobs.append(_bisim_job(
                ctx, "chain", (n,), m1, f"x{a}", m2, f"y{b}",
                lambda a=a, b=b, n=n: refs.chain_bisimilar(n, a, n + 1, b),
                control))
    for k in SPLIT_SIZES:
        seed = rng.randrange(1 << 30)
        m = models.generate_direct(models.GenParams(vocab, k, 0.5, 2, seed))
        copy = transform.split(m)
        for tag in ("0", "1"):
            s = rng.choice(m.states)
            jobs.append(_bisim_job(ctx, "split", (k, seed), m, s, copy,
                                   f"{s}.{tag}", lambda: True))
    for _ in range(SMALL_PAIRS):
        trial = rng.randrange(1 << 20)
        r = random.Random(trial)
        m1 = models.generate_direct(models.GenParams(
            vocab, 1 + trial % 4, r.random(), 2, seed=2 * trial))
        m2 = models.generate_direct(models.GenParams(
            vocab, 1 + (trial // 4) % 4, r.random(), 2, seed=2 * trial + 1))
        z = functools.cache(lambda m1=m1, m2=m2:
                            refs.naive_bisimulation(m1, m2))
        for s1 in m1.states:
            for s2 in m2.states:
                jobs.append(_bisim_job(ctx, "small", (trial,), m1, s1, m2, s2,
                                       lambda pair=(s1, s2), z=z: pair in z()))
    rng.shuffle(jobs)
    return jobs


# --- oneshot ----------------------------------------------------------------

VALIDATE_JOBS = 200          # contiguous slice of the 95**3 structures
REFUTE_CANDIDATES = 20       # random refutes drawn per pass ...
REFUTE_RANDOM = 10           # ... and kept
TO_FO_JOBS = 30              # drawn from the 200 inputs of criterion 4
REDUCE_DEPTHS = (1, 2, 3, 4)
STRUCTURE_STATES = ("s0", "s1", "s2")


def _validate_job(ctx, vocab, number: int) -> Job:
    models = ctx.api.models
    edges, triples = refs.structure(STRUCTURE_STATES, number)

    def run():
        m = models.make_ternary(vocab, STRUCTURE_STATES, {"a": edges},
                                {("a", "c"): triples}, {})
        return models.validate_ternary(m)

    def check(out):
        got = {(v.cond, v.agent, v.constant, v.witness) for v in out}
        model = ctx.oracles.build_model(vocab, STRUCTURE_STATES, edges, triples)
        return got == set(ctx.oracles.oracle_violations(model))

    return Job("validate", ("validate", number), run, check)


def _to_fo_job(ctx, vocab, trial: int) -> Job:
    """Criterion 4's input number ``trial``, kept as model JSON."""
    api = ctx.api
    r = random.Random(trial)
    model = api.models.generate_direct(api.models.GenParams(
        vocab, 1 + trial % 5, r.random(), 2, seed=trial))
    f = api.syntax.random_formula(r, vocab, 2, lang="ELKvR")
    root = model.states[trial % len(model.states)]
    data = api.models.model_to_json(model)
    text = api.syntax.print_formula(f)
    depth = api.syntax.modal_depth(f)

    def run():
        m = api.models.json_to_model(data)[0]
        fo, fo_root = api.transform.to_fo(m, root, depth)
        return m, fo, fo_root

    def check(out):
        m, fo, fo_root = out
        g = api.syntax.parse(text, vocab)
        return (ctx.oracles.oracle_eval_fo(fo, fo_root, g)
                == ctx.oracles.oracle_eval(m, root, api.syntax.translate_T(g)))

    return Job("to_fo", ("to_fo", trial), run, check)


def _nested_boxes(rng: random.Random, depth: int) -> str:
    leaves = ("p", "q", "~p", "~q")
    text = rng.choice(leaves)
    for _ in range(depth):
        other = rng.choice(leaves)
        text = (f"[a]^c({text}, {other})" if rng.random() < 0.5
                else f"[a]^c({other}, {text})")
        if rng.random() < 0.5:
            text = "~" + text
    return text


def _reduce_job(ctx, rng, depth: int) -> Job:
    api = ctx.api
    vocab = search_vocab(api, ("p", "q"))
    seed = rng.randrange(1 << 30)
    data = api.models.model_to_json(api.models.generate_direct(
        api.models.GenParams(vocab, 3, 0.6, 2, seed)))
    text = _nested_boxes(rng, depth)

    def run():
        m = api.models.json_to_model(data)[0]
        reduced = api.syntax.reduce_r(api.syntax.parse(text, vocab))
        return m, api.semantics.eval_ternary(m, "s0", reduced)

    def check(out):
        m, value = out
        f = api.syntax.parse(text, vocab)
        return value == ctx.oracles.oracle_eval(m, "s0", f)

    return Job("reduce", ("reduce", text, seed), run, check)


def proof_scripts(root) -> list:
    """(path, system, expected reject step or None) for the shipped scripts."""
    out = []
    for path in sorted((root / "proofs").glob("*.kvp")) + sorted(
            (root / "proofs" / "negative").glob("*.kvp")):
        text = path.read_text(encoding="utf-8")
        system = re.search(r"^# system: (\S+)", text, re.M).group(1)
        reject = re.search(r"^# expect-reject-at: (\d+)", text, re.M)
        out.append((path, system, int(reject.group(1)) if reject else None))
    return out


def _prove_job(ctx, path, system: str, reject_at) -> Job:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ctx.api.cli.main(["prove", "--json", system, str(path)])
        return code, buf.getvalue()

    def check(out):
        code, text = out
        payload = json.loads(text)
        if reject_at is None:
            return code == 0 and payload["ok"] is True
        job.found = code == 1 and payload["ok"] is False
        return job.found and payload["step"] == reject_at

    job = Job("prove", ("prove", path.name), run, check,
              control=reject_at is not None)
    return job


def build_oneshot(ctx: Context, index: int) -> list:
    rng = _rng(ctx, 4, index)
    first = rng.randrange(95 ** 3 - VALIDATE_JOBS)
    jobs = [_validate_job(ctx, search_vocab(ctx.api), first + k)
            for k in range(VALIDATE_JOBS)]
    vocab = criterion_vocab(ctx.api)
    jobs += [_to_fo_job(ctx, vocab, trial)
             for trial in rng.sample(range(200), TO_FO_JOBS)]
    jobs += [_reduce_job(ctx, rng, depth) for depth in REDUCE_DEPTHS]
    jobs += [_prove_job(ctx, *script) for script in proof_scripts(ctx.root)]
    # `kvlog refute --max-states 2`: one exhaustive search over the 406
    # one-prop models, two non-theorems and some random formulas
    vocab = search_vocab(ctx.api)
    jobs.append(_refute_job(ctx, vocab, "schema", SCHEMAS["INCL"], True, 2))
    jobs += [_refute_job(ctx, search_vocab(ctx.api, ("p", "q")), "non-theorem",
                         text, False, 2)
             for text in rng.sample(NON_THEOREMS[:16], 2)]
    for _ in range(REFUTE_CANDIDATES):
        text = ctx.api.syntax.print_formula(
            ctx.api.syntax.random_formula(rng, vocab, 2, "MLKvB"))
        jobs.append(_refute_job(ctx, vocab, "random", text, False, 2))
    rng.shuffle(jobs)
    return jobs


def refine_oneshot(ctx: Context, jobs: list) -> list:
    return _random_refutes(ctx, jobs, REFUTE_RANDOM)


WORKLOADS = {w.name: w for w in (
    Workload("search", build_search, refine_search, trace_passes=1),
    Workload("fuzz", build_fuzz, _keep, trace_passes=18,
             controls_in_aggregate=True),
    Workload("bisim", build_bisim, _keep, trace_passes=25),
    Workload("oneshot", build_oneshot, refine_oneshot, trace_passes=45),
)}
