"""Acceptance gate: one test per shipped guarantee, each with its time budget.

Every test here re-derives its expected answers from first principles
(hand-built expansions, brute-force oracles, exhaustive enumeration) rather
than trusting the library under test.  The terminal summary hook in
``conftest.py`` prints one PASS/FAIL line per criterion after the run.
"""

from __future__ import annotations

import itertools
import random
import time

from kvlog.bisim import distinguishing_formula, greatest_bisim
from kvlog.models import (
    GenParams,
    derive_ternary,
    generate_direct,
    generate_value_induced,
    validate_ternary,
)
from kvlog.proof import SYSTEMS, check_derivation, parse_script, soundness_fuzz
from kvlog.semantics import eval_fo, eval_ternary, find_countermodel
from kvlog.syntax import (
    And,
    Neg,
    Prop,
    Vocabulary,
    big_and,
    big_or,
    dia,
    dia_b,
    dia_u,
    f_or,
    imp,
    modal_depth,
    parse,
    random_formula,
    reduce_r,
    translate_T,
)
from kvlog.transform import assign_values, split, to_fo, unravel

from oracles import build_model, enumerate_structures, oracle_violations

VOC = Vocabulary(agents=("a", "b"), props=("p", "q"), constants=("c", "d"))


def diamond_expansion(agent, constant, phi, psi):
    """Hand-built three-disjunct equivalent of the binary value diamond."""
    return big_or([
        And(dia_u(agent, constant, phi), dia(agent, psi)),
        And(dia_u(agent, constant, psi), dia(agent, phi)),
        big_and([
            dia(agent, phi),
            dia(agent, psi),
            Neg(dia_u(agent, constant, phi)),
            Neg(dia_u(agent, constant, psi)),
            dia_u(agent, constant, f_or(phi, psi)),
        ]),
    ])


def test_criterion_1(left_model, right_model):
    """Shipped model pair: binary diamond differs, verified distinguisher."""
    start = time.monotonic()
    probe = parse("<a>^c(p, q)", left_model.vocab)
    assert eval_ternary(left_model, "s", probe) is True
    assert eval_ternary(right_model, "x", probe) is False

    result = greatest_bisim(left_model, right_model)
    assert ("s", "x") not in result.pairs

    witness = distinguishing_formula(left_model, "s", right_model, "x")
    assert witness is not None
    assert eval_ternary(left_model, "s", witness) is True
    assert eval_ternary(right_model, "x", witness) is False
    assert time.monotonic() - start < 1.0


def test_criterion_2():
    """Binary-diamond expansion and reduction preserve truth (500 + 500)."""
    start = time.monotonic()
    for trial in range(500):
        rng = random.Random(trial)
        model = generate_direct(
            GenParams(VOC, 1 + trial % 5, rng.random(), 2, seed=trial)
        )
        agent = VOC.agents[trial % len(VOC.agents)]
        constant = VOC.constants[trial % len(VOC.constants)]
        phi = random_formula(rng, VOC, 2, lang="MLKvB")
        psi = random_formula(rng, VOC, 2, lang="MLKvB")
        diamond = dia_b(agent, constant, phi, psi)
        expansion = diamond_expansion(agent, constant, phi, psi)
        for state in model.states:
            assert eval_ternary(model, state, diamond) == eval_ternary(
                model, state, expansion
            ), (trial, state)

    for trial in range(500):
        rng = random.Random(10_000 + trial)
        model = generate_direct(
            GenParams(VOC, 1 + trial % 5, rng.random(), 2, seed=10_000 + trial)
        )
        f = random_formula(rng, VOC, 2, lang="MLKvB")
        reduced = reduce_r(f)
        for state in model.states:
            assert eval_ternary(model, state, f) == eval_ternary(
                model, state, reduced
            ), (trial, state)
    assert time.monotonic() - start < 30.0


def test_criterion_3():
    """FO truth equals derived-ternary truth of the translation (500)."""
    start = time.monotonic()
    for trial in range(500):
        rng = random.Random(trial)
        fo, tern = generate_value_induced(
            GenParams(VOC, 1 + trial % 6, rng.random(), 2 + trial % 2, seed=trial)
        )
        assert tern == derive_ternary(fo)
        f = random_formula(rng, VOC, 2, lang="ELKvR")
        translated = translate_T(f)
        for state in fo.states:
            assert eval_fo(fo, state, f) == eval_ternary(
                tern, state, translated
            ), (trial, state)
    assert time.monotonic() - start < 30.0


def criterion_4_cases():
    """Seeded (model, formula, root) conversions shared by criteria 4 and 9."""
    for trial in range(200):
        rng = random.Random(trial)
        model = generate_direct(
            GenParams(VOC, 1 + trial % 5, rng.random(), 2, seed=trial)
        )
        f = random_formula(rng, VOC, 2, lang="ELKvR")
        root = model.states[trial % len(model.states)]
        yield trial, model, f, root


def test_criterion_4():
    """Ternary truth survives the tree-and-values conversion (200)."""
    start = time.monotonic()
    for trial, model, f, root in criterion_4_cases():
        fo, fo_root = to_fo(model, root, modal_depth(f))
        assert eval_fo(fo, fo_root, f) == eval_ternary(
            model, root, translate_T(f)
        ), trial
    assert time.monotonic() - start < 60.0


def test_conversion_is_bisimilar_up_to_its_depth():
    """to_fo(M, s, d) at its root is d-bisimilar to M at s (Blackburn, de
    Rijke & Venema, Modal Logic, 2001): the pair survives the first d
    refinement rounds, and every formula telling them apart is deeper
    than d (criterion 4's conversions, at d = 0, 1, 2)."""
    for trial, model, _, root in criterion_4_cases():
        for d in range(3):
            fo, fo_root = to_fo(model, root, d)
            tree = derive_ternary(fo)
            result = greatest_bisim(model, tree)
            pair = (root, fo_root)
            assert pair in result.pairs or (
                pair in result.deleted and result.deleted[pair][0] >= d
            ), (trial, d)
            witness = distinguishing_formula(model, root, tree, fo_root)
            assert witness is None or modal_depth(witness) > d, (trial, d)


def test_criterion_5():
    """Frame validator agrees with the naive oracle on all 3-state structures."""
    start = time.monotonic()
    vocab = Vocabulary(agents=("a",), props=("p",), constants=("c",))
    states = ("s0", "s1", "s2")
    count = 0
    for edges, triples in enumerate_structures(states):
        model = build_model(vocab, states, edges, triples)
        got = {(v.cond, v.agent, v.constant, v.witness)
               for v in validate_ternary(model)}
        assert got == set(oracle_violations(model)), (edges, triples)
        count += 1
    assert count == 95 ** 3
    assert time.monotonic() - start < 60.0


def test_criterion_6():
    """Soundness fuzz is clean for all three systems; bogus schema refuted."""
    start = time.monotonic()
    for system in SYSTEMS.values():
        report = soundness_fuzz(system, trials=100, seed=0)
        assert report.falsifications == [], system.name
        assert report.checks > 0

    voc = Vocabulary(agents=("a",), props=("p", "q"), constants=("c",))
    p, q = Prop("p"), Prop("q")
    bogus = imp(
        dia_u("a", "c", f_or(p, q)),
        f_or(dia_u("a", "c", p), dia_u("a", "c", q)),
    )
    hit = find_countermodel(bogus, 3, voc)
    assert hit is not None
    model, state = hit
    assert validate_ternary(model) == []
    assert eval_ternary(model, state, bogus) is False
    assert time.monotonic() - start < 60.0


def test_criterion_7(proofs_dir):
    """Every shipped proof script accepted, every mutant rejected as annotated."""
    start = time.monotonic()
    shipped = sorted(proofs_dir.glob("*.kvp"))
    assert len(shipped) == 9
    for path in shipped:
        text = path.read_text()
        system = SYSTEMS[text.split("# system: ")[1].split("\n")[0]]
        result = check_derivation(system, parse_script(text))
        assert result.ok, (path.name, result.step, result.reason)

    mutants = sorted((proofs_dir / "negative").glob("*.kvp"))
    assert len(mutants) == 6
    for path in mutants:
        text = path.read_text()
        system = SYSTEMS[text.split("# system: ")[1].split("\n")[0]]
        expected = int(text.split("# expect-reject-at: ")[1].split("\n")[0])
        result = check_derivation(system, parse_script(text))
        assert not result.ok, path.name
        assert result.step == expected, (path.name, result.step, result.reason)
    assert time.monotonic() - start < 5.0


def test_criterion_8():
    """Bisimilar pairs agree on sampled formulas; others get distinguishers."""
    start = time.monotonic()
    for trial in range(300):
        rng = random.Random(trial)
        m1 = generate_direct(
            GenParams(VOC, 1 + trial % 4, rng.random(), 2, seed=2 * trial)
        )
        m2 = generate_direct(
            GenParams(VOC, 1 + (trial // 4) % 4, rng.random(), 2,
                      seed=2 * trial + 1)
        )
        result = greatest_bisim(m1, m2)
        formulas = [random_formula(rng, VOC, 2, lang="MLKvB")
                    for _ in range(50)]
        for s1, s2 in result.pairs:
            for f in formulas:
                assert eval_ternary(m1, s1, f) == eval_ternary(m2, s2, f), (
                    trial, s1, s2
                )
        for s1, s2 in itertools.product(m1.states, m2.states):
            if (s1, s2) in result.pairs:
                continue
            witness = distinguishing_formula(m1, s1, m2, s2)
            assert witness is not None, (trial, s1, s2)
            assert eval_ternary(m1, s1, witness) is True
            assert eval_ternary(m2, s2, witness) is False
    assert time.monotonic() - start < 120.0


def test_criterion_9():
    """Split/unravel/value-assignment structural guarantees hold throughout."""
    for trial, model, f, root in criterion_4_cases():
        tagged = split(model)
        for triples in tagged.tern.values():
            for _, t, u in triples:
                assert t != u, (trial, t)

        tree = unravel(tagged, f"{root}.0", modal_depth(f))
        preds = {state: set() for state in tree.states}
        edge_count = 0
        for pairs in tree.rel.values():
            for source, target in pairs:
                preds[target].add(source)
                edge_count += 1
        assert preds[f"{root}.0"] == set(), trial
        for state, sources in preds.items():
            if state != f"{root}.0":
                assert len(sources) == 1, (trial, state)
        assert edge_count == len(tree.states) - 1, trial

        fo, fo_root = assign_values(tree)
        assert fo_root in fo.states
        assert set(fo.vc.values()) <= set(fo.domain)


def test_values_are_glued_as_defined():
    """Two distinct states share a value of c exactly when they are
    children of one state through one agent and no triple of that agent
    and c relates them in either order (criterion 4's conversions)."""
    for trial, model, f, root in criterion_4_cases():
        fo, _ = to_fo(model, root, modal_depth(f))
        tree = unravel(split(model), f"{root}.0", modal_depth(f))
        up = {t: (s, agent) for agent, pairs in tree.rel.items()
              for s, t in pairs}
        for c in VOC.constants:
            for t, u in itertools.combinations(tree.states, 2):
                glued = t in up and up[t] == up.get(u) and not (
                    {(up[t][0], t, u), (up[t][0], u, t)}
                    & tree.tern[(up[t][1], c)])
                assert (fo.vc[(c, t)] == fo.vc[(c, u)]) == glued, (trial, t, u)
