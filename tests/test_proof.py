"""Tests for the Hilbert-style proof checker and the soundness fuzzer.

Covers axiom instantiation, script parsing, the shipped derivation corpus
(positive and negative), the derived value-necessitation rule, the bounded
tautology decision procedure, and deterministic fuzzing of each system.
"""

from __future__ import annotations

import dataclasses
import random
import re

import pytest

from kvlog.models import GenParams, generate_direct
from kvlog.proof import (
    SMLKV,
    SMLKVB,
    SMLKVR,
    SYSTEMS,
    TAUT_ATOM_LIMIT,
    CheckResult,
    Derivation,
    ScriptError,
    axiom_instance,
    check_derivation,
    is_tautology,
    parse_script,
    soundness_fuzz,
    split_iff,
)
from kvlog.semantics import eval_ternary, find_countermodel
from kvlog.syntax import (
    BBoxB,
    BBoxU,
    Box,
    Neg,
    Prop,
    Top,
    Vocabulary,
    dia,
    dia_b,
    dia_u,
    embed_unary,
    f_or,
    iff,
    imp,
    parse,
    print_formula,
    random_formula,
)

from oracles import oracle_is_tautology

SYSTEM_HEADER = re.compile(r"# system: (\w+)")
REJECT_HEADER = re.compile(r"# expect-reject-at: (\d+)")

VOC = Vocabulary(agents=("a", "b"), props=("p", "q"), constants=("c", "d"))
P, Q, R = Prop("p"), Prop("q"), Prop("r")


def load_script(path):
    """Read a script file and return (derivation, system named in its header)."""
    text = path.read_text()
    system = SYSTEMS[SYSTEM_HEADER.search(text).group(1)]
    return parse_script(text), system


class TestAxiomInstance:
    def test_inclusion_instance_matches_hand_expansion(self):
        inst = axiom_instance(SMLKVB, "INCL", {"p": Prop("r"), "q": Top()}, "a", "c")
        assert inst == imp(dia_b("a", "c", Prop("r"), Top()), dia("a", Prop("r")))
        assert print_formula(inst) == "([a]^c(~r, F) | <a>r)"

    def test_symmetry_identity_instance(self):
        inst = axiom_instance(SMLKVB, "SYM", {"p": P, "q": Q}, "a", "c")
        assert inst == imp(BBoxB("a", "c", P, Q), BBoxB("a", "c", Q, P))

    def test_closed_schema_takes_no_metavariables(self):
        inst = axiom_instance(SMLKV, "INCLT", {}, "a", "c")
        assert inst == imp(dia_u("a", "c", Top()), dia("a", Top()))

    def test_distribution_instance_composes_with_substitution(self):
        # Instantiating with compound formulas must substitute them wholesale.
        inst = axiom_instance(SMLKVR, "DISTKVR", {"p": f_or(P, Q), "q": Q}, "b", "d")
        want = imp(
            Box("b", imp(f_or(P, Q), Q)),
            imp(BBoxU("b", "d", f_or(P, Q)), BBoxU("b", "d", Q)),
        )
        assert inst == want

    def test_schema_must_belong_to_the_system(self):
        with pytest.raises(ValueError, match="SMLKVr has no schema INCL"):
            axiom_instance(SMLKVR, "INCL", {"p": P, "q": Q}, "a", "c")
        with pytest.raises(ValueError, match="no schema NOPE"):
            axiom_instance(SMLKVB, "NOPE", {}, "a", "c")

    def test_metavariable_coverage_is_enforced(self):
        with pytest.raises(ValueError, match="missing q"):
            axiom_instance(SMLKVB, "SYM", {"p": P}, "a", "c")
        with pytest.raises(ValueError, match="extra p"):
            axiom_instance(SMLKV, "INCLT", {"p": P}, "a", "c")


class TestScriptParsing:
    def test_corpus_scripts_number_their_steps_consecutively(self, proofs_dir):
        paths = sorted(proofs_dir.glob("*.kvp"))
        assert len(paths) == 9
        for path in paths:
            der, _ = load_script(path)
            assert [s.num for s in der.steps] == list(range(1, len(der.steps) + 1))

    def test_comments_and_blank_lines_are_ignored(self):
        der = parse_script("# a comment\n\n1. (p | ~p) BY TAUT\n  # trailing note\n")
        assert len(der.steps) == 1
        assert der.steps[0].formula == f_or(P, Neg(P))
        assert der.steps[0].rule == "TAUT"

    def test_out_of_order_numbering_is_a_script_error(self):
        with pytest.raises(ScriptError, match="line 1: step 2 out of order, expected 1"):
            parse_script("2. p BY TAUT")

    def test_unreadable_lines_are_reported_with_their_line_number(self):
        with pytest.raises(ScriptError, match="line 3: unreadable line"):
            parse_script("1. (p | ~p) BY TAUT\n# fine\nnot a step line")

    def test_unknown_rules_parse_but_fail_the_check(self):
        # The parser is deliberately lenient about justification names so the
        # checker can report them as ordinary step failures.
        res = check_derivation(SMLKVR, parse_script("1. p BY WAT"))
        assert (res.ok, res.step, res.reason) == (False, 1, "SMLKVr has no rule WAT")

    def test_references_must_point_at_earlier_steps(self):
        for line in ("1. p BY MP(0,1)", "1. p BY MP(1,1)"):
            res = check_derivation(SMLKVR, parse_script(line))
            assert not res.ok and res.step == 1
            assert res.reason == "MP references must point at earlier steps"


class TestShippedDerivations:
    def test_every_shipped_script_is_accepted(self, proofs_dir):
        paths = sorted(proofs_dir.glob("*.kvp"))
        assert len(paths) == 9
        for path in paths:
            der, system = load_script(path)
            res = check_derivation(system, der)
            assert res.ok, f"{path.name} rejected at step {res.step}: {res.reason}"

    def test_embedded_axiom_scripts_land_on_the_embedding(self, proofs_dir):
        # The two bridge scripts must conclude with exactly the image of the
        # unary axiom under the unary-to-binary embedding, not a mere variant.
        identity = {"p": P, "q": Q}
        for name, schema in (
            ("unary_dist_in_binary.kvp", "DISTKVR"),
            ("unary_or_in_binary.kvp", "KVROR"),
        ):
            der, system = load_script(proofs_dir / name)
            assert system is SMLKVB
            want = embed_unary(axiom_instance(SMLKVR, schema, identity, "a", "c"))
            assert der.steps[-1].formula == want

    def test_value_necessitation_appears_only_up_front(self, proofs_dir):
        # axiom_to_nec demonstrates that one early value-necessitation step is
        # enough: everything after step 2 runs on the remaining rules.
        der, _ = load_script(proofs_dir / "axiom_to_nec.kvp")
        uses = [s.num for s in der.steps if s.rule == "NECKVR"]
        assert uses and all(num <= 2 for num in uses)

    def test_accepted_conclusions_hold_on_sampled_models(self, proofs_dir):
        for path in sorted(proofs_dir.glob("*.kvp")):
            der, system = load_script(path)
            conclusion = der.steps[-1].formula
            for seed in range(20):
                model = generate_direct(GenParams(der.vocab, 4, 0.6, 2, seed=seed))
                for state in model.states:
                    assert eval_ternary(model, state, conclusion), (
                        f"{path.name} conclusion fails at {state} (seed {seed})"
                    )


class TestNegativeCorpus:
    def test_each_script_is_rejected_at_its_annotated_step(self, proofs_dir):
        paths = sorted((proofs_dir / "negative").glob("*.kvp"))
        assert len(paths) == 6
        for path in paths:
            text = path.read_text()
            expected = int(REJECT_HEADER.search(text).group(1))
            der, system = load_script(path)
            res = check_derivation(system, der)
            assert not res.ok, f"{path.name} was accepted"
            assert res.step == expected, (
                f"{path.name} rejected at step {res.step}, annotated {expected}: {res.reason}"
            )

    def test_rejection_reasons_name_the_offence(self, proofs_dir):
        wanted = {
            "axiom_wrong_instantiation.kvp": "DISTKVR",
            "mp_cites_non_implication.kvp": "step 2 is not",
            "re_wrong_position.kvp": "subterm at",
            "schema_not_in_system.kvp": "no schema SYM",
            "sub_result_mismatch.kvp": "substitution instance",
            "taut_not_tautology.kvp": "not a propositional tautology",
        }
        for path in sorted((proofs_dir / "negative").glob("*.kvp")):
            der, system = load_script(path)
            res = check_derivation(system, der)
            assert wanted[path.name] in res.reason


class TestDerivedNecessitation:
    def test_equivalence_script_is_accepted_and_concludes_a_boxed_tautology(
            self, proofs_dir):
        der, _ = load_script(proofs_dir / "axiom_to_nec.kvp")
        assert check_derivation(SMLKVR, der).ok
        assert der.steps[-1].formula == BBoxU("a", "c", f_or(P, Neg(P)))

    def test_equivalence_is_specific_to_the_unary_relational_system(
            self, proofs_dir):
        der, _ = load_script(proofs_dir / "axiom_to_nec.kvp")
        for system in (SMLKVB, SMLKV):
            assert check_derivation(system, der) == CheckResult(
                False, 2, f"{system.name} has no rule NECKVR")


class TestJustificationLocality:
    def test_independent_preparation_blocks_commute(self, proofs_dir):
        # Steps 2-3 and 4-5 of combine_two prepare unrelated rewriting lemmas;
        # swapping the blocks (with references renumbered) must still check.
        der, system = load_script(proofs_dir / "combine_two.kvp")
        order = [1, 4, 5, 2, 3] + list(range(6, len(der.steps) + 1))
        remap = {old: new for new, old in enumerate(order, start=1)}
        steps = sorted(
            (
                dataclasses.replace(
                    s, num=remap[s.num], refs=tuple(remap[r] for r in s.refs)
                )
                for s in der.steps
            ),
            key=lambda s: s.num,
        )
        permuted = Derivation(vocab=der.vocab, steps=tuple(steps))
        assert check_derivation(system, permuted).ok
        assert permuted.steps[-1].formula == der.steps[-1].formula

    def test_checking_is_insensitive_to_steps_after_a_failure_point(self):
        # A failure at step 1 is reported as step 1 no matter what follows.
        script = "1. p BY TAUT\n2. (p | ~p) BY TAUT"
        res = check_derivation(SMLKVR, parse_script(script))
        assert (res.ok, res.step) == (False, 1)


class TestTautologyDecision:
    def test_classical_tautologies_are_accepted(self):
        for text in (
            "(p | ~p)",
            "(((p -> q) -> p) -> p)",
            "((p -> q) -> (~q -> ~p))",
            "((p & q) -> p)",
        ):
            ok, reason = is_tautology(parse(text, VOC))
            assert ok, f"{text}: {reason}"

    def test_failures_report_a_falsifying_assignment(self):
        ok, reason = is_tautology(imp(P, Q))
        assert not ok
        assert reason == "fails under assignment 01"

    def test_modal_subformulas_are_treated_as_opaque_atoms(self):
        box_p = BBoxU("a", "c", P)
        assert is_tautology(imp(box_p, box_p))[0]
        assert is_tautology(iff(box_p, box_p))[0]
        # Distinct modal subtrees are distinct atoms even when one would
        # semantically entail the other.
        assert not is_tautology(imp(BBoxB("a", "c", P, Q), BBoxB("a", "c", Q, P)))[0]

    def test_skeleton_width_is_bounded(self):
        assert TAUT_ATOM_LIMIT == 12
        props = tuple(f"x{i}" for i in range(13))
        wide_voc = Vocabulary(agents=("a",), props=props, constants=("c",))
        wide = parse("(" + " | ".join(props) + ")", wide_voc)
        ok, reason = is_tautology(wide)
        assert not ok
        assert reason == "skeleton has 13 atoms, limit is 12; decompose the step"

    def test_agrees_with_the_truth_table_oracle(self):
        rng = random.Random(20260814)
        for _ in range(200):
            f = random_formula(rng, VOC, depth=3, lang="MLKvB")
            ok, _ = is_tautology(f)
            assert ok == oracle_is_tautology(f), print_formula(f)

    def test_split_iff_recognises_only_biconditionals(self):
        assert split_iff(iff(P, Q)) == (P, Q)
        assert split_iff(imp(P, Q)) is None
        assert split_iff(P) is None


# checks and (trial, kind, formula, state) of each falsification, per
# (system, seed, NONNORM added) over trials 0-39, as recorded before the
# checks of a trial shared one indexed model
PINNED_FUZZ = {
    ("SMLKVr", 0, False): (742, []),
    ("SMLKVr", 0, True): (817, [
        (5, "NONNORM", "([a]^d ~(p | q) | (<a>^d p | <a>^d q))", "s4"),
        (30, "NONNORM", "([a]^d ~(p | q) | (<a>^d p | <a>^d q))", "s3"),
    ]),
    ("SMLKVr", 1, False): (735, []),
    ("SMLKVr", 1, True): (815, [
        (14, "NONNORM", "([a]^d ~(p | q) | (<a>^d p | <a>^d q))", "s4"),
        (19, "NONNORM", "([a]^d ~(q | [b]^c [b]F) | (<a>^d q | <a>^d [b]^c [b]F))", "s3"),
        (21, "NONNORM", "([a]^c ~(p | q) | (<a>^c p | <a>^c q))", "s0"),
    ]),
    ("SMLKVr", 2, False): (746, []),
    ("SMLKVr", 2, True): (812, [
        (24, "NONNORM", "([b]^c ~(p | q) | (<b>^c p | <b>^c q))", "s0"),
    ]),
    ("SMLKVb", 0, False): (892, []),
    ("SMLKVb", 0, True): (977, [
        (5, "NONNORM", "([a]^d ~(p | q) | (<a>^d p | <a>^d q))", "s4"),
        (30, "NONNORM", "([a]^d ~(p | q) | (<a>^d p | <a>^d q))", "s3"),
    ]),
    ("SMLKVb", 1, False): (889, []),
    ("SMLKVb", 1, True): (978, [
        (14, "NONNORM", "([a]^d ~(p | q) | (<a>^d p | <a>^d q))", "s4"),
        (21, "NONNORM", "([a]^c ~(p | q) | (<a>^c p | <a>^c q))", "s0"),
    ]),
    ("SMLKVb", 2, False): (893, []),
    ("SMLKVb", 2, True): (976, [
        (24, "NONNORM", "([b]^c ~(p | q) | (<b>^c p | <b>^c q))", "s0"),
    ]),
    ("SMLKV", 0, False): (613, []),
    ("SMLKV", 0, True): (692, [
        (5, "NONNORM", "([a]^d ~(p | q) | (<a>^d p | <a>^d q))", "s4"),
        (30, "NONNORM", "([a]^d ~(p | q) | (<a>^d p | <a>^d q))", "s3"),
    ]),
    ("SMLKV", 1, False): (614, []),
    ("SMLKV", 1, True): (693, [
        (14, "NONNORM", "([a]^d ~(p | q) | (<a>^d p | <a>^d q))", "s4"),
        (15, "SUB", "([a]^d ~(~p | q) | (<a>^d ~p | <a>^d q))", "s1"),
        (17, "NONNORM", "([a]^c ~(<b>^d T | (q & T)) | (<a>^c <b>^d T | <a>^c (q & T)))", "s0"),
        (17, "SUB", "([a]^c ~(~q | q) | (<a>^c ~q | <a>^c q))", "s0"),
        (19, "NONNORM", "([a]^d ~([a]^c F | q) | (<a>^d [a]^c F | <a>^d q))", "s3"),
        (21, "NONNORM", "([a]^c ~(p | q) | (<a>^c p | <a>^c q))", "s0"),
    ]),
    ("SMLKV", 2, False): (614, []),
    ("SMLKV", 2, True): (690, [
        (1, "SUB", "([b]^c ~([a]^d F | q) | (<b>^c [a]^d F | <b>^c q))", "s0"),
        (24, "NONNORM", "([b]^c ~(p | q) | (<b>^c p | <b>^c q))", "s0"),
        (33, "NONNORM", "([a]^c ~(q | <b>^d T) | (<a>^c q | <a>^c <b>^d T))", "s2"),
    ]),
}
NON_NORMALITY = "(<i>^c (p | q) -> (<i>^c p | <i>^c q))"


class TestSoundnessFuzz:
    def test_real_systems_survive_fuzzing(self):
        for system in SYSTEMS.values():
            report = soundness_fuzz(system, trials=40, seed=3)
            assert report.checks > 0
            assert report.falsifications == []

    def test_reports_are_deterministic_in_the_seed(self):
        first = soundness_fuzz(SMLKVB, trials=25, seed=11)
        second = soundness_fuzz(SMLKVB, trials=25, seed=11)
        assert first == second

    def test_sharded_runs_cover_the_same_trials(self):
        bogus = {"BOGUS": self.bogus_schema()}
        full = soundness_fuzz(SMLKVR, trials=30, seed=0, extra_schemas=bogus)
        head = soundness_fuzz(SMLKVR, trials=15, seed=0, extra_schemas=bogus)
        tail = soundness_fuzz(SMLKVR, trials=15, seed=0, extra_schemas=bogus, start=15)
        assert full.checks == head.checks + tail.checks
        assert full.falsifications == head.falsifications + tail.falsifications

    @staticmethod
    def bogus_schema():
        # Value-conditioned diamonds do not distribute over disjunction: the
        # conditioning set changes with the argument formula.
        return imp(
            dia_u("i", "c", f_or(P, Q)),
            f_or(dia_u("i", "c", P), dia_u("i", "c", Q)),
        )

    def test_bogus_schema_is_falsified_quickly(self):
        report = soundness_fuzz(
            SMLKVR, trials=60, seed=0, extra_schemas={"BOGUS": self.bogus_schema()}
        )
        assert report.falsifications, "unsound schema survived 60 trials"
        assert {f.kind for f in report.falsifications} == {"BOGUS"}
        assert report.falsifications[0].trial == 5

    def test_falsified_instances_are_genuinely_refutable(self):
        report = soundness_fuzz(
            SMLKVR, trials=60, seed=0, extra_schemas={"BOGUS": self.bogus_schema()}
        )
        seen = set()
        for fals in report.falsifications:
            if fals.formula in seen:
                continue
            seen.add(fals.formula)
            refuted = parse(fals.formula, fals.params.vocab)
            assert find_countermodel(refuted, 3, fals.params.vocab) is not None, fals.formula

    @pytest.mark.parametrize("key", sorted(PINNED_FUZZ), ids=str)
    def test_reports_match_the_recorded_ones(self, key):
        name, seed, nonnorm = key
        meta = Vocabulary(("i",), ("p", "q"), ("c",))
        extra = {"NONNORM": parse(NON_NORMALITY, meta)} if nonnorm else None
        report = soundness_fuzz(SYSTEMS[name], 40, seed, extra_schemas=extra)
        got = [(f.trial, f.kind, f.formula, f.state) for f in report.falsifications]
        assert (report.checks, got) == PINNED_FUZZ[key]
