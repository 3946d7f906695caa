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
    DEFAULT_SCRIPT_VOCAB,
    RULES,
    SCHEMAS,
    SMLKV,
    SMLKVB,
    SMLKVR,
    SYSTEMS,
    TAUT_ATOM_LIMIT,
    CheckResult,
    Derivation,
    ScriptError,
    _slotted,
    _truth_table,
    axiom_instance,
    check_derivation,
    is_tautology,
    parse_script,
    schema_metavars,
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

    def test_instances_do_not_depend_on_the_slot_memo(self):
        sigma = {"p": Box("a", P), "q": Neg(Q), "r": Top()}
        for system in SYSTEMS.values():
            for schema in system.schemas[1:]:
                want = {v: sigma[v] for v in schema_metavars(SCHEMAS[schema])}
                _slotted.cache_clear()
                cold = axiom_instance(system, schema, want, "b", "d")
                warm = axiom_instance(system, schema, want, "b", "d")
                assert _slotted.cache_info().hits == 1
                assert cold == warm


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

    @pytest.mark.parametrize("justification, key", [
        ("NECK(1, i=a, i=b)", "i"),
        ("NECKVR(1, i=a, c=c, c=d)", "c"),
        ("NECKVB(1, i=a, c=c, side=p, side=q)", "side"),
        ("AX(DISTK, i=a, p=p, q=q, p=q)", "p"),
        ("SUB(1, p=q, p=r)", "p"),
    ])
    def test_repeated_keys_are_script_errors(self, justification, key):
        with pytest.raises(ScriptError) as exc:
            parse_script(f"1. (p | ~p) BY TAUT\n2. p BY {justification}")
        assert str(exc.value) == f"line 2: {key}= is given twice"

    def test_replacement_positions_may_repeat(self):
        step = parse_script("1. p BY RE(1, at=0, at=1)").steps[0]
        assert step.positions == ((0,), (1,))

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


TAUT1 = "1. (p | ~p) BY TAUT\n"        # a first step for rules that cite one
IFF1 = "1. (p <-> ~~p) BY TAUT\n"
DISTK_AB = "([a](p -> q) -> ([a]p -> [a]q))"
DISTKVR_AB = "([a](p -> q) -> ([a]^c p -> [a]^c q))"
ATOMS13 = [f"p{k}" for k in range(13)]

# One minimal script per rejection reason of check_derivation, with the
# step and the reason text it gets.
REJECTIONS = [
    ("taut_fails", "SMLKVr", "1. (p -> q) BY TAUT",
     1, "not a propositional tautology: fails under assignment 01"),
    ("taut_too_wide", "SMLKVr",
     f"vocab agents a ; props {' '.join(ATOMS13)} ; constants c\n"
     f"1. ({' | '.join(ATOMS13)}) BY TAUT",
     1, "not a propositional tautology: skeleton has 13 atoms, limit is 12; "
        "decompose the step"),
    ("ax_no_schema", "SMLKVr", "1. p BY AX", 1, "AX needs a schema name"),
    ("ax_foreign_schema", "SMLKVr",
     "1. ([a]^c(p, q) -> [a]^c(q, p)) BY AX(SYM, i=a, c=c, p=p, q=q)",
     1, "SMLKVr has no schema SYM"),
    ("ax_no_agent", "SMLKVr", f"1. {DISTK_AB} BY AX(DISTK, p=p, q=q)",
     1, "AX needs i=<agent>"),
    ("ax_bad_agent", "SMLKVr", f"1. {DISTK_AB} BY AX(DISTK, i=zz, p=p, q=q)",
     1, "'zz' is not an agent"),
    ("ax_no_constant", "SMLKVr", f"1. {DISTKVR_AB} BY AX(DISTKVR, i=a, p=p, q=q)",
     1, "AX needs c=<constant>"),
    ("ax_bad_constant", "SMLKVr",
     f"1. {DISTKVR_AB} BY AX(DISTKVR, i=a, c=zz, p=p, q=q)",
     1, "'zz' is not a constant"),
    ("ax_metavariables", "SMLKVr", f"1. {DISTK_AB} BY AX(DISTK, i=a, p=p)",
     1, "schema DISTK wants metavariables ['p', 'q']; missing q, extra none"),
    ("ax_other_instance", "SMLKVr", f"1. {DISTK_AB} BY AX(DISTK, i=a, p=q, q=p)",
     1, "stated formula differs from the DISTK instance "
        "([a](q -> p) -> ([a]q -> [a]p))"),
    ("rule_of_other_system", "SMLKVr",
     TAUT1 + "2. [a]^c((p | ~p), q) BY NECKVB(1, i=a, c=c, side=q)",
     2, "SMLKVr has no rule NECKVB"),
    ("rule_unknown", "SMLKVr", TAUT1 + "2. p BY FOO(1)",
     2, "SMLKVr has no rule FOO"),
    ("mp_usage", "SMLKVr", TAUT1 + "2. p BY MP(1)",
     2, "MP needs two step references"),
    ("mp_reference", "SMLKVr", "1. p BY MP(0, 1)",
     1, "MP references must point at earlier steps"),
    ("mp_not_conditional", "SMLKVr",
     "1. (p -> p) BY TAUT\n2. (q -> q) BY TAUT\n3. p BY MP(1, 2)",
     3, "step 2 is not ((p -> p) -> p)"),
    ("neck_usage", "SMLKVr", TAUT1 + "2. [a](p | ~p) BY NECK(1)",
     2, "NECK needs one reference and i=<agent>"),
    ("neck_reference", "SMLKVr", "1. [a]p BY NECK(1, i=a)",
     1, "NECK reference must point at an earlier step"),
    ("neck_bad_agent", "SMLKVr", TAUT1 + "2. [a](p | ~p) BY NECK(1, i=zz)",
     2, "'zz' is not an agent"),
    ("neck_other_formula", "SMLKVr", TAUT1 + "2. [b](p | ~p) BY NECK(1, i=a)",
     2, "stated formula is not the boxed premise"),
    ("neckvr_usage", "SMLKVr", TAUT1 + "2. [a]^c (p | ~p) BY NECKVR(1, i=a)",
     2, "NECKVR needs one reference, i=<agent> and c=<constant>"),
    ("neckvr_reference", "SMLKVr", "1. [a]^c p BY NECKVR(2, i=a, c=c)",
     1, "NECKVR reference must point at an earlier step"),
    ("neckvr_other_formula", "SMLKVr",
     TAUT1 + "2. [a]^d (p | ~p) BY NECKVR(1, i=a, c=c)",
     2, "stated formula is not the premise under [i]^c"),
    ("neckvb_usage", "SMLKVb", TAUT1 + "2. [a]^c((p | ~p), q) BY NECKVB(1, i=a, c=c)",
     2, "NECKVB needs one reference, i=<agent>, c=<constant> and side=<formula>"),
    ("neckvb_reference", "SMLKVb", "1. [a]^c(p, q) BY NECKVB(1, i=a, c=c, side=q)",
     1, "NECKVB reference must point at an earlier step"),
    ("neckvb_other_formula", "SMLKVb",
     TAUT1 + "2. [a]^c((p | ~p), p) BY NECKVB(1, i=a, c=c, side=q)",
     2, "stated formula is not [i]^c(premise, side)"),
    ("sub_usage", "SMLKVr", TAUT1 + "2. (q | ~q) BY SUB(1)",
     2, "SUB needs one reference and at least one prop binding"),
    ("sub_reference", "SMLKVr", "1. p BY SUB(1, p=q)",
     1, "SUB reference must point at an earlier step"),
    ("sub_binds_an_agent", "SMLKVr", TAUT1 + "2. (p | ~p) BY SUB(1, a=q)",
     2, "SUB binds 'a', which is not a prop"),
    ("sub_other_formula", "SMLKVr", "1. (p -> p) BY TAUT\n2. (q -> p) BY SUB(1, p=q)",
     2, "stated formula is not the substitution instance"),
    ("re_usage", "SMLKVr", IFF1 + "2. (q <-> q) BY RE(1, 1)",
     2, "RE needs one step reference"),
    ("re_reference", "SMLKVr", "1. (p <-> p) BY RE(1)",
     1, "RE reference must point at an earlier step"),
    ("re_premise_not_iff", "SMLKVr", TAUT1 + "2. (q <-> q) BY RE(1)",
     2, "step 1 is not a biconditional"),
    ("re_stated_not_iff", "SMLKVr", IFF1 + "2. q BY RE(1)",
     2, "stated formula is not a biconditional"),
    ("re_other_subterm", "SMLKVr",
     IFF1 + "2. ((q & p) <-> (q & ~~p)) BY RE(1, at=0)",
     2, "subterm at (0,) is q, not p"),
    ("re_missing_position", "SMLKVr",
     IFF1 + "2. ((q & p) <-> (q & ~~p)) BY RE(1, at=5)",
     2, "positions [(5,)] do not exist in (q & p)"),
    ("re_other_result", "SMLKVr", IFF1 + "2. ((q & p) <-> (q & p)) BY RE(1, at=1)",
     2, "replacement yields (q & ~~p), not (q & p)"),
]


class TestRuleTable:
    """Every rule is one row of proof.RULES; these pin what the rows say."""

    @pytest.mark.parametrize("system, script, step, reason",
                             [r[1:] for r in REJECTIONS],
                             ids=[r[0] for r in REJECTIONS])
    def test_each_rejection_reason(self, system, script, step, reason):
        res = check_derivation(SYSTEMS[system], parse_script(script))
        assert (res.ok, res.step, res.reason) == (False, step, reason)

    def test_steps_must_be_numbered_from_one(self):
        step = parse_script(TAUT1).steps[0]
        der = Derivation(DEFAULT_SCRIPT_VOCAB, (dataclasses.replace(step, num=2),))
        res = check_derivation(SMLKVR, der)
        assert (res.ok, res.step, res.reason) == (
            False, 2, "steps are not numbered 1..n")

    def test_every_rule_of_every_system_has_a_row(self):
        for system in SYSTEMS.values():
            assert set(system.rules) | {"TAUT", "AX"} <= set(RULES)
        assert set(RULES) == {"TAUT", "AX"}.union(
            *(system.rules for system in SYSTEMS.values()))

    @pytest.mark.parametrize("system, conclusion, justification", [
        ("SMLKVr", "[a](p | ~p)", "NECK(1, i=zz)"),
        ("SMLKVr", "[a]^c (p | ~p)", "NECKVR(1, i=zz, c=c)"),
        ("SMLKVr", "[a]^c (p | ~p)", "NECKVR(1, i=a, c=zz)"),
        ("SMLKVb", "[a]^c((p | ~p), q)", "NECKVB(1, i=zz, c=c, side=q)"),
        ("SMLKVb", "[a]^c((p | ~p), q)", "NECKVB(1, i=a, c=zz, side=q)"),
    ])
    def test_necessitation_checks_the_kind_of_its_symbols(
            self, system, conclusion, justification):
        res = check_derivation(SYSTEMS[system], parse_script(
            f"{TAUT1}2. {conclusion} BY {justification}"))
        kind = "an agent" if "i=zz" in justification else "a constant"
        assert (res.ok, res.step, res.reason) == (False, 2, f"'zz' is not {kind}")

    @pytest.mark.parametrize("script, step, reason", [
        (TAUT1 + "2. ((p | ~p) -> (p | ~p)) BY TAUT\n"
         "3. (p | ~p) BY MP(1, 2, i=a, side=p)", 3, "MP does not read i="),
        (TAUT1 + "2. [a](p | ~p) BY NECK(1, i=a, p=q, at=0)",
         2, "NECK does not read prop bindings"),
        (TAUT1 + "2. [a](p | ~p) BY NECK(1, i=a, c=c)", 2, "NECK does not read c="),
        (TAUT1 + "2. (p | ~p) BY TAUT(1, i=a)",
         2, "TAUT does not read step references"),
        (TAUT1 + f"2. {DISTK_AB} BY AX(DISTK, 1, i=a, p=p, q=q)",
         2, "AX does not read step references"),
        (TAUT1 + "2. (p | ~p) BY SUB(1, p=p, at=0)", 2, "SUB does not read at="),
        (IFF1 + "2. (q <-> q) BY RE(1, side=q)", 2, "RE does not read side="),
    ])
    def test_arguments_a_rule_does_not_read_are_rejected(self, script, step, reason):
        res = check_derivation(SMLKVR, parse_script(script))
        assert (res.ok, res.step, res.reason) == (False, step, reason)

    @pytest.mark.parametrize("script", [
        f"1. {DISTK_AB} BY AX(DISTK, i=a, c=d, p=p, q=q)",   # AX reads c=
        IFF1 + "2. (q <-> q) BY RE(1)",                     # at= is optional
    ])
    def test_arguments_a_rule_reads_are_accepted(self, script):
        assert check_derivation(SMLKVR, parse_script(script)).ok


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

    def test_truth_table_columns_match_the_row_sums(self):
        for n in range(TAUT_ATOM_LIMIT + 1):
            rows = 1 << n
            assert _truth_table(n) == ((1 << rows) - 1, [
                sum(1 << k for k in range(rows) if k >> j & 1) for j in range(n)])

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

    def test_reports_do_not_depend_on_the_slot_memo(self):
        bogus = {"BOGUS": self.bogus_schema()}
        found = []
        for system in SYSTEMS.values():
            soundness_fuzz(system, trials=1, seed=2, extra_schemas=bogus)
            warm = soundness_fuzz(system, trials=20, seed=2, extra_schemas=bogus)
            cold = []
            for trial in range(20):
                _slotted.cache_clear()
                cold.append(soundness_fuzz(system, trials=1, seed=2,
                                           extra_schemas=bogus, start=trial))
            assert warm.checks == sum(r.checks for r in cold)
            assert warm.falsifications == [f for r in cold for f in r.falsifications]
            found.append(bool(warm.falsifications))
        assert any(found)

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
