import random

import pytest

from kvlog.bisim import distinguishing_formula
from kvlog.models import (GenParams, derive_ternary, generate_direct,
                          generate_value_induced, make_fo, make_ternary,
                          validate_ternary)
from kvlog.semantics import (BudgetExceededError, IndexedModel,
                             _pair_tables, counterexample_state, eval_fo,
                             eval_ternary, find_countermodel, valid_on)
from kvlog.syntax import (And, BBoxB, BBoxU, Box, KvCond, LanguageError, Neg,
                          Prop, Top, Vocabulary, bot, parse, random_formula,
                          translate_T)

from oracles import enumerate_small_models, oracle_eval, oracle_eval_fo

VOC = Vocabulary(("a",), ("p", "q"), ("c",))


def two_successor_fo(vc_t=1, vc_u=2, val=None):
    return make_fo(VOC, ("s", "t", "u"), {"a": {("s", "t"), ("s", "u")}},
                   val if val is not None else {"t": {"p"}, "u": {"p"}},
                   (1, 2),
                   {("c", "s"): 1, ("c", "t"): vc_t, ("c", "u"): vc_u})


def non_normality_witness():
    """Two successors each settle the value on their own proposition,
    but not jointly."""
    return make_ternary(VOC, ("s", "t", "u"),
                        {"a": {("s", "t"), ("s", "u")}},
                        {("a", "c"): {("s", "t", "u"), ("s", "u", "t")}},
                        {"t": {"p"}, "u": {"q"}})


class TestEvalFo:
    def test_kv_of_bottom_is_vacuously_true(self):
        f = parse("Kv[a](F, c)", VOC)
        assert eval_fo(two_successor_fo(), "s", f)
        rng = random.Random(1)
        for k in range(20):
            fo, _ = generate_value_induced(
                GenParams(VOC, 1 + k % 5, rng.random(), 2, seed=k))
            assert all(eval_fo(fo, s, f) for s in fo.states)

    def test_disagreeing_successors_refute_kv(self):
        assert not eval_fo(two_successor_fo(), "s", parse("Kv[a](p, c)", VOC))

    def test_conditioning_can_restore_kv(self):
        fo = two_successor_fo(val={"t": {"p", "q"}, "u": {"p"}})
        assert not eval_fo(fo, "s", parse("Kv[a](p, c)", VOC))
        assert eval_fo(fo, "s", parse("Kv[a]((p & q), c)", VOC))

    def test_rejects_ternary_vocabulary_formula(self):
        with pytest.raises(LanguageError):
            eval_fo(two_successor_fo(), "s", parse("[a]^c p", VOC))

    def test_language_error_names_the_whole_formula(self):
        with pytest.raises(LanguageError) as exc:
            eval_fo(two_successor_fo(), "s", parse("(p & [a]^c q)", VOC))
        assert str(exc.value) == "not an ELKvR formula: (p & [a]^c q)"

    def test_unknown_state(self):
        with pytest.raises(ValueError):
            eval_fo(two_successor_fo(), "zz", parse("p", VOC))


class TestEvalTernary:
    def test_shipped_pair_disagrees_on_binary_diamond(self, left_model,
                                                      right_model):
        f = parse("<a>^c(p, q)", VOC)
        assert eval_ternary(left_model, "s", f) is True
        assert eval_ternary(right_model, "x", f) is False

    def test_empty_ternary_makes_boxes_vacuous(self):
        m = make_ternary(VOC, ("s", "t"), {"a": {("s", "t")}}, {}, {})
        for text in ("[a]^c p", "[a]^c F", "[a]^c(p, q)"):
            assert eval_ternary(m, "s", parse(text, VOC))
        for text in ("<a>^c p", "<a>^c(p, q)"):
            assert not eval_ternary(m, "s", parse(text, VOC))

    def test_non_normality_witness(self):
        m = non_normality_witness()
        assert eval_ternary(m, "s", parse("<a>^c (p | q)", VOC))
        assert not eval_ternary(m, "s", parse("<a>^c p", VOC))
        assert not eval_ternary(m, "s", parse("<a>^c q", VOC))

    def test_rejects_fo_formula(self, left_model):
        with pytest.raises(LanguageError):
            eval_ternary(left_model, "s", parse("Kv[a](p, c)", VOC))

    def test_agrees_with_oracle(self):
        rng = random.Random(21)
        for k in range(300):
            m = generate_direct(GenParams(VOC, 1 + k % 5, rng.random(), 2,
                                          seed=700 + k))
            f = random_formula(rng, VOC, depth=2, lang="MLKvB")
            for s in m.states:
                assert eval_ternary(m, s, f) == oracle_eval(m, s, f)
        # random triples break the frame conditions; x is one shared object
        broken = set()
        for k in range(150):
            states = [f"s{i}" for i in range(1 + k % 4)]
            m = make_ternary(
                VOC, states,
                {"a": {(s, t) for s in states for t in states
                       if rng.random() < 0.5}},
                {("a", "c"): {(s, t, u) for s in states for t in states
                              for u in states if rng.random() < 0.3}},
                {s: {p for p in VOC.props if rng.random() < 0.5}
                 for s in states})
            broken |= {v.cond for v in validate_ternary(m)}
            x = random_formula(rng, VOC, depth=2, lang="MLKvB")
            for f in (And(x, x), BBoxB("a", "c", x, Neg(x))):
                for s in m.states:
                    assert eval_ternary(m, s, f) == oracle_eval(m, s, f)
        assert broken == {"SYM", "INCL", "ATEUC"}

    def test_agrees_with_oracle_on_distinguishing_formulas(self, left_model,
                                                          right_model):
        pairs = [(left_model, "s", right_model, "x")]
        for k in range(20):
            m1, m2 = (generate_direct(GenParams(VOC, 3, 0.6, 2, seed=2 * k + j))
                      for j in (0, 1))
            pairs.append((m1, "s0", m2, "s0"))
        found = 0
        for m1, s1, m2, s2 in pairs:
            f = distinguishing_formula(m1, s1, m2, s2)
            if f is None:
                continue
            found += 1
            for m in (m1, m2):
                for s in m.states:
                    assert eval_ternary(m, s, f) == oracle_eval(m, s, f)
        assert found > 10

    @pytest.mark.parametrize("f, message", [
        (Prop("r"), "unknown prop 'r'"),
        (Box("b", Top()), "unknown agent 'b'"),
        (BBoxU("a", "d", Top()), "unknown constant 'd'"),
        (BBoxB("b", "d", Top(), Top()), "unknown agent 'b'"),
        (And(Box("a", Prop("r")), Box("b", Top())), "unknown prop 'r'"),
        (And(Box("b", Prop("r")), Prop("z")), "unknown agent 'b'"),
    ], ids=["prop", "agent", "constant", "agent-first", "left-first",
            "outer-first"])
    def test_first_unknown_symbol_in_preorder_is_named(self, left_model, f,
                                                       message):
        with pytest.raises(ValueError) as exc:
            eval_ternary(left_model, "s", f)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            counterexample_state(left_model, f)
        assert str(exc.value) == message

    def test_language_error_wins_over_unknown_symbols(self, left_model):
        f = And(Prop("r"), KvCond("a", Top(), "c"))
        with pytest.raises(LanguageError) as exc:
            eval_ternary(left_model, "s", f)
        assert str(exc.value) == ("conditional Kv formula needs an FO model: "
                                  "(r & Kv[a](T, c))")


class TestIndexedModel:
    @staticmethod
    def state(indexed):
        return (list(indexed.roots), dict(indexed.index), list(indexed.prog),
                list(indexed.vals))

    def test_formulas_sharing_subterms_agree_with_oracle(self):
        rng = random.Random(12)
        for k in range(60):
            params = GenParams(VOC, 1 + k % 5, rng.choice((0.3, 0.6)), 2,
                               seed=900 + k)
            m = (generate_direct(params) if k % 2 else
                 generate_value_induced(params)[1])
            indexed = IndexedModel(m)
            x = random_formula(rng, VOC, 2, "MLKvB")
            y = random_formula(rng, VOC, 2, "MLKvR")
            kv = KvCond("a", x, "c")
            steps = [(x, None), (y, None), (And(x, y), None),
                     (Box("a", x), None), (BBoxB("a", "c", y, x), None),
                     (And(x, Prop("r")), (ValueError, "unknown prop 'r'")),
                     (And(y, kv), (LanguageError, "conditional Kv formula "
                                   f"needs an FO model: {And(y, kv)}")),
                     (Neg(And(x, y)), None), (BBoxU("a", "c", Box("a", x)), None),
                     (x, None)]
            for f, error in steps:
                if error is None:
                    mask = indexed.truth(f)
                    for i, s in enumerate(m.states):
                        assert bool(mask >> i & 1) == oracle_eval(m, s, f)
                    continue
                before = self.state(indexed)
                with pytest.raises(error[0]) as exc:
                    indexed.truth(f)
                assert str(exc.value) == error[1]
                assert self.state(indexed) == before

    def test_program_grows_only_by_new_subterms(self):
        indexed = IndexedModel(non_normality_witness())
        x = parse("([a]^c(p, q) & <a>p)", VOC)
        indexed.truth(x)
        size = len(indexed.prog)
        indexed.truth(x)
        indexed.truth(x.left)
        assert len(indexed.prog) == size
        indexed.truth(And(x, Neg(x)))
        assert len(indexed.prog) == size + 2
        indexed.truth(parse("([a]^c(p, q) & <a>p)", VOC))   # equal, not shared
        assert len(indexed.prog) == 2 * size + 2


class TestValidOn:
    def test_symmetry_axiom_instance_is_valid(self, left_model):
        f = parse("([a]^c(p, q) -> [a]^c(q, p))", VOC)
        assert valid_on(left_model, f)
        rng = random.Random(2)
        for k in range(50):
            m = generate_direct(GenParams(VOC, 1 + k % 5, rng.random(), 2,
                                          seed=k))
            assert valid_on(m, f)

    def test_diamond_split_fails_on_witness(self):
        f = parse("(<a>^c (p | q) -> (<a>^c p | <a>^c q))", VOC)
        assert not valid_on(non_normality_witness(), f)

    def test_top_is_valid(self, left_model):
        assert valid_on(left_model, Top())


class TestFindCountermodel:
    def test_refutes_unary_diamond_split(self):
        f = parse("(<a>^c (p | q) -> (<a>^c p | <a>^c q))", VOC)
        hit = find_countermodel(f, 3, VOC)
        assert hit is not None
        model, state = hit
        assert validate_ternary(model) == []
        assert not eval_ternary(model, state, f)
        assert not oracle_eval(model, state, f)

    def test_symmetry_axiom_has_no_small_countermodel(self):
        f = parse("([a]^c(p, q) -> [a]^c(q, p))", VOC)
        assert find_countermodel(f, 3, VOC) is None

    def test_bottom_refuted_in_one_state(self):
        hit = find_countermodel(bot(), 1, VOC)
        assert hit is not None
        model, state = hit
        assert len(model.states) == 1
        assert all(not v for v in model.rel.values())

    def test_worker_count_does_not_change_the_witness(self):
        f = parse("(<a>^c (p | q) -> (<a>^c p | <a>^c q))", VOC)
        one = find_countermodel(f, 3, VOC, workers=1)
        two = find_countermodel(f, 3, VOC, workers=2)
        assert one == two

    def test_pair_tables_are_built_once_per_state_count(self):
        assert find_countermodel(parse("(p | ~p)", VOC), 3, VOC) is None
        assert _pair_tables(3) is _pair_tables(3)
        assert isinstance(_pair_tables(3), tuple)
        assert all(isinstance(row, tuple) for row in _pair_tables(3))

    def test_budget_guard(self):
        f = parse("([a]^c(p, q) -> [a]^c(q, p))", VOC)
        with pytest.raises(BudgetExceededError):
            find_countermodel(f, 4, VOC, budget=50)

    def test_none_found_matches_exhaustive_check_at_two_states(self):
        cases = [
            ("([a]^c(p, q) -> [a]^c(q, p))", None),
            ("([a](p -> q) -> ([a]^c p -> [a]^c q))", None),
            ("(<a>^c(p, q) -> <a>p)", None),
            ("(<a>^c (p | q) -> (<a>^c p | <a>^c q))", "countermodel"),
            ("[a]^c p", "countermodel"),
            ("(p | ~q)", "countermodel"),
        ]
        for text, expect in cases:
            f = parse(text, VOC)
            hit = find_countermodel(f, 2, VOC)
            holds_everywhere = True
            for n in (1, 2):
                states = [f"s{k}" for k in range(n)]
                for m in enumerate_small_models(VOC, states, ("p", "q")):
                    for s in m.states:
                        if not oracle_eval(m, s, f):
                            holds_everywhere = False
            assert (hit is None) == holds_everywhere, text
            assert (hit is None) == (expect is None), text


def test_fo_truth_transfers_to_derived_ternary():
    rng = random.Random(17)
    for k in range(100):
        fo, tern = generate_value_induced(
            GenParams(VOC, 1 + k % 6, rng.random(), 1 + k % 3, seed=k))
        f = random_formula(rng, VOC, depth=2, lang="ELKvR")
        g = translate_T(f)
        for s in fo.states:
            got_fo = eval_fo(fo, s, f)
            assert got_fo == oracle_eval_fo(fo, s, f)
            assert got_fo == eval_ternary(tern, s, g)


def test_unary_box_agrees_with_diagonal_binary_box():
    rng = random.Random(19)
    for k in range(150):
        m = generate_direct(GenParams(VOC, 1 + k % 4, rng.random(), 2,
                                      seed=900 + k))
        f = random_formula(rng, VOC, depth=1, lang="MLKvB")
        unary = BBoxU("a", "c", f)
        binary = BBoxB("a", "c", f, f)
        for s in m.states:
            assert eval_ternary(m, s, unary) == eval_ternary(m, s, binary)


def test_empty_ternary_vacuity_everywhere():
    rng = random.Random(23)
    for k in range(50):
        fo, tern = generate_value_induced(
            GenParams(VOC, 1 + k % 5, rng.random(), 1, seed=k))
        assert all(not v for v in tern.tern.values())
        f = random_formula(rng, VOC, depth=1, lang="MLKvB")
        for s in tern.states:
            assert eval_ternary(tern, s, BBoxU("a", "c", f))
            assert eval_ternary(tern, s, BBoxB("a", "c", f, Prop("p")))
