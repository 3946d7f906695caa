import random

import pytest

from kvlog.models import (GenParams, derive_ternary, generate_direct,
                          make_ternary, validate_ternary)
from kvlog.semantics import eval_fo, eval_ternary
from kvlog.syntax import (Vocabulary, modal_depth, parse, random_formula,
                          translate_T)
from kvlog.transform import assign_values, split, to_fo, unravel

from test_acceptance import criterion_4_cases

VOC = Vocabulary(("a",), ("p", "q"), ("c",))
VOC1 = Vocabulary(("a",), ("p",), ("c",))


def reflexive_pair_model():
    """A valid model pairing a successor with itself."""
    return make_ternary(VOC1, ("s", "t"), {"a": {("s", "t")}},
                        {("a", "c"): {("s", "t", "t")}}, {"t": {"p"}})


def seeded_models(count, max_states, seed, vocab=VOC):
    rng = random.Random(seed)
    for k in range(count):
        yield generate_direct(GenParams(vocab, 1 + k % max_states,
                                        rng.random(), 2, seed=seed + k))


class TestSplit:
    def test_reflexive_pair_becomes_cross_copy_pairs(self):
        sp = split(reflexive_pair_model())
        triples = sp.tern[("a", "c")]
        assert triples == {("s.0", "t.0", "t.1"), ("s.0", "t.1", "t.0"),
                           ("s.1", "t.0", "t.1"), ("s.1", "t.1", "t.0")}
        assert validate_ternary(sp) == []

    def test_empty_ternary_stays_empty(self):
        m = make_ternary(VOC, ("s", "t"), {"a": {("s", "t")}}, {}, {})
        sp = split(m)
        assert all(not v for v in sp.tern.values())
        assert set(sp.states) == {"s.0", "s.1", "t.0", "t.1"}

    def test_shipped_model_keeps_binary_diamond(self, left_model):
        sp = split(left_model)
        f = parse("<a>^c(p, q)", VOC)
        assert eval_ternary(sp, "s.0", f)
        assert eval_ternary(sp, "s.1", f)

    def test_never_produces_same_copy_pairs(self):
        for m in seeded_models(120, 5, seed=100):
            sp = split(m)
            assert validate_ternary(sp) == []
            for triples in sp.tern.values():
                assert all(t != u for _, t, u in triples)

    def test_preserves_truth_on_both_copies(self):
        rng = random.Random(31)
        for m in seeded_models(100, 4, seed=2000):
            sp = split(m)
            f = random_formula(rng, VOC, depth=2, lang="MLKvR")
            for s in m.states:
                want = eval_ternary(m, s, f)
                assert eval_ternary(sp, f"{s}.0", f) == want
                assert eval_ternary(sp, f"{s}.1", f) == want

    def test_rejects_invalid_model(self):
        bad = make_ternary(VOC, ("s", "t"), {},
                           {("a", "c"): {("s", "t", "t")}}, {})
        with pytest.raises(Exception):
            split(bad)

    def test_split_of_a_valid_model_is_valid(self):
        # to_fo relies on this to skip checking the doubled model
        for trial, model, _, _ in criterion_4_cases():
            assert validate_ternary(split(model)) == [], trial


class TestUnravel:
    def test_depth_zero_is_a_single_state(self, left_model):
        un = unravel(left_model, "s", 0)
        assert un.states == ("s",)
        assert all(not v for v in un.rel.values())
        assert all(not v for v in un.tern.values())
        assert eval_ternary(un, "s", parse("p", VOC)) == eval_ternary(
            left_model, "s", parse("p", VOC))

    def test_cycle_unravels_to_a_path(self):
        m = make_ternary(VOC1, ("s", "t"),
                         {"a": {("s", "t"), ("t", "s")}}, {}, {})
        un = unravel(m, "s", 3)
        assert len(un.states) == 4
        edges = [e for v in un.rel.values() for e in v]
        assert len(edges) == 3

    def test_split_left_model_keeps_diamond_at_depth_one(self, left_model):
        un = unravel(split(left_model), "s.0", 1)
        assert eval_ternary(un, "s.0", parse("<a>^c(p, q)", VOC))

    def test_output_is_a_tree(self):
        for m in seeded_models(100, 5, seed=400):
            root = m.states[0]
            un = unravel(m, root, 2)
            assert validate_ternary(un) == []
            preds = {}
            for agent, pairs in un.rel.items():
                for (s, t) in pairs:
                    assert t not in preds, "second predecessor"
                    preds[t] = (agent, s)
            edge_count = sum(len(v) for v in un.rel.values())
            assert edge_count == len(un.states) - 1
            assert root not in preds
            assert set(preds) == set(un.states) - {root}

    def test_truth_preserved_up_to_depth(self):
        rng = random.Random(37)
        for m in seeded_models(80, 4, seed=3000):
            root = m.states[0]
            f = random_formula(rng, VOC, depth=2, lang="MLKvR")
            un = unravel(m, root, max(modal_depth(f), 2))
            assert (eval_ternary(un, root, f)
                    == eval_ternary(m, root, f))

    def test_negative_depth_rejected(self, left_model):
        with pytest.raises(Exception):
            unravel(left_model, "s", -1)


    def test_separators_in_state_names_are_escaped(self):
        # unescaped, the path to x.0/a:y.0 would be named like the path
        # through x.0 to y.0
        states = ("r", "x", "y", "x.0/a:y")
        m = make_ternary(VOC1, states,
                         {"a": {("r", "x"), ("x", "y"), ("r", "x.0/a:y")}},
                         {("a", "c"): {("r", "x", "x.0/a:y"),
                                       ("r", "x.0/a:y", "x")}},
                         {"y": {"p"}, "x.0/a:y": {"p"}})
        fo, root = to_fo(m, "r", 2)
        assert root == "r.0"
        assert {"r.0/a:x.0/a:y.0", "r.0/a:x.0\\/a\\:y.0"} <= set(fo.states)
        rng = random.Random(4)
        for _ in range(200):
            f = random_formula(rng, VOC1, 2, lang="ELKvR")
            assert eval_fo(fo, root, f) == eval_ternary(m, "r", translate_T(f)), f


class TestAssignValues:
    def test_sibling_triple_forces_distinct_values(self, left_model):
        un = unravel(split(left_model), "s.0", 1)
        fo, root = assign_values(un)
        t0 = f"{root}/a:t.0"
        u0 = f"{root}/a:u.0"
        v0 = f"{root}/a:v.0"
        assert ("a", "c") in un.tern and (root, t0, u0) in un.tern[("a", "c")]
        assert fo.vc[("c", t0)] != fo.vc[("c", u0)]
        # t and v are never related by a triple, so they share a class
        assert (root, t0, v0) not in un.tern[("a", "c")]
        assert fo.vc[("c", t0)] == fo.vc[("c", v0)]

    def test_untripled_siblings_share_a_value(self):
        voc = VOC1
        tree = make_ternary(voc, ("r", "x", "y"),
                            {"a": {("r", "x"), ("r", "y")}}, {}, {})
        fo, _ = assign_values(tree)
        assert fo.vc[("c", "x")] == fo.vc[("c", "y")]

    def test_separate_subtrees_fall_in_distinct_classes(self):
        tree = make_ternary(VOC1, ("r", "x", "y", "x1", "y1"),
                            {"a": {("r", "x"), ("r", "y"),
                                   ("x", "x1"), ("y", "y1")}}, {}, {})
        fo, root = assign_values(tree)
        assert root == "r"
        assert fo.vc[("c", "x")] == fo.vc[("c", "y")]
        assert fo.vc[("c", "x1")] != fo.vc[("c", "y1")]

    def test_sibling_values_differ_exactly_on_triples(self):
        for m in seeded_models(60, 4, seed=600):
            un = unravel(split(m), f"{m.states[0]}.0", 2)
            fo, _ = assign_values(un)
            children = {}
            for agent, pairs in un.rel.items():
                for (s, t) in pairs:
                    children.setdefault((agent, s), []).append(t)
            for (agent, s), kids in children.items():
                for constant in m.vocab.constants:
                    triples = un.tern.get((agent, constant), frozenset())
                    for t in kids:
                        for u in kids:
                            if t == u:
                                continue
                            differs = (fo.vc[(constant, t)]
                                       != fo.vc[(constant, u)])
                            assert differs == ((s, t, u) in triples)

    def test_rejects_non_tree(self):
        m = make_ternary(VOC1, ("s", "t"),
                         {"a": {("s", "t"), ("t", "s")}}, {}, {})
        with pytest.raises(ValueError, match="^model is not a rooted tree$"):
            assign_values(m)

    FORK = {"a": {("r", "x"), ("r", "y"), ("r", "z")}}

    @pytest.mark.parametrize("states, rel, tern, message", [
        # w and z both have two predecessors; w comes first in state order
        (("r", "x", "w", "z"),
         {"a": {("r", "x"), ("r", "w"), ("r", "z"), ("x", "z"), ("x", "w")}},
         {}, "state 'w' has two predecessors"),
        (("r", "x"), {"a": {("r", "x"), ("r", "r")}}, {},
         "state 'r' loops on itself"),
        (("r", "x", "y"), {"a": {("r", "x")}}, {}, "model is not a rooted tree"),
        (("r", "x", "y", "z"), FORK, {("a", "c"): {("r", "x", "x")}},
         "triple (r, x, x) relates a state to itself"),
        # neither triple joins a state to two of its children; the first
        # in state order is named
        (("r", "x", "y", "z"), {"a": {("r", "x"), ("r", "y"), ("x", "z")}},
         {("a", "c"): {("x", "z", "y"), ("r", "x", "z")}},
         "triple (r, x, z) is not parent-children"),
        # x~y and y~z are glued, x and z are related
        (("r", "x", "y", "z"), FORK,
         {("a", "c"): {("r", "x", "z"), ("r", "z", "x")}},
         "related pair (x, z) got one value for 'c'"),
        # only the later-to-earlier orientation is related, so x~y is glued
        (("r", "x", "y", "z"), FORK, {("a", "c"): {("r", "y", "x")}},
         "related pair (y, x) got one value for 'c'"),
        # one parentless state and n - 1 edges, but x and y form a cycle
        (("r", "x", "y"), {"a": {("x", "y"), ("y", "x")}}, {},
         "state 'x' is not reachable from the root"),
    ])
    def test_rejections_name_the_first_offender(self, states, rel, tern,
                                                message):
        model = make_ternary(VOC1, states, rel, tern, {})
        with pytest.raises(ValueError) as caught:
            assign_values(model)
        assert str(caught.value) == message


class TestToFo:
    def test_invalid_input_raises_splits_message(self):
        bad = make_ternary(VOC, ("s", "t"), {},
                           {("a", "c"): {("s", "t", "t")}}, {})
        with pytest.raises(ValueError) as by_split:
            split(bad)
        with pytest.raises(ValueError) as by_to_fo:
            to_fo(bad, "s", 2)
        assert str(by_to_fo.value) == str(by_split.value) == (
            "input model breaks frame conditions: "
            "INCL fails for agent a, constant c at (s, t, t)")

    def test_shipped_model_refutes_kv_at_root(self, left_model):
        fo, root = to_fo(left_model, "s", 2)
        f = parse("Kv[a]((p | q), c)", VOC)
        assert not eval_fo(fo, root, f)
        tern_side = eval_ternary(left_model, "s", translate_T(f))
        assert eval_fo(fo, root, f) == tern_side

    def test_isolated_state_knows_every_value(self):
        m = make_ternary(VOC, ("s",), {}, {}, {})
        fo, root = to_fo(m, "s", 3)
        assert len(fo.states) == 1
        for text in ("Kv[a](p, c)", "Kv[a](T, c)", "Kv[a](F, c)"):
            assert eval_fo(fo, root, parse(text, VOC))

    def test_reflexive_pair_splits_into_two_values(self):
        fo, root = to_fo(reflexive_pair_model(), "s", 1)
        copies = [s for s in fo.states if s != root]
        assert len(copies) == 2
        v1, v2 = (fo.vc[("c", s)] for s in copies)
        assert v1 != v2
        assert not eval_fo(fo, root, parse("Kv[a](T, c)", VOC1))

    def test_truth_preserved_at_root(self):
        rng = random.Random(41)
        for m in seeded_models(60, 4, seed=5000):
            s = m.states[0]
            f = random_formula(rng, VOC, depth=2, lang="ELKvR")
            g = translate_T(f)
            fo, root = to_fo(m, s, max(modal_depth(g), 1))
            assert eval_fo(fo, root, f) == eval_ternary(m, s, g)

    def test_round_trip_ternary_matches_unraveled_split(self):
        for m in seeded_models(40, 4, seed=800):
            s = m.states[0]
            un = unravel(split(m), f"{s}.0", 2)
            fo, root = to_fo(m, s, 2)
            assert root == f"{s}.0"
            derived = derive_ternary(fo)
            assert derived.tern == un.tern
