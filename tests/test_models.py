import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvlog.bisim import check_bisimulation
from kvlog.models import (GenParams, derive_ternary, dump_model,
                          generate_direct, generate_value_induced,
                          json_to_model, load_model, make_fo, make_ternary,
                          model_to_json, related, successors,
                          validate_ternary)
from kvlog.syntax import Vocabulary

from oracles import oracle_violations

VOC = Vocabulary(("a",), ("p", "q"), ("c",))


def agrees_with_oracle(model):
    got = {(v.cond, v.agent, v.constant, v.witness)
           for v in validate_ternary(model)}
    want = set(oracle_violations(model))
    assert got == want, (got, want)
    return got


class TestValidateTernary:
    def test_shipped_left_model_is_valid(self, left_model):
        assert validate_ternary(left_model) == []
        assert oracle_violations(left_model) == []

    def test_missing_edge_is_incl_violation(self):
        m = make_ternary(VOC, ("s", "t", "u"),
                         {"a": {("s", "t")}},
                         {("a", "c"): {("s", "t", "u"), ("s", "u", "t")}},
                         {})
        got = agrees_with_oracle(m)
        assert ("INCL", "a", "c", ("s", "t", "u")) in got
        assert all(cond == "INCL" for cond, *_ in got)

    def test_unmatched_successor_is_ateuc_violation(self):
        m = make_ternary(VOC, ("s", "t", "u", "v"),
                         {"a": {("s", "t"), ("s", "u"), ("s", "v")}},
                         {("a", "c"): {("s", "t", "u"), ("s", "u", "t")}},
                         {})
        got = agrees_with_oracle(m)
        assert ("ATEUC", "a", "c", ("s", "t", "u", "v")) in got
        assert all(cond == "ATEUC" for cond, *_ in got)

    def test_missing_mirror_is_sym_violation(self):
        m = make_ternary(VOC, ("s", "t", "u"),
                         {"a": {("s", "t"), ("s", "u")}},
                         {("a", "c"): {("s", "t", "u")}},
                         {})
        got = agrees_with_oracle(m)
        assert ("SYM", "a", "c", ("s", "t", "u")) in got

    def test_describe_names_the_witness(self):
        m = make_ternary(VOC, ("s", "t"), {"a": set()},
                         {("a", "c"): {("s", "t", "t")}}, {})
        texts = [v.describe() for v in validate_ternary(m)]
        assert any("INCL" in t and "s, t, t" in t for t in texts)


class TestDeriveTernary:
    def test_disagreeing_successors_are_related(self):
        f = make_fo(VOC, ("s", "t", "u"), {"a": {("s", "t"), ("s", "u")}},
                    {}, (1, 2), {("c", "s"): 1, ("c", "t"): 1, ("c", "u"): 2})
        m = derive_ternary(f)
        assert m.tern[("a", "c")] == {("s", "t", "u"), ("s", "u", "t")}

    def test_agreeing_successors_are_not(self):
        f = make_fo(VOC, ("s", "t", "u"), {"a": {("s", "t"), ("s", "u")}},
                    {}, (1, 2), {("c", "s"): 1, ("c", "t"): 2, ("c", "u"): 2})
        m = derive_ternary(f)
        assert m.tern[("a", "c")] == frozenset()

    def test_reflexive_state_never_differs_from_itself(self):
        f = make_fo(VOC, ("s",), {"a": {("s", "s")}}, {}, (1,),
                    {("c", "s"): 1})
        assert derive_ternary(f).tern[("a", "c")] == frozenset()

    def test_derived_models_always_validate(self):
        rng = random.Random(3)
        for k in range(200):
            fo, tern = generate_value_induced(
                GenParams(VOC, 1 + k % 6, rng.random(), 1 + k % 3, seed=k))
            assert tern == derive_ternary(fo)
            assert validate_ternary(tern) == []


class TestGenerateValueInduced:
    def test_single_value_gives_empty_ternary(self):
        _, tern = generate_value_induced(GenParams(VOC, 5, 0.8, 1, seed=2))
        assert all(not v for v in tern.tern.values())

    def test_zero_density_gives_empty_relations(self):
        fo, tern = generate_value_induced(GenParams(VOC, 5, 0.0, 3, seed=2))
        assert all(not v for v in fo.rel.values())
        assert all(not v for v in tern.tern.values())

    def test_seed_determinism(self):
        a = generate_value_induced(GenParams(VOC, 6, 0.5, 3, seed=41))
        b = generate_value_induced(GenParams(VOC, 6, 0.5, 3, seed=41))
        assert a == b


class TestGenerateDirect:
    def test_all_draws_validate(self):
        rng = random.Random(8)
        for k in range(200):
            m = generate_direct(GenParams(VOC, 1 + k % 6, rng.random(),
                                          2, seed=k))
            assert validate_ternary(m) == []

    def test_reflexive_pair_triples_occur_and_validate(self):
        seen = False
        for seed in range(60):
            m = generate_direct(GenParams(VOC, 3, 0.7, 2, seed=seed))
            for triples in m.tern.values():
                if any(t == u for _, t, u in triples):
                    seen = True
                    assert validate_ternary(m) == []
        assert seen, "no seed produced a same-successor triple"

    def test_zero_density_gives_empty_ternary(self):
        m = generate_direct(GenParams(VOC, 4, 0.0, 2, seed=1))
        assert all(not v for v in m.tern.values())

    def test_seed_determinism(self):
        assert (generate_direct(GenParams(VOC, 5, 0.6, 2, seed=9))
                == generate_direct(GenParams(VOC, 5, 0.6, 2, seed=9)))


class TestSerialization:
    def test_json_round_trip_ternary(self, left_model):
        data = model_to_json(left_model)
        back, notes = json_to_model(json.loads(json.dumps(data)))
        assert back == left_model
        assert notes == []

    def test_json_round_trip_fo(self):
        fo, _ = generate_value_induced(GenParams(VOC, 4, 0.5, 2, seed=12))
        back, notes = json_to_model(model_to_json(fo))
        assert back == fo
        assert notes == []

    def test_loader_closes_sym_omissions(self, left_model, tmp_path):
        data = model_to_json(left_model)
        kept, dropped = [], 0
        for (s, t, u) in data["tern"]["a,c"]:
            if (u, t, s) != (s, t, u) and [s, u, t] in kept:
                dropped += 1
                continue
            kept.append([s, t, u])
        assert dropped
        data["tern"]["a,c"] = kept
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        back, notes = load_model(str(path))
        assert back == left_model
        assert any("sym" in n.lower() for n in notes)

    def test_unknown_symbol_is_an_error(self, left_model, tmp_path):
        data = model_to_json(left_model)
        data["val"]["s"] = ["nosuch"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        with pytest.raises(Exception):
            load_model(str(path))

    def test_dump_load_file(self, tmp_path):
        m = generate_direct(GenParams(VOC, 4, 0.5, 2, seed=77))
        path = tmp_path / "m.json"
        dump_model(m, str(path))
        back, _ = load_model(str(path))
        assert back == m


class TestStateOrderedView:
    """States listed out of name order: every ordered output follows the
    tuple ("s10", "s2", "s0", "s1"), not the names."""
    VOCAB = Vocabulary(("a", "b"), ("p",), ("c",))
    STATES = ("s10", "s2", "s0", "s1")
    REL = {"a": {("s1", "s0"), ("s1", "s10"), ("s0", "s2"), ("s0", "s1"),
                 ("s2", "s10"), ("s2", "s2"), ("s10", "s1"), ("s10", "s0"),
                 ("s10", "s2")},
           "b": {("s0", "s10"), ("s2", "s1"), ("s2", "s0")}}
    TERN = {("a", "c"): {("s10", "s1", "s0"), ("s10", "s0", "s1"),
                         ("s10", "s2", "s1"), ("s10", "s1", "s2"),
                         ("s1", "s10", "s0"), ("s1", "s0", "s10"),
                         ("s2", "s2", "s10"), ("s2", "s10", "s2")},
            ("b", "c"): {("s2", "s1", "s0"), ("s2", "s0", "s1")}}
    SUCC = {"a": {"s10": ["s2", "s0", "s1"], "s2": ["s10", "s2"],
                  "s0": ["s2", "s1"], "s1": ["s10", "s0"]},
            "b": {"s10": [], "s2": ["s0", "s1"], "s0": ["s10"], "s1": []}}

    def model(self):
        return make_ternary(self.VOCAB, self.STATES, self.REL, self.TERN,
                            {"s10": {"p"}, "s0": {"p"}})

    def test_successors_of_both_model_kinds(self):
        fo = make_fo(self.VOCAB, self.STATES, self.REL, {}, ["v"],
                     {("c", s): "v" for s in self.STATES})
        for m in (self.model(), fo):
            view = successors(m)
            assert view == self.SUCC
            assert [list(view[agent]) for agent in "ab"] == [list(self.STATES)] * 2

    def test_related(self):
        view = related(self.model())
        assert view == {
            ("a", "c"): {"s10": [("s2", "s1"), ("s0", "s1"), ("s1", "s2"),
                                 ("s1", "s0")],
                         "s2": [("s10", "s2"), ("s2", "s10")], "s0": [],
                         "s1": [("s10", "s0"), ("s0", "s10")]},
            ("b", "c"): {"s10": [], "s2": [("s0", "s1"), ("s1", "s0")],
                         "s0": [], "s1": []}}
        assert list(view[("a", "c")]) == list(self.STATES)

    def test_json_lists_follow_the_state_order(self):
        data = model_to_json(self.model())
        assert data["rel"] == {
            "a": [["s10", "s2"], ["s10", "s0"], ["s10", "s1"], ["s2", "s10"],
                  ["s2", "s2"], ["s0", "s2"], ["s0", "s1"], ["s1", "s10"],
                  ["s1", "s0"]],
            "b": [["s2", "s0"], ["s2", "s1"], ["s0", "s10"]]}
        assert data["tern"] == {
            "a,c": [["s10", "s2", "s1"], ["s10", "s0", "s1"],
                    ["s10", "s1", "s2"], ["s10", "s1", "s0"],
                    ["s2", "s10", "s2"], ["s2", "s2", "s10"],
                    ["s1", "s10", "s0"], ["s1", "s0", "s10"]],
            "b,c": [["s2", "s0", "s1"], ["s2", "s1", "s0"]]}

    def test_bisimulation_failures_follow_the_state_order(self):
        m = self.model()
        assert validate_ternary(m) == []
        assert [f.describe() for f in check_bisimulation(m, m, {("s2", "s1")})] == [
            "Zig fails at (s2, s1) on ('a', 's10')",
            "Zig fails at (s2, s1) on ('a', 's2')",
            "Zag fails at (s2, s1) on ('a', 's10')",
            "Zag fails at (s2, s1) on ('a', 's0')",
            "KvbZig fails at (s2, s1) on ('a', 'c', 's10', 's2')",
            "KvbZig fails at (s2, s1) on ('a', 'c', 's2', 's10')",
            "KvbZag fails at (s2, s1) on ('a', 'c', 's10', 's0')",
            "KvbZag fails at (s2, s1) on ('a', 'c', 's0', 's10')",
            "Zig fails at (s2, s1) on ('b', 's0')",
            "Zig fails at (s2, s1) on ('b', 's1')",
            "KvbZig fails at (s2, s1) on ('b', 'c', 's0', 's1')",
            "KvbZig fails at (s2, s1) on ('b', 'c', 's1', 's0')"]


def json_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, path + (key,))


def replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = replaced(node[path[0]], path[1:], value)
    return copy


SMALL_MODELS = [model_to_json(generate_direct(GenParams(VOC, 2, 0.8, 2, seed=3))),
                model_to_json(generate_value_induced(
                    GenParams(VOC, 2, 0.8, 2, seed=3))[0])]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from(["s0", "a", "p"]),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.sampled_from(["s0", "a", "a,c"]), kids,
                                    max_size=2)),
    max_leaves=6)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), value=JSON_VALUES)
def test_any_json_value_anywhere_decodes_or_is_a_value_error(data, value):
    raw = data.draw(st.sampled_from(SMALL_MODELS))
    path = data.draw(st.sampled_from(list(json_paths(raw))))
    try:
        json_to_model(replaced(raw, path, value))
    except ValueError:
        pass


class TestGenParams:
    def test_bounds_are_enforced(self):
        with pytest.raises(ValueError):
            GenParams(VOC, 0, 0.5, 1, seed=0)
        with pytest.raises(ValueError):
            GenParams(VOC, 1, 1.5, 1, seed=0)
        with pytest.raises(ValueError):
            GenParams(VOC, 1, 0.5, 0, seed=0)


def test_validator_agrees_with_oracle_on_generated_models():
    rng = random.Random(13)
    for k in range(200):
        m = generate_direct(GenParams(VOC, 1 + k % 4, rng.random(), 2,
                                      seed=300 + k))
        agrees_with_oracle(m)
        # also perturb: drop one triple orientation to break SYM sometimes
        for key, triples in m.tern.items():
            if triples:
                broken = dict(m.tern)
                broken[key] = frozenset(sorted(triples)[1:])
                m2 = make_ternary(m.vocab, m.states, m.rel, broken, m.val)
                agrees_with_oracle(m2)
            break
