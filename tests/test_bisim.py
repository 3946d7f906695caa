import json
import random
import sys

import pytest

from kvlog.bisim import (check_bisimulation, check_fo_bisimulation,
                         distinguishing_formula, greatest_bisim)
from kvlog.cli import main
from kvlog.models import (GenParams, derive_ternary, generate_direct,
                          generate_value_induced, make_ternary,
                          model_to_json, validate_ternary)
from kvlog.semantics import eval_ternary
from kvlog.syntax import (Neg, Prop, Top, Vocabulary, dia, language_of,
                          print_formula, random_formula)

VOC = Vocabulary(("a",), ("p", "q"), ("c",))
VOC1 = Vocabulary(("a",), ("p",), ("c",))
CRITERION_VOC = Vocabulary(("a", "b"), ("p", "q"), ("c", "d"))


def identity_pairs(model):
    return {(s, s) for s in model.states}


def model_pair(seed, max_states=4):
    rng = random.Random(seed)
    m1 = generate_direct(GenParams(VOC, 1 + rng.randrange(max_states),
                                   rng.random(), 2, seed=seed * 2 + 1))
    m2 = generate_direct(GenParams(VOC, 1 + rng.randrange(max_states),
                                   rng.random(), 2, seed=seed * 2 + 2))
    return m1, m2


def chain(n, prefix):
    """n states in a row: each has the next as its only successor and
    relates only (next, next); no proposition holds anywhere."""
    states = tuple(f"{prefix}{i}" for i in range(n))
    steps = set(zip(states, states[1:]))
    return make_ternary(VOC1, states, {"a": steps},
                        {("a", "c"): {(s, t, t) for s, t in steps}}, {})


def criterion_8_pair(trial):
    """The two models criterion 8 draws for a trial."""
    rng = random.Random(trial)
    m1 = generate_direct(GenParams(CRITERION_VOC, 1 + trial % 4, rng.random(),
                                   2, seed=2 * trial))
    m2 = generate_direct(GenParams(CRITERION_VOC, 1 + (trial // 4) % 4,
                                   rng.random(), 2, seed=2 * trial + 1))
    return m1, m2


def under_recursion_limit(limit, run):
    """run() with the recursion limit lowered to limit.  A RecursionError
    is returned as the class, not raised: pytest's report of a deep one
    does not finish."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        return run()
    except RecursionError:
        return RecursionError
    finally:
        sys.setrecursionlimit(old)


class TestCheckBisimulation:
    def test_identity_is_a_bisimulation(self, left_model):
        assert check_bisimulation(left_model, left_model,
                                  identity_pairs(left_model)) == []

    def test_shipped_pair_fails_value_zig(self, left_model, right_model):
        failures = check_bisimulation(left_model, right_model, {("s", "x")})
        hits = {(f.clause, f.detail) for f in failures}
        assert ("KvbZig", ("a", "c", "u", "v")) in hits

    def test_valuation_mismatch_is_inv_failure(self, left_model, right_model):
        failures = check_bisimulation(left_model, right_model, {("v", "y")})
        assert any(f.clause == "Inv" and f.pair == ("v", "y")
                   for f in failures)
        assert "Inv" in failures[0].describe()


class TestGreatestBisim:
    def test_contains_identity_on_same_model(self, left_model):
        res = greatest_bisim(left_model, left_model)
        assert identity_pairs(left_model) <= res.pairs

    def test_shipped_pair_roots_not_related(self, left_model, right_model):
        res = greatest_bisim(left_model, right_model)
        assert ("s", "x") not in res.pairs

    def test_duplicated_state_is_paired(self, left_model):
        m = left_model
        dup_of = "u"
        states = m.states + ("u2",)
        rel = {"a": set(m.rel["a"])}
        for (a, b) in m.rel["a"]:
            if b == dup_of:
                rel["a"].add((a, "u2"))
        tern = set(m.tern[("a", "c")])
        for tr in m.tern[("a", "c")]:
            for i in (1, 2):
                if tr[i] == dup_of:
                    alt = list(tr)
                    alt[i] = "u2"
                    tern.add(tuple(alt))
        val = {s: set(ps) for s, ps in m.val.items()}
        val["u2"] = set(m.val[dup_of])
        dup = make_ternary(m.vocab, states, rel, {("a", "c"): tern}, val)
        assert validate_ternary(dup) == []
        res = greatest_bisim(m, dup)
        assert ("u", "u2") in res.pairs
        assert ("s", "s") in res.pairs

    def test_result_is_itself_a_bisimulation(self):
        for seed in range(40):
            m1, m2 = model_pair(seed)
            res = greatest_bisim(m1, m2)
            if res.pairs:
                assert check_bisimulation(m1, m2, res.pairs) == []

    def test_symmetric_under_argument_swap(self):
        for seed in range(30):
            m1, m2 = model_pair(100 + seed)
            fwd = greatest_bisim(m1, m2).pairs
            bwd = greatest_bisim(m2, m1).pairs
            assert {(b, a) for (a, b) in fwd} == bwd

    def test_round_count_is_bounded(self):
        for seed in range(30):
            m1, m2 = model_pair(200 + seed)
            res = greatest_bisim(m1, m2)
            assert res.rounds <= len(m1.states) * len(m2.states) + 1


class TestDistinguishingFormula:
    def test_shipped_pair_gets_verified_witness(self, left_model,
                                                right_model):
        f = distinguishing_formula(left_model, "s", right_model, "x")
        assert f is not None
        assert "MLKvB" in language_of(f)
        assert eval_ternary(left_model, "s", f)
        assert not eval_ternary(right_model, "x", f)

    def test_propositional_difference_gives_a_literal(self):
        m1 = make_ternary(VOC1, ("s",), {}, {}, {"s": {"p"}})
        m2 = make_ternary(VOC1, ("s",), {}, {}, {})
        assert distinguishing_formula(m1, "s", m2, "s") == Prop("p")
        assert distinguishing_formula(m2, "s", m1, "s") == Neg(Prop("p"))

    def test_missing_successor_gives_diamond_top(self):
        m1 = make_ternary(VOC1, ("s", "t"), {"a": {("s", "t")}}, {}, {})
        m2 = make_ternary(VOC1, ("s",), {}, {}, {})
        assert distinguishing_formula(m1, "s", m2, "s") == dia("a", Top())

    def test_bisimilar_pair_gives_none(self):
        m1 = make_ternary(VOC1, ("s",), {}, {}, {})
        m2 = make_ternary(VOC1, ("x",), {}, {}, {})
        assert distinguishing_formula(m1, "s", m2, "x") is None


class TestDistinguishingFormulaText:
    # pinned text: a change here is a change of `kvlog bisim` output
    CRITERION_8 = {
        (0, "s0", "s0"): "p",
        (3, "s0", "s0"): "~q",
        (13, "s0", "s1"): "<a>(~p & ~q)",
        (30, "s0", "s2"): "<a>^c(~p, ~p)",
        (31, "s3", "s3"): "~<b>T",
        (44, "s0", "s1"): "~<a>^c(T, T)",
        (46, "s0", "s1"): "~<a>(~~q & ~~p)",
        (47, "s2", "s2"): "~<a>(~q & ~~p)",
        (63, "s3", "s0"): "<a>^d((~q & p), (~q & p))",
        (69, "s1", "s0"): "<a>^c(~q, ~q)",
        (79, "s0", "s0"): "~<a>^c(~~p, ~~p)",
        (79, "s3", "s2"): "~<a>^c((~p & ~q), (~p & ~q))",
        (126, "s1", "s1"): "~<a>^c(~q, ~q)",
        (134, "s2", "s0"): "~<a>^d((~~p & ~~q), (~~p & ~~q))",
        (140, "s0", "s0"): "<a>^c((~q & ~p), (~q & ~p))",
        (143, "s3", "s0"): "~<a>^d((~p & ~q), (~p & ~q))",
        (155, "s2", "s1"): "<a>^d((~p & q), (~p & q))",
        (167, "s0", "s1"): "<b>^d(T, T)",
        (183, "s3", "s1"): "~<a>^c((~q & ~p), (~q & ~p))",
        (191, "s2", "s1"): "~<a>(~~p & ~q)",
        (283, "s0", "s2"): "<a>^d((~q & ~p), (~q & ~p))",
    }

    @pytest.mark.parametrize("n", [16, 32])
    def test_chain_pair_text(self, n):
        f = distinguishing_formula(chain(n, "x"), "x0", chain(n + 1, "y"), "y0")
        assert print_formula(f) == "<a>" * (n - 1) + "~<a>T"

    def test_criterion_8_text(self):
        got = {}
        for (trial, s1, s2) in self.CRITERION_8:
            m1, m2 = criterion_8_pair(trial)
            got[(trial, s1, s2)] = print_formula(
                distinguishing_formula(m1, s1, m2, s2))
        assert got == self.CRITERION_8


class TestDeepReplay:
    LIMIT = 200

    def test_library_replay_needs_no_recursion(self):
        m1, m2 = chain(80, "x"), chain(81, "y")
        f = under_recursion_limit(
            self.LIMIT, lambda: distinguishing_formula(m1, "x0", m2, "y0"))
        assert f is not RecursionError, f"RecursionError at limit {self.LIMIT}"
        assert eval_ternary(m1, "x0", f) and not eval_ternary(m2, "y0", f)

    def test_cli_replay_needs_no_recursion(self, tmp_path, capsys):
        argv = ["bisim"]
        for n, prefix in ((80, "x"), (81, "y")):
            path = tmp_path / f"{prefix}.json"
            path.write_text(json.dumps(model_to_json(chain(n, prefix))))
            argv += [str(path), f"{prefix}0"]
        rc = under_recursion_limit(self.LIMIT, lambda: main(argv))
        assert rc is not RecursionError, f"RecursionError at limit {self.LIMIT}"
        out = capsys.readouterr().out
        assert rc == 1
        assert out.startswith("not bisimilar; true at x0, false at y0:\n")


class TestCheckFoBisimulation:
    def test_identity_is_accepted(self):
        fo, _ = generate_value_induced(GenParams(VOC, 4, 0.5, 2, seed=5))
        assert check_fo_bisimulation(fo, fo, identity_pairs(fo)) == []

    def test_matches_ternary_check_on_derived_models(self):
        rng = random.Random(43)
        for k in range(60):
            f1, t1 = generate_value_induced(
                GenParams(VOC, 1 + k % 4, rng.random(), 2, seed=k))
            f2, t2 = generate_value_induced(
                GenParams(VOC, 1 + (k + 1) % 4, rng.random(), 2,
                          seed=1000 + k))
            candidates = [identity_pairs(f1) if f1.states == f2.states
                          else set(),
                          greatest_bisim(t1, t2).pairs,
                          {(f1.states[0], f2.states[0])}]
            for z in candidates:
                if not z:
                    continue
                fo_ok = check_fo_bisimulation(f1, f2, z) == []
                tern_ok = check_bisimulation(t1, t2, z) == []
                assert fo_ok == tern_ok

    def test_value_difference_must_be_matched(self):
        from kvlog.models import make_fo
        f1 = make_fo(VOC, ("s", "t", "u"),
                     {"a": {("s", "t"), ("s", "u")}}, {}, (1, 2),
                     {("c", "s"): 1, ("c", "t"): 1, ("c", "u"): 2})
        f2 = make_fo(VOC, ("x", "y"), {"a": {("x", "y")}}, {}, (1,),
                     {("c", "x"): 1, ("c", "y"): 1})
        z = {("s", "x"), ("t", "y"), ("u", "y")}
        failures = check_fo_bisimulation(f1, f2, z)
        assert any(f.clause == "KvrZig" for f in failures)

    def test_vocabularies_must_match(self):
        fo, _ = generate_value_induced(GenParams(VOC, 2, 0.5, 2, seed=5))
        other, _ = generate_value_induced(GenParams(VOC1, 2, 0.5, 2, seed=5))
        with pytest.raises(ValueError, match="different vocabularies"):
            check_fo_bisimulation(fo, other, {(fo.states[0], other.states[0])})


def test_bisimilar_states_agree_and_others_are_distinguished():
    rng = random.Random(47)
    for seed in range(80):
        m1, m2 = model_pair(300 + seed)
        res = greatest_bisim(m1, m2)
        for (s1, s2) in sorted(res.pairs):
            for _ in range(10):
                f = random_formula(rng, VOC, depth=2, lang="MLKvB")
                assert eval_ternary(m1, s1, f) == eval_ternary(m2, s2, f)
        for s1 in m1.states:
            for s2 in m2.states:
                if (s1, s2) in res.pairs:
                    continue
                f = distinguishing_formula(m1, s1, m2, s2)
                assert f is not None
                assert eval_ternary(m1, s1, f)
                assert not eval_ternary(m2, s2, f)
