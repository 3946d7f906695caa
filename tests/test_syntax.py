import copy
import os
import pathlib
import pickle
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kvlog
from kvlog.models import GenParams, generate_direct
from kvlog.semantics import eval_ternary
from kvlog.syntax import (And, BBoxB, BBoxU, Box, KvCond, LanguageError, Neg,
                          ParseError, Prop, Top, Vocabulary, big_and, big_or,
                          bot, dia, dia_b, dia_u, embed_unary, f_or, iff, imp,
                          language_of, modal_depth, nn_normalize, occurrences,
                          parse, parse_infer, print_formula, random_formula,
                          reduce_r, replace_at, substitute, subterm_at,
                          subterms, translate_T, translate_T_inv)

from oracles import oracle_equal, oracle_eval

VOC = Vocabulary(("a", "b"), ("p", "q"), ("c", "d"))
VOC4 = Vocabulary(("a",), ("p", "q", "r", "s"), ("c",))
P, Q = Prop("p"), Prop("q")


def walk(f):
    yield f
    for attr in ("sub", "left", "right"):
        child = getattr(f, attr, None)
        if child is not None:
            yield from walk(child)


class TestParse:
    def test_kv_conditional(self):
        assert parse("Kv[a](p, c)", VOC) == KvCond("a", P, "c")

    def test_unary_value_box(self):
        assert parse("[a]^c ~p", VOC) == BBoxU("a", "c", Neg(P))

    def test_binary_diamond_desugars(self):
        assert parse("<a>^c(p, q)", VOC) == Neg(
            BBoxB("a", "c", Neg(P), Neg(Q)))

    def test_kv_sugar_for_top(self):
        assert parse("Kv[a](c)", VOC) == KvCond("a", Top(), "c")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse("zz", VOC)

    def test_arity_error(self):
        with pytest.raises(ParseError):
            parse("Kv[a](p, q, c)", VOC)

    def test_precedence(self):
        assert parse("~p & q -> r", VOC4) == imp(And(Neg(P), Q), Prop("r"))


class TestPrint:
    def test_unary_box_top(self):
        assert print_formula(BBoxU("a", "c", Top())) == "[a]^c T"

    def test_dual_resugaring(self):
        f = Neg(BBoxB("a", "c", Neg(P), Neg(Q)))
        assert print_formula(f) == "<a>^c(p, q)"

    def test_conjunction(self):
        assert print_formula(And(P, Box("a", Q))) == "(p & [a]q)"

    def test_round_trip_examples(self):
        for text in ("Kv[a](~p, c)", "([a]^c(p, q) -> <b>^d T)",
                     "(p <-> ~(q | [b]p))"):
            f = parse(text, VOC)
            assert parse(print_formula(f), VOC) == f


class TestLanguageOf:
    def test_kv_is_elkvr(self):
        assert language_of(KvCond("a", P, "c")) == {"ELKvR"}

    def test_bot_box_is_mlkv_too(self):
        assert language_of(BBoxU("a", "c", Neg(Top()))) == {"MLKvR", "MLKv"}

    def test_binary_box(self):
        assert language_of(BBoxB("a", "c", P, Q)) == {"MLKvB"}

    def test_plain_modal_core(self):
        tags = language_of(Box("a", P))
        assert {"MLKvR", "MLKvB", "MLKv"} <= tags


class TestTranslateT:
    def test_kv_clause(self):
        assert translate_T(KvCond("a", P, "c")) == BBoxU("a", "c", Neg(P))

    def test_know_clause(self):
        assert translate_T(Box("a", P)) == Box("a", P)

    def test_composition(self):
        f = Neg(KvCond("a", Top(), "c"))
        assert translate_T(f) == Neg(BBoxU("a", "c", Neg(Top())))

    def test_rejects_binary(self):
        with pytest.raises(LanguageError):
            translate_T(BBoxB("a", "c", P, Q))


class TestTranslateTInv:
    def test_negated_argument(self):
        assert translate_T_inv(BBoxU("a", "c", Neg(P))) == KvCond("a", P, "c")

    def test_plain_argument(self):
        assert translate_T_inv(BBoxU("a", "c", P)) == KvCond("a", Neg(P), "c")

    def test_know_clause(self):
        assert translate_T_inv(Box("a", P)) == Box("a", P)

    def test_rejects_elkvr(self):
        with pytest.raises(LanguageError):
            translate_T_inv(KvCond("a", P, "c"))


class TestEmbedUnary:
    def test_diamond(self):
        assert embed_unary(dia_u("a", "c", P)) == dia_b("a", "c", P, P)

    def test_no_value_modality(self):
        assert embed_unary(Box("a", P)) == Box("a", P)

    def test_box(self):
        assert embed_unary(BBoxU("a", "c", Neg(Q))) == BBoxB(
            "a", "c", Neg(Q), Neg(Q))


def diamond_expansion(phi, psi):
    return big_or([
        And(dia_u("a", "c", phi), dia("a", psi)),
        And(dia_u("a", "c", psi), dia("a", phi)),
        big_and([dia("a", phi), dia("a", psi),
                 Neg(dia_u("a", "c", phi)), Neg(dia_u("a", "c", psi)),
                 dia_u("a", "c", f_or(phi, psi))]),
    ])


class TestReduceR:
    def test_binary_diamond_expansion(self):
        assert reduce_r(parse("<a>^c(p, q)", VOC)) == diamond_expansion(P, Q)

    def test_no_binary_modality_untouched(self):
        f = parse("(p & [a]q)", VOC)
        assert reduce_r(f) == f

    def test_diagonal_reduces_to_unary(self):
        # the expansion with equal arguments agrees with the plain unary
        # diamond on every small valid model
        reduced = reduce_r(parse("<a>^c(p, p)", VOC))
        unary = dia_u("a", "c", P)
        small = Vocabulary(("a",), ("p",), ("c",))
        from oracles import enumerate_small_models
        for n in (1, 2):
            states = [f"s{k}" for k in range(n)]
            for model in enumerate_small_models(small, states, "p"):
                for s in model.states:
                    assert (oracle_eval(model, s, reduced)
                            == oracle_eval(model, s, unary))
        rng = random.Random(11)
        for k in range(200):
            model = generate_direct(GenParams(small, 3, rng.random(), 2,
                                              seed=1000 + k))
            for s in model.states:
                assert (oracle_eval(model, s, reduced)
                        == oracle_eval(model, s, unary))

    def test_output_has_no_mixed_binary_box(self):
        rng = random.Random(5)
        for _ in range(300):
            f = random_formula(rng, VOC, depth=3, lang="MLKvB")
            for sub in walk(reduce_r(f)):
                if isinstance(sub, BBoxB):
                    assert sub.left == sub.right


class TestSharedSubterms:
    def test_reduction_at_depth_seven_is_small_as_a_graph(self):
        f, _ = parse_infer("[a]^c(" * 7 + "p" + ", q)" * 7)
        out = reduce_r(f)
        assert len(subterms(out)) == 346
        assert modal_depth(out) == 7
        assert language_of(out) == {"MLKvR"}

    @pytest.mark.parametrize("fn, x", [
        (translate_T, KvCond("a", Neg(P), "c")),
        (translate_T_inv, BBoxU("a", "c", Neg(Neg(P)))),
        (embed_unary, BBoxU("a", "c", P)),
        (reduce_r, BBoxB("a", "c", P, Neg(Q))),
        (nn_normalize, Neg(Neg(Box("a", P)))),
        (lambda f: substitute(f, {"p": Box("b", Q)}), And(P, Box("a", P))),
    ], ids=["T", "T_inv", "embed", "reduce", "nn", "substitute"])
    def test_a_shared_argument_is_mapped_once(self, fn, x):
        out = fn(And(x, x))
        assert out.left is out.right
        assert out == And(fn(x), fn(x))

    def test_size_cap_is_checked_on_the_graph(self):
        f = P
        for _ in range(60):
            f = And(f, f)
        assert modal_depth(f) == 0 and language_of(f) == {
            "ELKvR", "MLKvR", "MLKvB", "MLKv"}
        with pytest.raises(ValueError, match="over the cap of 1,000,000"):
            print_formula(f)

    @pytest.mark.parametrize("fn, language, outer", [
        (translate_T, "ELKvR", BBoxU("a", "c", BBoxB("a", "c", P, Q))),
        (translate_T_inv, "MLKvR", KvCond("a", BBoxB("a", "c", P, Q), "c")),
        (embed_unary, "MLKvR", BBoxB("a", "c", KvCond("a", P, "c"), Q)),
        (reduce_r, "MLKvB", KvCond("a", KvCond("b", P, "d"), "c")),
    ])
    def test_language_errors_name_the_first_offender_in_preorder(
            self, fn, language, outer):
        f = And(Neg(outer), children_of(outer)[0])
        with pytest.raises(LanguageError, match=re.escape(
                f"not an {language} formula: {outer}")):
            fn(f)


def children_of(f):
    return [getattr(f, a) for a in ("sub", "left", "right") if hasattr(f, a)]


def positions(f, here=()):
    """Every tree position of f, in preorder."""
    yield here
    for k, child in enumerate(children_of(f)):
        yield from positions(child, here + (k,))


_OTHER = {"a": "b", "b": "a", "c": "d", "d": "c", "p": "q", "q": "p"}


def mutant(g):
    """g with one symbol or constructor changed, its children kept."""
    if isinstance(g, Top):
        return P
    if isinstance(g, Prop):
        return Prop(_OTHER[g.name])
    if isinstance(g, Neg):
        return Box("a", g.sub)
    if isinstance(g, And):
        return BBoxB("a", "c", g.left, g.right)
    if isinstance(g, Box):
        return Box(_OTHER[g.agent], g.sub)
    if isinstance(g, KvCond):
        return KvCond(g.agent, g.sub, _OTHER[g.constant])
    if isinstance(g, BBoxU):
        return BBoxU(g.agent, _OTHER[g.constant], g.sub)
    return BBoxB(_OTHER[g.agent], g.constant, g.left, g.right)


class TestStructuralEquality:
    @staticmethod
    def negations(f, depth):
        for _ in range(depth):
            f = Neg(f)
        return f

    def test_deep_chains_compare_and_hash_without_recursion(self):
        f, g = self.negations(P, 100_000), self.negations(Prop("p"), 100_000)
        assert f is not g and f == g and hash(f) == hash(g)
        assert g in {f} and f in {g}
        other = self.negations(Q, 100_000)
        assert f != other and not f == other and other not in {f, g}

    def test_each_pair_of_shared_subterms_is_compared_once(self):
        # x_k is one node per level; y_k and z_k are two equal nodes per
        # level, so the tree below x_100 has 2**100 paths
        x = y = z = P
        for _ in range(100):
            x, y, z = And(x, x), And(y, z), And(z, y)
        assert x == y and y == z and hash(x) == hash(y) == hash(z)
        assert x != And(y.left, Neg(z.right))

    @pytest.mark.parametrize("lang", ["ELKvR", "MLKvR", "MLKvB", "MLKv"])
    def test_equality_and_hash_agree_with_the_oracle(self, lang):
        rng = random.Random(lang)
        fs = [random_formula(rng, VOC, rng.randrange(5), lang)
              for _ in range(300)]
        for f, g in zip(fs, fs[1:]):
            copy = parse(print_formula(f), VOC)
            spots = list(positions(f))
            spot = spots[rng.randrange(len(spots))]
            node = subterm_at(f, spot)
            changed = replace_at(f, [spot], node, mutant(node))
            for x, y in ((f, g), (f, copy), (copy, f), (f, changed)):
                same = oracle_equal(x, y)
                assert (x == y) is same and (x != y) is not same
                assert hash(x) == hash(y) or not same
            assert oracle_equal(f, copy) and not oracle_equal(f, changed)
        kept = set(fs)
        assert all(parse(print_formula(f), VOC) in kept for f in fs)

    def test_deep_chains_repr_and_copy_without_recursion(self):
        f = self.negations(P, 100_000)
        results = []
        for fn in (repr, copy.copy, copy.deepcopy):
            try:
                results.append(fn(f))
            except RecursionError:    # kept out of the report: pytest
                results.append(None)  # compares every frame's locals
        assert results[0] == "Neg(sub=" * 100_000 + "Prop(name='p')" + ")" * 100_000
        assert results[1] is f and results[2] is f
        assert copy.deepcopy({"k": [f]})["k"][0] is f

    def test_repr_is_the_dataclass_repr(self):
        f = BBoxB("a", "c", Neg(Top()), And(Box("b", P), KvCond("a", Q, "d")))
        assert repr(f) == ("BBoxB(agent='a', constant='c', left=Neg(sub=Top()), "
                           "right=And(left=Box(agent='b', sub=Prop(name='p')), "
                           "right=KvCond(agent='a', sub=Prop(name='q'), "
                           "constant='d')))")
        assert repr(BBoxU("a", "c", P)) == "BBoxU(agent='a', constant='c', sub=Prop(name='p'))"

    def test_a_pickled_formula_is_found_in_another_process(self):
        f = random_formula(random.Random(11), VOC, 4, "MLKvB")
        hash(f)                       # cached on f before it is pickled
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        code = ("import pickle, sys\n"
                "from kvlog.syntax import Vocabulary, parse\n"
                "f = pickle.load(sys.stdin.buffer)\n"
                "vocab = Vocabulary(('a', 'b'), ('p', 'q'), ('c', 'd'))\n"
                "print(f in {parse(sys.argv[1], vocab)})\n")
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(pathlib.Path(kvlog.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code, print_formula(f)],
                              input=pickle.dumps(f), capture_output=True,
                              env=env, check=True)
        assert done.stdout == b"True\n"


class TestSubstitute:
    def test_into_implication(self):
        f = parse("(p -> p)", VOC)
        g = BBoxU("a", "c", Q)
        assert substitute(f, {"p": g}) == imp(g, g)

    def test_symmetry_axiom_instance(self):
        f = parse("([a]^c(p, q) -> [a]^c(q, p))", VOC4)
        rs = And(Prop("r"), Prop("s"))
        got = substitute(f, {"p": rs, "q": Top()})
        assert got == imp(BBoxB("a", "c", rs, Top()),
                          BBoxB("a", "c", Top(), rs))

    def test_identity(self):
        f = parse("([a]p <-> Kv[b](q, d))", VOC)
        assert substitute(f, {"p": P, "q": Q}) == f


class TestReplaceAt:
    def test_single_occurrence(self):
        f = And(P, P)
        assert replace_at(f, [(0,)], P, Q) == And(Q, P)

    def test_all_occurrences(self):
        f = And(P, P)
        assert replace_at(f, occurrences(f, P), P, Q) == And(Q, Q)

    def test_no_positions(self):
        f = And(P, P)
        assert replace_at(f, [], P, Q) == f

    def test_wrong_subterm_rejected(self):
        with pytest.raises(Exception):
            replace_at(And(P, Q), [(1,)], P, Q)


class TestModalDepth:
    def test_atomic(self):
        assert modal_depth(P) == 0

    def test_nested_box_diamond(self):
        assert modal_depth(parse("[a]<a>^c(p, q)", VOC)) == 2

    def test_kv_counts_one_step(self):
        assert modal_depth(KvCond("a", Box("a", P), "c")) == 2


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**6), depth=st.integers(0, 4),
       lang=st.sampled_from(["ELKvR", "MLKvR", "MLKvB", "MLKv"]))
def test_parse_print_round_trip(seed, depth, lang):
    f = random_formula(random.Random(seed), VOC, depth, lang)
    assert parse(print_formula(f), VOC) == f


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), depth=st.integers(0, 4))
def test_translation_round_trip(seed, depth):
    f = random_formula(random.Random(seed), VOC, depth, "ELKvR")
    back = translate_T_inv(translate_T(f))
    assert nn_normalize(back) == nn_normalize(f)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_parse_infer_matches_parse(seed):
    f = random_formula(random.Random(seed), VOC, 3, "MLKvB")
    text = print_formula(f)
    g, voc = parse_infer(text)
    assert g == parse(text, voc)


def test_embed_unary_is_truth_preserving():
    small = Vocabulary(("a",), ("p", "q"), ("c",))
    rng = random.Random(7)
    for k in range(150):
        model = generate_direct(GenParams(small, 1 + k % 4, rng.random(), 2,
                                          seed=k))
        f = random_formula(rng, small, depth=2, lang="MLKvR")
        for s in model.states:
            assert (eval_ternary(model, s, f)
                    == eval_ternary(model, s, embed_unary(f)))


def test_reduce_r_is_truth_preserving():
    small = Vocabulary(("a",), ("p", "q"), ("c",))
    rng = random.Random(9)
    for k in range(150):
        model = generate_direct(GenParams(small, 1 + k % 4, rng.random(), 2,
                                          seed=5000 + k))
        f = random_formula(rng, small, depth=2, lang="MLKvB")
        g = reduce_r(f)
        for s in model.states:
            assert (eval_ternary(model, s, f) == eval_ternary(model, s, g)
                    == oracle_eval(model, s, g))


def test_helpers_desugar_consistently():
    assert bot() == Neg(Top())
    assert f_or(P, Q) == Neg(And(Neg(P), Neg(Q)))
    assert imp(P, Q) == Neg(And(P, Neg(Q)))
    assert iff(P, Q) == And(imp(P, Q), imp(Q, P))
    assert dia("a", P) == Neg(Box("a", Neg(P)))
    assert subterm_at(And(P, Q), (1,)) == Q
