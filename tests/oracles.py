"""Independent oracles used to cross-check package results.

Everything here is written directly from the definitions — naive loops,
no sharing of code with the package's own validators or evaluators — so
that the two code paths can disagree when either one is wrong.
"""

from itertools import combinations, product

from kvlog.models import TernaryModel
from kvlog.syntax import (And, BBoxB, BBoxU, Box, Formula, KvCond, Neg, Prop,
                          Top, Vocabulary)


# --- frame conditions --------------------------------------------------------

def oracle_violations(model):
    """All SYM/INCL/ATEUC breaches, by brute-force quantifier scan."""
    out = []
    for (agent, constant), triples in sorted(model.tern.items()):
        edges = model.rel.get(agent, frozenset())
        for (s, t, u) in sorted(triples):
            if (s, u, t) not in triples:
                out.append(("SYM", agent, constant, (s, t, u)))
            if (s, t) not in edges or (s, u) not in edges:
                out.append(("INCL", agent, constant, (s, t, u)))
            for v in model.states:
                if (s, v) in edges:
                    if (s, t, v) not in triples and (s, u, v) not in triples:
                        out.append(("ATEUC", agent, constant, (s, t, u, v)))
    return out


# --- structural equality ----------------------------------------------------

def oracle_equal(f, g):
    """Same constructor, same symbols, equal children in order, by plain
    recursion."""
    if type(f) is not type(g):
        return False
    if isinstance(f, Top):
        return True
    if isinstance(f, Prop):
        return f.name == g.name
    if isinstance(f, Neg):
        return oracle_equal(f.sub, g.sub)
    if isinstance(f, And):
        return oracle_equal(f.left, g.left) and oracle_equal(f.right, g.right)
    if isinstance(f, Box):
        return f.agent == g.agent and oracle_equal(f.sub, g.sub)
    if isinstance(f, (KvCond, BBoxU)):
        return (f.agent == g.agent and f.constant == g.constant
                and oracle_equal(f.sub, g.sub))
    if isinstance(f, BBoxB):
        return (f.agent == g.agent and f.constant == g.constant
                and oracle_equal(f.left, g.left)
                and oracle_equal(f.right, g.right))
    raise TypeError(f"not a formula: {f!r}")


# --- evaluation --------------------------------------------------------------

def oracle_eval(model, state, f):
    """Ternary-model truth, written from the satisfaction clauses."""
    if isinstance(f, Top):
        return True
    if isinstance(f, Prop):
        return f.name in model.val.get(state, frozenset())
    if isinstance(f, Neg):
        return not oracle_eval(model, state, f.sub)
    if isinstance(f, And):
        return (oracle_eval(model, state, f.left)
                and oracle_eval(model, state, f.right))
    if isinstance(f, Box):
        return all(oracle_eval(model, t, f.sub)
                   for (s, t) in model.rel.get(f.agent, frozenset())
                   if s == state)
    if isinstance(f, BBoxU):
        # dual of: some related pair jointly satisfies the negation
        for (s, u, v) in model.tern.get((f.agent, f.constant), frozenset()):
            if s == state:
                if (not oracle_eval(model, u, f.sub)
                        and not oracle_eval(model, v, f.sub)):
                    return False
        return True
    if isinstance(f, BBoxB):
        for (s, u, v) in model.tern.get((f.agent, f.constant), frozenset()):
            if s == state:
                if (not oracle_eval(model, u, f.left)
                        and not oracle_eval(model, v, f.right)):
                    return False
        return True
    raise ValueError(f"not a ternary-model formula: {f!r}")


def oracle_eval_fo(model, state, f):
    """FO-model truth, written from the satisfaction clauses."""
    if isinstance(f, Top):
        return True
    if isinstance(f, Prop):
        return f.name in model.val.get(state, frozenset())
    if isinstance(f, Neg):
        return not oracle_eval_fo(model, state, f.sub)
    if isinstance(f, And):
        return (oracle_eval_fo(model, state, f.left)
                and oracle_eval_fo(model, state, f.right))
    if isinstance(f, Box):
        return all(oracle_eval_fo(model, t, f.sub)
                   for (s, t) in model.rel.get(f.agent, frozenset())
                   if s == state)
    if isinstance(f, KvCond):
        succ = [t for (s, t) in model.rel.get(f.agent, frozenset())
                if s == state]
        holds = [t for t in succ if oracle_eval_fo(model, t, f.sub)]
        return all(model.vc[(f.constant, t)] == model.vc[(f.constant, u)]
                   for t in holds for u in holds)
    raise ValueError(f"not an FO-model formula: {f!r}")


# --- propositional tautology check -------------------------------------------

def _taut_atoms(f, acc):
    if isinstance(f, Top):
        return
    if isinstance(f, Neg):
        _taut_atoms(f.sub, acc)
    elif isinstance(f, And):
        _taut_atoms(f.left, acc)
        _taut_atoms(f.right, acc)
    else:
        if f not in acc:
            acc.append(f)


def _taut_eval(f, env):
    if isinstance(f, Top):
        return True
    if isinstance(f, Neg):
        return not _taut_eval(f.sub, env)
    if isinstance(f, And):
        return _taut_eval(f.left, env) and _taut_eval(f.right, env)
    return env[f]


def oracle_is_tautology(f):
    """Truth-table decision treating maximal modal subterms as atoms."""
    atoms = []
    _taut_atoms(f, atoms)
    assert len(atoms) <= 20, "oracle truth table too large"
    for bits in product((False, True), repeat=len(atoms)):
        if not _taut_eval(f, dict(zip(atoms, bits))):
            return False
    return True


# --- exhaustive structure enumeration ----------------------------------------

def state_options(states, source):
    """Every (edge set, triple set) at one source state such that the
    triples are SYM-closed and INCL-respecting by construction."""
    options = []
    states = list(states)
    for mask in range(2 ** len(states)):
        succ = [t for k, t in enumerate(states) if mask >> k & 1]
        edges = frozenset((source, t) for t in succ)
        diag = [(t, t) for t in succ]
        off = list(combinations(succ, 2))
        cells = diag + off
        for pick in range(2 ** len(cells)):
            triples = set()
            for k, (t, u) in enumerate(cells):
                if pick >> k & 1:
                    triples.add((source, t, u))
                    triples.add((source, u, t))
            options.append((edges, frozenset(triples)))
    return options


def enumerate_structures(states):
    """All SYM-closed, INCL-respecting ternary structures (one agent) on
    the given states, as (edges, triples) pairs."""
    per_state = [state_options(states, s) for s in states]
    for combo in product(*per_state):
        edges = frozenset().union(*(e for e, _ in combo))
        triples = frozenset().union(*(t for _, t in combo))
        yield edges, triples


def build_model(vocab, states, edges, triples, val=None):
    """Direct TernaryModel construction for enumeration-scale use."""
    agent, constant = vocab.agents[0], vocab.constants[0]
    values = {s: frozenset() for s in states}
    if val:
        values.update({s: frozenset(ps) for s, ps in val.items()})
    return TernaryModel(vocab=vocab, states=tuple(states),
                        rel={agent: frozenset(edges)},
                        tern={(agent, constant): frozenset(triples)},
                        val=values)


def enumerate_small_models(vocab, states, props):
    """All valid one-agent models on the given states with the given
    propositions varying — used for exhaustive cross-checks at tiny sizes."""
    states = list(states)
    props = [props] if isinstance(props, str) else list(props)
    cells = [(s, p) for s in states for p in props]
    for edges, triples in enumerate_structures(states):
        base = build_model(vocab, states, edges, triples)
        if oracle_violations(base):
            continue
        for vmask in range(2 ** len(cells)):
            val = {}
            for k, (s, p) in enumerate(cells):
                if vmask >> k & 1:
                    val.setdefault(s, set()).add(p)
            yield build_model(vocab, states, edges, triples, val)


def oracle_pair_tables(n):
    """For every successor set (as a bitmask over n states, the index), the
    ATEUC-valid SYM pair sets, in the order induced by enumerate-then-discard.

    Pairs (t, u) with t <= u over the successor set are listed
    lexicographically; subsets follow ascending bit patterns (bit j is
    pair j), and every subset failing ATEUC is dropped.  Each surviving
    set is listed with both orientations of its pairs.
    """
    tables = []
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        pairs = [(t, u) for i, t in enumerate(members) for u in members[i:]]
        good = []
        for bits in range(1 << len(pairs)):
            chosen = frozenset(pairs[j] for j in range(len(pairs)) if bits >> j & 1)
            ok = True
            for (t, u) in chosen:
                for v in members:
                    a = (t, v) if t <= v else (v, t)
                    b = (u, v) if u <= v else (v, u)
                    if a not in chosen and b not in chosen:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                good.append(tuple(sorted(chosen | {(u, t) for (t, u) in chosen})))
        tables.append(tuple(good))
    return tuple(tables)
