"""Reference answers that do not come from the code under test.

The benchmark checks every verdict against one of these, outside the
timed region:

- ``tests/oracles.py`` (brute-force frame conditions and evaluation),
  loaded from the checkout next to the package;
- facts written down here from the definitions: the greatest
  bisimulation by naive refinement, the analytic answer for chain
  models, and the size of the labeled model space that an exhaustive
  countermodel search must visit.

Nothing in this module calls into ``kvlog``; it only reads the fields of
the formula and model objects it is handed.
"""

from __future__ import annotations

import importlib
import sys
from functools import lru_cache
from itertools import combinations
from math import comb


def load_oracles(root):
    """Import ``tests/oracles.py`` of the checkout at ``root``.

    Call it after the final import of ``kvlog``: the oracles compare
    formula classes with ``isinstance``.
    """
    tests_dir = str(root / "tests")
    if tests_dir not in sys.path:
        sys.path.insert(0, tests_dir)
    sys.modules.pop("oracles", None)
    return importlib.import_module("oracles")


# --- formula structure --------------------------------------------------------

def children(f) -> tuple:
    if hasattr(f, "left"):
        return (f.left, f.right)
    if hasattr(f, "sub"):
        return (f.sub,)
    return ()


def tree_size(f) -> int:
    """Node count of the formula read as a tree; shared subterms count once
    per occurrence, computed over the shared graph."""
    sizes: dict[int, int] = {}
    stack = [f]
    while stack:
        node = stack[-1]
        if id(node) in sizes:
            stack.pop()
            continue
        pending = [c for c in children(node) if id(c) not in sizes]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        sizes[id(node)] = 1 + sum(sizes[id(c)] for c in children(node))
    return sizes[id(f)]


def symbol_counts(f) -> tuple[int, int, int]:
    """Distinct (agents, props, constants) mentioned by a formula."""
    agents, props, consts = set(), set(), set()
    stack, seen = [f], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if hasattr(node, "agent"):
            agents.add(node.agent)
        if hasattr(node, "constant"):
            consts.add(node.constant)
        if hasattr(node, "name"):
            props.add(node.name)
        stack.extend(children(node))
    return len(agents), len(props), len(consts)


# --- size of the search space -------------------------------------------------

def _pair_sets(k: int) -> int:
    """SYM pair sets over k successors that satisfy ATEUC."""
    members = range(k)
    pairs = [(t, u) for t in members for u in members if t <= u]
    good = 0
    for bits in range(1 << len(pairs)):
        chosen = {pairs[j] for j in range(len(pairs)) if bits >> j & 1}
        if all((min(t, v), max(t, v)) in chosen or (min(u, v), max(u, v)) in chosen
               for (t, u) in chosen for v in members):
            good += 1
    return good


def labeled_space(agents: int, props: int, consts: int, max_states: int) -> int:
    """Labeled pointed-structure count over 1..max_states states, for the
    symbols a formula mentions: valuations, edges per agent, and an
    ATEUC-valid SYM pair set per (agent, constant, state).

    This is exactly what a search that finds no countermodel visits.
    """
    total = 0
    for n in range(1, max_states + 1):
        per_state = sum(comb(n, k) * _pair_sets(k) ** consts
                        for k in range(n + 1))
        total += 2 ** (props * n) * per_state ** (agents * n)
    return total


# --- bisimulation -------------------------------------------------------------

def _succ(model, agent, s):
    return [t for (x, t) in model.rel.get(agent, ()) if x == s]


def _pairs_at(model, agent, constant, s):
    return [(t, u) for (x, t, u) in model.tern.get((agent, constant), ())
            if x == s]


def naive_bisimulation(m1, m2) -> set:
    """Greatest bisimulation between two ternary models, by removing
    failing pairs until nothing changes (the textbook definition)."""
    agents = m1.vocab.agents
    slots = [(a, c) for a in agents for c in m1.vocab.constants]
    z = {(s1, s2) for s1 in m1.states for s2 in m2.states
         if m1.val[s1] == m2.val[s2]}

    def ok(s1, s2):
        for a in agents:
            n1, n2 = _succ(m1, a, s1), _succ(m2, a, s2)
            if not all(any((t1, t2) in z for t2 in n2) for t1 in n1):
                return False
            if not all(any((t1, t2) in z for t1 in n1) for t2 in n2):
                return False
        for a, c in slots:
            p1, p2 = _pairs_at(m1, a, c, s1), _pairs_at(m2, a, c, s2)
            if not all(any((t1, t2) in z and (u1, u2) in z for (t2, u2) in p2)
                       for (t1, u1) in p1):
                return False
            if not all(any((t1, t2) in z and (u1, u2) in z for (t1, u1) in p1)
                       for (t2, u2) in p2):
                return False
        return True

    while True:
        bad = {pair for pair in z if not ok(*pair)}
        if not bad:
            return z
        z -= bad


def chain_raw(n: int, prefix: str) -> dict:
    """A chain of n states, each related to its successor as the only
    pair ``(s, t, t)``; no proposition holds anywhere.  Model-JSON shape."""
    states = [f"{prefix}{i}" for i in range(n)]
    edges = [[states[i], states[i + 1]] for i in range(n - 1)]
    triples = [[states[i], states[i + 1], states[i + 1]] for i in range(n - 1)]
    return {"kind": "ternary",
            "vocab": {"agents": ["a"], "props": ["p"], "constants": ["c"]},
            "states": states, "rel": {"a": edges}, "tern": {"a,c": triples},
            "val": {s: [] for s in states}}


def chain_bisimilar(n1: int, i: int, n2: int, j: int) -> bool:
    """State i of an n1-chain and state j of an n2-chain are bisimilar
    exactly when both have the same number of steps left."""
    return n1 - 1 - i == n2 - 1 - j


# --- the three-state structures of the validator sweep ------------------------

@lru_cache(maxsize=None)
def _state_options(states: tuple, source: str) -> tuple:
    """Every (edges, triples) choice at one source: triples SYM-closed and
    inside the source's successors, ATEUC not enforced."""
    options = []
    for mask in range(1 << len(states)):
        succ = [t for k, t in enumerate(states) if mask >> k & 1]
        cells = [(t, t) for t in succ] + list(combinations(succ, 2))
        for pick in range(1 << len(cells)):
            chosen = [cell for k, cell in enumerate(cells) if pick >> k & 1]
            options.append((
                frozenset((source, t) for t in succ),
                frozenset({(source, t, u) for (t, u) in chosen}
                          | {(source, u, t) for (t, u) in chosen})))
    return tuple(options)


def structure(states, number: int) -> tuple[frozenset, frozenset]:
    """Structure ``number`` of the product of per-state options (95**3 of
    them on three states)."""
    per_state = [_state_options(tuple(states), s) for s in states]
    edges, triples = set(), set()
    for options in reversed(per_state):
        number, pick = divmod(number, len(options))
        edges |= options[pick][0]
        triples |= options[pick][1]
    return frozenset(edges), frozenset(triples)
