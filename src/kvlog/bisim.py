"""Bisimulations for ternary and FO models.

A relation Z between two ternary models is a bisimulation when every
pair (s1, s2) in Z satisfies

  Inv       equal valuations
  Zig/Zag   matching binary successors, both directions
  KvbZig    every related pair at s1 is matched by a related pair at s2
            with Z-linked components, and KvbZag symmetrically

greatest_bisim computes the largest such Z by deleting failing pairs
from the valuation-respecting start relation.  The deletion trace is
enough to rebuild, for every non-bisimilar pair, a formula true on the
left and false on the right; distinguishing_formula replays it without
recursion (Cleaveland, CAV 1990): a stack collects the pairs the formula
needs, and their formulas are built in ascending deletion round, since a
deletion reason cites only pairs that fail Inv or left earlier.  The
result is checked by evaluation before it is returned.

greatest_bisim (first failure per pair) and check_bisimulation (every
failure) draw the successor clauses from one generator.

check_fo_bisimulation covers the FO variant, where matching is required
for successor pairs with distinct values instead of related pairs.  Those
pairs are exactly the related pairs of the ternary model derive_ternary
induces, so it is check_bisimulation on the two derived models, with
KvbZig/KvbZag reported as KvrZig/KvrZag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .models import (FOKripkeModel, TernaryModel, derive_ternary, related,
                     successors)
from .semantics import eval_ternary
from .syntax import Formula, Neg, Prop, big_and, dia, dia_b


@dataclass(frozen=True)
class ClauseFailure:
    clause: str               # Inv, Zig, Zag, KvbZig, KvbZag (KvrZig, KvrZag)
    pair: tuple[str, str]
    detail: tuple

    def describe(self) -> str:
        s1, s2 = self.pair
        return f"{self.clause} fails at ({s1}, {s2}) on {self.detail}"


def _successor_failures(vocab, view1, view2, s1, s2, z):
    """Successor-clause failures of the pair (s1, s2) against z, as
    (clause, detail) in a fixed order: per agent Zig, then Zag, then per
    constant KvbZig and KvbZag.  view1, view2 are (successors, related)."""
    (succ1, at1), (succ2, at2) = view1, view2
    for agent in vocab.agents:
        out1, out2 = succ1[agent][s1], succ2[agent][s2]
        for t1 in out1:
            if not any((t1, t2) in z for t2 in out2):
                yield "Zig", (agent, t1)
        for t2 in out2:
            if not any((t1, t2) in z for t1 in out1):
                yield "Zag", (agent, t2)
        for constant in vocab.constants:
            pairs1 = at1[(agent, constant)][s1]
            pairs2 = at2[(agent, constant)][s2]
            for (t1, u1) in pairs1:
                if not any((t1, t2) in z and (u1, u2) in z
                           for (t2, u2) in pairs2):
                    yield "KvbZig", (agent, constant, t1, u1)
            for (t2, u2) in pairs2:
                if not any((t1, t2) in z and (u1, u2) in z
                           for (t1, u1) in pairs1):
                    yield "KvbZag", (agent, constant, t2, u2)


def check_bisimulation(m1: TernaryModel, m2: TernaryModel,
                       z: set[tuple[str, str]]) -> list[ClauseFailure]:
    """Every way the candidate relation fails to be a bisimulation."""
    if m1.vocab != m2.vocab:
        raise ValueError("models use different vocabularies")
    if not z:
        return [ClauseFailure("Inv", ("", ""), ("empty relation",))]
    for (s1, s2) in z:
        if s1 not in m1.states or s2 not in m2.states:
            raise ValueError(f"pair ({s1}, {s2}) uses unknown states")
    view1, view2 = (successors(m1), related(m1)), (successors(m2), related(m2))
    failures = []
    order1 = {s: i for i, s in enumerate(m1.states)}
    order2 = {s: i for i, s in enumerate(m2.states)}
    for (s1, s2) in sorted(z, key=lambda p: (order1[p[0]], order2[p[1]])):
        if m1.val[s1] != m2.val[s2]:
            failures.append(ClauseFailure("Inv", (s1, s2),
                                          (tuple(sorted(m1.val[s1])),
                                           tuple(sorted(m2.val[s2])))))
        for clause, detail in _successor_failures(m1.vocab, view1, view2,
                                                  s1, s2, z):
            failures.append(ClauseFailure(clause, (s1, s2), detail))
    return failures


@dataclass
class BisimResult:
    pairs: frozenset
    # deletion trace: pair -> (round, reason); pairs failing Inv never enter
    deleted: dict
    rounds: int


def greatest_bisim(m1: TernaryModel, m2: TernaryModel) -> BisimResult:
    """Largest bisimulation, by refinement from the Inv-respecting relation.

    Each round removes every pair violating a successor clause against
    the current relation; reasons are recorded for formula replay.
    """
    return _refine(m1, m2, (successors(m1), related(m1)),
                   (successors(m2), related(m2)))


def _refine(m1: TernaryModel, m2: TernaryModel, view1, view2) -> BisimResult:
    """greatest_bisim on the (successors, related) views of m1 and m2."""
    if m1.vocab != m2.vocab:
        raise ValueError("models use different vocabularies")
    alive = {(s1, s2) for s1 in m1.states for s2 in m2.states
             if m1.val[s1] == m2.val[s2]}
    deleted: dict[tuple[str, str], tuple[int, tuple]] = {}
    rounds = 0
    while True:
        doomed = {}
        for (s1, s2) in alive:
            for clause, detail in _successor_failures(m1.vocab, view1, view2,
                                                      s1, s2, alive):
                doomed[(s1, s2)] = (clause,) + detail
                break
        if not doomed:
            break
        for pair, reason in doomed.items():
            alive.discard(pair)
            deleted[pair] = (rounds, reason)
        rounds += 1
    return BisimResult(pairs=frozenset(alive), deleted=deleted, rounds=rounds)


def distinguishing_formula(m1: TernaryModel, s1: str,
                           m2: TernaryModel, s2: str) -> Optional[Formula]:
    """A formula true at s1 and false at s2, or None if the pair is
    bisimilar.  The replay result is verified by evaluation."""
    unknown = [f"{s!r} in the {which} model" for s, m, which
               in ((s1, m1, "first"), (s2, m2, "second")) if s not in m.states]
    if unknown:
        raise ValueError(f"unknown state {' and '.join(unknown)}")
    succ1, succ2 = successors(m1), successors(m2)
    result = _refine(m1, m2, (succ1, related(m1)), (succ2, related(m2)))
    if (s1, s2) in result.pairs:
        return None
    deleted = result.deleted

    def out_at(pair, rnd) -> bool:
        # pair out of the relation at the start of round rnd
        return pair not in result.pairs and deleted.get(pair, (-1,))[0] < rnd

    # collect the needed pairs: one failing Inv gets its literal at once,
    # a deleted one the pairs its reason cites, a group per argument
    built: dict[tuple[str, str], Formula] = {}
    cites: dict[tuple[str, str], list] = {}
    stack = [(s1, s2)]
    while stack:
        pair = stack.pop()
        if pair in built or pair in cites:
            continue
        t1, t2 = pair
        if pair not in deleted:
            v1, v2 = m1.val[t1], m2.val[t2]
            prop = next(p for p in m1.vocab.props if (p in v1) != (p in v2))
            built[pair] = Prop(prop) if prop in v1 else Neg(Prop(prop))
            continue
        rnd, reason = deleted[pair]
        kind = reason[0]
        if kind == "Zig":
            groups = [[(reason[2], w2) for w2 in succ2[reason[1]][t2]]]
        elif kind == "Zag":
            groups = [[(w1, reason[2]) for w1 in succ1[reason[1]][t1]]]
        elif kind == "KvbZig":
            groups = [[(w1, w2) for w2 in m2.states if out_at((w1, w2), rnd)]
                      for w1 in reason[3:]]
        else:
            groups = [[(w1, w2) for w1 in m1.states if out_at((w1, w2), rnd)]
                      for w2 in reason[3:]]
        cites[pair] = groups
        stack.extend(c for group in groups for c in group)

    # a cited pair fails Inv or left in an earlier round, so in ascending
    # round every cited formula is built before it is needed
    for pair in sorted(cites, key=lambda p: deleted[p][0]):
        reason = deleted[pair][1]
        zig = reason[0].endswith("Zig")
        args = [big_and(dict.fromkeys(built[c] if zig else Neg(built[c])
                                      for c in group))
                for group in cites[pair]]
        shape = (dia(reason[1], *args) if len(args) == 1
                 else dia_b(reason[1], reason[2], *args))
        built[pair] = shape if zig else Neg(shape)

    formula = built[(s1, s2)]
    if not eval_ternary(m1, s1, formula) or eval_ternary(m2, s2, formula):
        raise AssertionError("replayed distinguishing formula failed evaluation")
    return formula


_FO_CLAUSES = {"KvbZig": "KvrZig", "KvbZag": "KvrZag"}


def check_fo_bisimulation(m1: FOKripkeModel, m2: FOKripkeModel,
                          z: set[tuple[str, str]]) -> list[ClauseFailure]:
    """Bisimulation clauses for FO models, checked on the derived ternary
    models: Inv, Zig, Zag, and matching of successor pairs with distinct
    constant values (KvrZig/KvrZag)."""
    failures = check_bisimulation(derive_ternary(m1), derive_ternary(m2), z)
    return [ClauseFailure(_FO_CLAUSES.get(f.clause, f.clause), f.pair, f.detail)
            for f in failures]
