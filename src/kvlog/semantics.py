"""Evaluation and countermodel search.

eval_fo interprets ELKvR over FO models: Kv[i](f, c) holds at s when all
i-successors of s that satisfy f agree on the value of c.  It has no
evaluator of its own: that is [i]^c ~f on the ternary model derive_ternary
induces (successor pairs with distinct c-values), so eval_fo evaluates
translate_T(f) there.

eval_ternary interprets box formulas over ternary models:

  [i]f        every i-successor satisfies f
  [i]^c f     no related pair (t, u) at s has both members violating f
  [i]^c(f, g) no related pair (t, u) at s violates f at t and g at u
              (pairs are read in both orientations)

find_countermodel enumerates pointed ternary models in a fixed order
(state count, valuations, edges, triple sets; SYM and INCL hold by
construction, ATEUC failures are discarded) and returns the first one
falsifying the formula.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from .models import FOKripkeModel, TernaryModel, derive_ternary
from .syntax import (And, BBoxB, BBoxU, Box, Formula, KvCond, LanguageError,
                     Neg, Prop, Top, Vocabulary, symbols_of, translate_T,
                     walk)

DEFAULT_BUDGET = 20_000_000


class BudgetExceededError(Exception):
    """Raised when the enumeration budget is crossed: bound exceeded."""

    def __init__(self, evaluated: int):
        self.evaluated = evaluated
        super().__init__(f"bound exceeded after {evaluated} models")


def eval_fo(model: FOKripkeModel, state: str, f: Formula) -> bool:
    """Evaluate an ELKvR formula on the derived ternary model: Kv[i](g, c)
    is [i]^c ~g over the successor pairs that disagree on c."""
    if state not in model.states:
        raise ValueError(f"unknown state {state!r}")
    for node in walk(f):
        if isinstance(node, (BBoxU, BBoxB)):
            raise LanguageError(f"not an ELKvR formula: {f}")
    return eval_ternary(derive_ternary(model), state, translate_T(f))


def eval_ternary(model: TernaryModel, state: str, f: Formula) -> bool:
    """Evaluate any KvCond-free formula (the box languages and mixtures)."""
    if state not in model.states:
        raise ValueError(f"unknown state {state!r}")
    for node in walk(f):
        if isinstance(node, KvCond):
            raise LanguageError(f"conditional Kv formula needs an FO model: {f}")
    vocab = model.vocab
    for node in walk(f):
        if isinstance(node, Prop) and vocab.kind_of(node.name) != "prop":
            raise ValueError(f"unknown prop {node.name!r}")
        if isinstance(node, (Box, BBoxU, BBoxB)):
            if vocab.kind_of(node.agent) != "agent":
                raise ValueError(f"unknown agent {node.agent!r}")
        if isinstance(node, (BBoxU, BBoxB)):
            if vocab.kind_of(node.constant) != "constant":
                raise ValueError(f"unknown constant {node.constant!r}")
    succ: dict[str, dict] = {agent: {} for agent in model.vocab.agents}
    for agent, pairs in model.rel.items():
        for (s, t) in pairs:
            succ[agent].setdefault(s, []).append(t)
    at: dict[tuple[str, str], dict] = {}
    for (agent, constant), triples in model.tern.items():
        slot = at.setdefault((agent, constant), {})
        for (s, t, u) in triples:
            slot.setdefault(s, []).append((t, u))
    cache: dict[tuple[int, str], bool] = {}
    keep = []

    def ev(node: Formula, s: str) -> bool:
        key = (id(node), s)
        got = cache.get(key)
        if got is not None:
            return got
        keep.append(node)
        if isinstance(node, Top):
            out = True
        elif isinstance(node, Prop):
            out = node.name in model.val[s]
        elif isinstance(node, Neg):
            out = not ev(node.sub, s)
        elif isinstance(node, And):
            out = ev(node.left, s) and ev(node.right, s)
        elif isinstance(node, Box):
            out = all(ev(node.sub, t) for t in succ[node.agent].get(s, ()))
        elif isinstance(node, BBoxU):
            pairs = at[(node.agent, node.constant)].get(s, ())
            out = all(ev(node.sub, t) or ev(node.sub, u) for (t, u) in pairs)
        elif isinstance(node, BBoxB):
            pairs = at[(node.agent, node.constant)].get(s, ())
            out = all(ev(node.left, t) or ev(node.right, u) for (t, u) in pairs)
        else:
            raise TypeError(f"not a formula: {node!r}")
        cache[key] = out
        return out

    return ev(f, state)


def counterexample_state(model: TernaryModel, f: Formula) -> Optional[str]:
    """First state, in model order, at which f fails; None if f is valid."""
    for s in model.states:
        if not eval_ternary(model, s, f):
            return s
    return None


def valid_on(model: TernaryModel, f: Formula) -> bool:
    return counterexample_state(model, f) is None


# --- countermodel search ----------------------------------------------------

def _pair_tables(n: int) -> dict[int, list[tuple[tuple[int, int], ...]]]:
    """For every successor set (as a bitmask over n states), the ATEUC-valid
    SYM pair sets, in the order induced by enumerate-then-discard.

    Pairs (t, u) with t <= u over the successor set are listed
    lexicographically; subsets follow ascending bit patterns (bit j is
    pair j).  Filtering a product factor preserves product order, so
    iterating only the survivors visits exactly the models the naive
    enumeration would keep, in the same order.
    """
    tables: dict[int, list[tuple[tuple[int, int], ...]]] = {}
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
                good.append(tuple(sorted(chosen)))
        tables[mask] = good
    return tables


def _compile(f: Formula):
    """Postorder list of distinct subterms, each tagged static (independent
    of the ternary relation) or dynamic."""
    seen: dict[Formula, int] = {}
    nodes: list[Formula] = []
    dyn: list[bool] = []

    def visit(node: Formula) -> int:
        if node in seen:
            return seen[node]
        kid_ids = [visit(c) for c in
                   ((node.sub,) if isinstance(node, (Neg, Box, BBoxU)) else
                    (node.left, node.right) if isinstance(node, (And, BBoxB)) else ())]
        idx = len(nodes)
        nodes.append(node)
        dyn.append(isinstance(node, (BBoxU, BBoxB)) or
                   any(dyn[k] for k in kid_ids))
        seen[node] = idx
        return idx

    visit(f)
    return nodes, dyn, seen


def _scan_sizes(f: Formula, vocab: Vocabulary):
    agents, props, consts = symbols_of(f)
    # keep vocabulary order for determinism
    agents = tuple(a for a in vocab.agents if a in agents)
    props = tuple(p for p in vocab.props if p in props)
    consts = tuple(c for c in vocab.constants if c in consts)
    return agents, props, consts


def _hit_to_model(f, vocab, n, hit) -> tuple[TernaryModel, str]:
    _, prop_masks, edges, choice, state = hit
    agents, props, consts = _scan_sizes(f, vocab)
    states = tuple(f"s{i}" for i in range(n))
    rel = {agent: set() for agent in vocab.agents}
    for ai, agent in enumerate(agents):
        for s in range(n):
            for t in range(n):
                if edges[ai][s] >> t & 1:
                    rel[agent].add((states[s], states[t]))
    tern = {(agent, constant): set() for agent in vocab.agents
            for constant in vocab.constants}
    for (ai, ci, s), pairs in choice.items():
        slot = tern[(agents[ai], consts[ci])]
        for (t, u) in pairs:
            slot.add((states[s], states[t], states[u]))
            slot.add((states[s], states[u], states[t]))
    full_val = {}
    for si, s in enumerate(states):
        full_val[s] = frozenset(p for pi, p in enumerate(props)
                                if prop_masks[pi] >> si & 1)
    model = TernaryModel(vocab=vocab, states=states,
                         rel={a: frozenset(v) for a, v in rel.items()},
                         tern={k: frozenset(v) for k, v in tern.items()},
                         val=full_val)
    return model, states[state]


def _search_chunk(f, vocab, n, val_lo, val_hi, budget):
    """Scan valuation indices [val_lo, val_hi) for n states.

    Returns (models_evaluated_in_chunk, hit) where hit is None or
    (models_evaluated_before_hit, prop_masks, edge_succ, choice,
    state_index)."""
    agents, props, consts = _scan_sizes(f, vocab)
    nodes, dyn, _idx = _compile(f)
    top = len(nodes) - 1
    full = (1 << n) - 1
    tables = _pair_tables(n)
    a_cnt, p_cnt, c_cnt = len(agents), len(props), len(consts)
    evaluated = 0

    # precompute static evaluation plan
    def masks_for(prop_masks, edge_succ):
        vals: list[Optional[int]] = [None] * len(nodes)
        for i, node in enumerate(nodes):
            if dyn[i]:
                continue
            if isinstance(node, Top):
                vals[i] = full
            elif isinstance(node, Prop):
                vals[i] = prop_masks[props.index(node.name)]
            elif isinstance(node, Neg):
                vals[i] = ~vals[_idx[node.sub]] & full
            elif isinstance(node, And):
                vals[i] = vals[_idx[node.left]] & vals[_idx[node.right]]
            elif isinstance(node, Box):
                sub = vals[_idx[node.sub]]
                ai = agents.index(node.agent)
                m = 0
                for s in range(n):
                    if edge_succ[ai][s] & ~sub & full == 0:
                        m |= 1 << s
                vals[i] = m
        return vals

    def eval_dynamic(vals, edge_succ, choice):
        out = list(vals)
        for i, node in enumerate(nodes):
            if not dyn[i]:
                continue
            if isinstance(node, Neg):
                out[i] = ~out[_idx[node.sub]] & full
            elif isinstance(node, And):
                out[i] = out[_idx[node.left]] & out[_idx[node.right]]
            elif isinstance(node, Box):
                sub = out[_idx[node.sub]]
                ai = agents.index(node.agent)
                m = 0
                for s in range(n):
                    if edge_succ[ai][s] & ~sub & full == 0:
                        m |= 1 << s
                out[i] = m
            elif isinstance(node, BBoxU):
                sub = out[_idx[node.sub]]
                ai = agents.index(node.agent)
                ci = consts.index(node.constant)
                m = 0
                for s in range(n):
                    ok = True
                    for (t, u) in choice.get((ai, ci, s), ()):
                        if not (sub >> t & 1 or sub >> u & 1):
                            ok = False
                            break
                    if ok:
                        m |= 1 << s
                out[i] = m
            elif isinstance(node, BBoxB):
                lm = out[_idx[node.left]]
                rm = out[_idx[node.right]]
                ai = agents.index(node.agent)
                ci = consts.index(node.constant)
                m = 0
                for s in range(n):
                    ok = True
                    for (t, u) in choice.get((ai, ci, s), ()):
                        if not ((lm >> t & 1 or rm >> u & 1)
                                and (lm >> u & 1 or rm >> t & 1)):
                            ok = False
                            break
                    if ok:
                        m |= 1 << s
                out[i] = m
        return out[top]

    edge_space = 1 << (a_cnt * n * n)
    for vi in range(val_lo, val_hi):
        prop_masks = []
        for pi in range(p_cnt):
            shift = (p_cnt - 1 - pi) * n
            prop_masks.append((vi >> shift) & full)
        for ei in range(edge_space):
            edge_succ = []
            for ai in range(a_cnt):
                row = []
                for s in range(n):
                    shift = ((a_cnt - 1 - ai) * n + (n - 1 - s)) * n
                    row.append((ei >> shift) & full)
                edge_succ.append(row)
            static_vals = masks_for(prop_masks, edge_succ)
            sources = [(ai, ci, s)
                       for ai in range(a_cnt)
                       for ci in range(c_cnt)
                       for s in range(n)]
            options = [tables[edge_succ[ai][s]] for (ai, ci, s) in sources]
            for combo in itertools.product(*options):
                choice = dict(zip(sources, combo))
                evaluated += 1
                if evaluated > budget:
                    raise BudgetExceededError(evaluated)
                mask = eval_dynamic(static_vals, edge_succ, choice)
                if mask != full:
                    state = next(s for s in range(n) if not mask >> s & 1)
                    return evaluated, (evaluated - 1, prop_masks,
                                       edge_succ, choice, state)
    return evaluated, None


def _worker(payload):
    f, vocab, n, lo, hi, budget = payload
    try:
        return ("done", _search_chunk(f, vocab, n, lo, hi, budget))
    except BudgetExceededError as exc:
        return ("budget", exc.evaluated)


def find_countermodel(f: Formula, max_states: int, vocab: Vocabulary,
                      budget: int = DEFAULT_BUDGET,
                      workers: int = 1) -> Optional[tuple[TernaryModel, str]]:
    """First pointed ternary model (in enumeration order) falsifying f.

    Returns None when no model with at most max_states states refutes f.
    Raises BudgetExceededError past the enumeration budget.  The result
    does not depend on the worker count.
    """
    for node in walk(f):
        if isinstance(node, KvCond):
            raise LanguageError(f"conditional Kv formula not searchable: {f}")
    agents, props, consts = _scan_sizes(f, vocab)
    spent = 0
    for n in range(1, max_states + 1):
        val_space = 1 << (len(props) * n)
        remaining = budget - spent
        if workers <= 1 or val_space < 2 * workers:
            results = [_worker((f, vocab, n, 0, val_space, remaining))]
        else:
            # split the valuation space; merge respecting sequential order
            bounds = [val_space * k // workers for k in range(workers + 1)]
            payloads = [(f, vocab, n, bounds[k], bounds[k + 1], remaining)
                        for k in range(workers) if bounds[k] < bounds[k + 1]]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_worker, payloads))
        # the search stops on the first model past the budget, so a stop
        # always reports budget + 1 models, whatever the chunking
        for tag, res in results:
            if tag == "budget":
                raise BudgetExceededError(budget + 1)
            evaluated, hit = res
            if hit is not None:
                if spent + hit[0] + 1 > budget:
                    raise BudgetExceededError(budget + 1)
                return _hit_to_model(f, vocab, n, hit)
            spent += evaluated
            if spent > budget:
                raise BudgetExceededError(budget + 1)
    return None
