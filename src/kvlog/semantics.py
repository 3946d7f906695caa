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
              (each listed pair in its listed orientation; SYM lists both)

All three are normal boxes, so one evaluator covers them: _compile turns
a formula into a program with one instruction per distinct subterm, by a
flat loop over syntax.subterms (children first, shared by identity), and
_run computes each instruction's truth set on the whole model at once, as
a bitmask over the states.  eval_ternary tests one bit of the root's
mask; counterexample_state takes its lowest zero bit.

find_countermodel enumerates pointed ternary models in a fixed order
(state count, valuations, edges, triple sets; SYM and INCL hold by
construction, ATEUC failures are discarded) and returns the first one
falsifying the formula.  It runs the same program: the static
instructions, which do not depend on the ternary relation, once per edge
choice, and the dynamic ones once per triple choice.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .models import FOKripkeModel, TernaryModel, derive_ternary, make_ternary
from .syntax import (And, BBoxB, BBoxU, Box, Formula, KvCond, LanguageError,
                     Neg, Prop, Top, Vocabulary, first_in_preorder, subterms,
                     translate_T)

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
    for node in subterms(f):
        if isinstance(node, (BBoxU, BBoxB)):
            raise LanguageError(f"not an ELKvR formula: {f}")
    return eval_ternary(derive_ternary(model), state, translate_T(f))


def eval_ternary(model: TernaryModel, state: str, f: Formula) -> bool:
    """Evaluate any KvCond-free formula (the box languages and mixtures)."""
    if state not in model.states:
        raise ValueError(f"unknown state {state!r}")
    return bool(_truth(model, f) >> model.states.index(state) & 1)


def counterexample_state(model: TernaryModel, f: Formula) -> Optional[str]:
    """First state, in model order, at which f fails; None if f is valid."""
    mask = _truth(model, f)
    if mask == (1 << len(model.states)) - 1:
        return None
    return model.states[((mask + 1) & ~mask).bit_length() - 1]


def valid_on(model: TernaryModel, f: Formula) -> bool:
    return counterexample_state(model, f) is None


# --- the compiled program ---------------------------------------------------

_TOP, _PROP, _NEG, _AND, _BOX, _PAIRS = range(6)


def _compile(f: Formula, agents, props, consts) -> list:
    """Program with one instruction per distinct subterm of f, children
    first (syntax.subterms: shared by identity; equal subterms that are
    distinct objects get one instruction each).

    An instruction is (op, arg, x, y): x and y index the children (both
    the one child of a unary node), arg is the prop index, the agent index
    of [i], or the slot agent * len(consts) + constant of a constant-indexed
    box.  [i]^c g runs as [i]^c(g, g).  A KvCond raises LanguageError;
    otherwise the first unknown symbol in preorder raises ValueError.
    """
    agent_at = {a: k for k, a in enumerate(agents)}
    prop_at = {p: k for k, p in enumerate(props)}
    const_at = {c: k for k, c in enumerate(consts)}
    nodes = subterms(f)
    index = {id(g): k for k, g in enumerate(nodes)}
    prog: list[tuple[int, int, int, int]] = []
    try:
        for node in nodes:
            kind = type(node)
            if kind is Neg:
                x = index[id(node.sub)]
                prog.append((_NEG, 0, x, x))
            elif kind is Prop:
                prog.append((_PROP, prop_at[node.name], 0, 0))
            elif kind is And:
                prog.append((_AND, 0, index[id(node.left)], index[id(node.right)]))
            elif kind is Box:
                x = index[id(node.sub)]
                prog.append((_BOX, agent_at[node.agent], x, x))
            elif kind is BBoxU or kind is BBoxB:
                slot = agent_at[node.agent] * len(consts) + const_at[node.constant]
                x, y = (node.sub, node.sub) if kind is BBoxU else (node.left, node.right)
                prog.append((_PAIRS, slot, index[id(x)], index[id(y)]))
            elif kind is Top:
                prog.append((_TOP, 0, 0, 0))
            else:
                break               # a KvCond
    except KeyError:
        pass                        # an unknown symbol
    if len(prog) < len(nodes):
        if any(isinstance(g, KvCond) for g in nodes):
            raise LanguageError(f"conditional Kv formula needs an FO model: {f}")
        symbols = (("agent", "agent", agent_at), ("constant", "constant", const_at),
                   ("prop", "name", prop_at))

        def unknown(g: Formula) -> Optional[ValueError]:
            for kind, attr, known in symbols:
                name = getattr(g, attr, None)
                if name is not None and name not in known:
                    return ValueError(f"unknown {kind} {name!r}")
            return None

        raise unknown(first_in_preorder(f, unknown))
    return prog


def _run(prog, todo, vals, n, prop_masks, succ, pairs) -> None:
    """Set vals[i] to the truth set (a bitmask over n states) of every
    instruction i in todo, in order.

    succ[agent * n + s] is the successor bitmask of s; pairs[slot * n + s]
    lists the related pairs (t, u) at s, each read in its listed
    orientation: [i]^c(g, h) needs g at t or h at u.
    """
    full = (1 << n) - 1
    for i in todo:
        op, arg, x, y = prog[i]
        if op == _AND:
            vals[i] = vals[x] & vals[y]
        elif op == _NEG:
            vals[i] = full ^ vals[x]
        elif op == _PROP:
            vals[i] = prop_masks[arg]
        elif op == _TOP:
            vals[i] = full
        elif op == _BOX:
            miss = full ^ vals[x]
            m = 0
            for s, row in enumerate(succ[arg * n:(arg + 1) * n]):
                if not row & miss:
                    m |= 1 << s
            vals[i] = m
        else:
            left, right = vals[x], vals[y]
            m = 0
            for s, related in enumerate(pairs[arg * n:(arg + 1) * n]):
                for (t, u) in related:
                    if not (left >> t & 1 or right >> u & 1):
                        break
                else:
                    m |= 1 << s
            vals[i] = m


def _truth(model: TernaryModel, f: Formula) -> int:
    """Truth set of f on the whole model, bit k for model.states[k]."""
    vocab = model.vocab
    prog = _compile(f, vocab.agents, vocab.props, vocab.constants)
    n = len(model.states)
    at = {s: k for k, s in enumerate(model.states)}
    prop_masks = [sum(1 << at[s] for s, props in model.val.items() if p in props)
                  for p in vocab.props]
    succ = [0] * (len(vocab.agents) * n)
    pairs: list[list[tuple[int, int]]] = [
        [] for _ in range(len(vocab.agents) * len(vocab.constants) * n)]
    for ai, agent in enumerate(vocab.agents):
        for (s, t) in model.rel.get(agent, ()):
            succ[ai * n + at[s]] |= 1 << at[t]
        for ci, constant in enumerate(vocab.constants):
            base = (ai * len(vocab.constants) + ci) * n
            for (s, t, u) in model.tern.get((agent, constant), ()):
                pairs[base + at[s]].append((at[t], at[u]))
    vals = [0] * len(prog)
    _run(prog, range(len(prog)), vals, n, prop_masks, succ, pairs)
    return vals[-1]


# --- countermodel search ----------------------------------------------------

def _pair_tables(n: int) -> dict[int, list[tuple[tuple[int, int], ...]]]:
    """For every successor set (as a bitmask over n states), the ATEUC-valid
    SYM pair sets, in the order induced by enumerate-then-discard.

    Pairs (t, u) with t <= u over the successor set are listed
    lexicographically; subsets follow ascending bit patterns (bit j is
    pair j).  Filtering a product factor preserves product order, so
    iterating only the survivors visits exactly the models the naive
    enumeration would keep, in the same order.  Each surviving set is
    listed with both orientations of its pairs.
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
                good.append(tuple(sorted(chosen | {(u, t) for (t, u) in chosen})))
        tables[mask] = good
    return tables


def _scan_sizes(f: Formula, vocab: Vocabulary):
    """The agents, props and constants f uses, in vocabulary order."""
    used = set()
    for node in subterms(f):
        used.update(getattr(node, key, None) for key in ("agent", "name", "constant"))
    return tuple(tuple(x for x in names if x in used)
                 for names in (vocab.agents, vocab.props, vocab.constants))


def _hit_to_model(vocab, used, n, hit) -> tuple[TernaryModel, str]:
    _, prop_masks, succ, pairs, state = hit
    agents, props, consts = used
    states = tuple(f"s{i}" for i in range(n))
    rel: dict[str, set] = {}
    for k, row in enumerate(succ):
        ai, s = divmod(k, n)
        rel.setdefault(agents[ai], set()).update(
            (states[s], states[t]) for t in range(n) if row >> t & 1)
    tern: dict[tuple[str, str], set] = {}
    for k, related in enumerate(pairs):
        (ai, ci), s = divmod(k // n, len(consts)), k % n
        tern.setdefault((agents[ai], consts[ci]), set()).update(
            (states[s], states[t], states[u]) for (t, u) in related)
    val = {s: {p for pi, p in enumerate(props) if prop_masks[pi] >> si & 1}
           for si, s in enumerate(states)}
    return make_ternary(vocab, states, rel, tern, val), states[state]


def _search_chunk(prog, used, n, val_lo, val_hi, budget):
    """Scan valuation indices [val_lo, val_hi) for n states with the
    program of a formula over the symbols `used` (see _scan_sizes).

    Returns (models_evaluated_in_chunk, hit) where hit is None or
    (models_evaluated_before_hit, prop_masks, succ, pairs, state_index),
    succ and pairs laid out as _run reads them.  The static instructions
    run once per edge choice, the dynamic ones once per triple choice."""
    agents, props, consts = used
    static: list[bool] = []         # independent of the ternary relation
    for op, _, x, y in prog:
        static.append(op in (_TOP, _PROP) or op != _PAIRS and static[x] and static[y])
    fixed = [i for i, st in enumerate(static) if st]
    moving = [i for i, st in enumerate(static) if not st]
    vals = [0] * len(prog)
    full = (1 << n) - 1
    tables = _pair_tables(n)
    a_cnt, p_cnt, c_cnt = len(agents), len(props), len(consts)
    evaluated = 0
    edge_space = 1 << (a_cnt * n * n)
    for vi in range(val_lo, val_hi):
        prop_masks = [(vi >> (p_cnt - 1 - pi) * n) & full for pi in range(p_cnt)]
        for ei in range(edge_space):
            succ = [(ei >> (a_cnt * n - 1 - k) * n) & full
                    for k in range(a_cnt * n)]
            _run(prog, fixed, vals, n, prop_masks, succ, None)
            options = [tables[succ[ai * n + s]] for ai in range(a_cnt)
                       for _ in range(c_cnt) for s in range(n)]
            for pairs in itertools.product(*options):
                evaluated += 1
                if evaluated > budget:
                    raise BudgetExceededError(evaluated)
                _run(prog, moving, vals, n, prop_masks, succ, pairs)
                mask = vals[-1]
                if mask != full:
                    state = ((mask + 1) & ~mask).bit_length() - 1
                    return evaluated, (evaluated - 1, prop_masks,
                                       succ, pairs, state)
    return evaluated, None


def _worker(payload):
    try:
        return ("done", _search_chunk(*payload))
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
    for node in subterms(f):
        if isinstance(node, KvCond):
            raise LanguageError(f"conditional Kv formula not searchable: {f}")
    used = _scan_sizes(f, vocab)
    prog = _compile(f, *used)
    spent = 0
    for n in range(1, max_states + 1):
        val_space = 1 << (len(used[1]) * n)
        remaining = budget - spent
        if workers <= 1 or val_space < 2 * workers:
            results = [_worker((prog, used, n, 0, val_space, remaining))]
        else:
            # split the valuation space; merge respecting sequential order.
            # Imported here: multiprocessing costs every importer about 2.5 MB.
            from concurrent.futures import ProcessPoolExecutor
            bounds = [val_space * k // workers for k in range(workers + 1)]
            payloads = [(prog, used, n, bounds[k], bounds[k + 1], remaining)
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
                return _hit_to_model(vocab, used, n, hit)
            spent += evaluated
            if spent > budget:
                raise BudgetExceededError(budget + 1)
    return None
