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
a formula into a program with one instruction per distinct subterm
(children first, shared by identity) by one explicit-stack walk that
never enters a subterm already compiled, and _run computes each
instruction's truth set on the whole model at once, as a bitmask over
the states.  It reads the model through _layout: state positions, prop
masks, successor bitmasks and the related pairs per (agent, constant,
state).  IndexedModel holds one model's layout and one program that
grows by the subterms of each new formula, so the formulas a caller
evaluates on one model share the layout and every subterm they share by
identity (soundness_fuzz keeps one per trial).  eval_ternary and
counterexample_state are one-formula uses of it: the first tests one bit
of the root's mask, the second takes its lowest zero bit.

find_countermodel enumerates pointed ternary models in a fixed order
(state count, valuations, edges, triple sets; every frame condition holds
by construction, see _pair_tables) and returns the first one falsifying
the formula.  It runs the same program: the static instructions, which
do not depend on the ternary relation, once per edge choice, and the
dynamic ones once per triple choice.
"""

from __future__ import annotations

import functools
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
    return bool(IndexedModel(model).truth(f) >> model.states.index(state) & 1)


def counterexample_state(model: TernaryModel, f: Formula) -> Optional[str]:
    """First state, in model order, at which f fails; None if f is valid."""
    return IndexedModel(model).counterexample_state(f)


def valid_on(model: TernaryModel, f: Formula) -> bool:
    return counterexample_state(model, f) is None


class IndexedModel:
    """A ternary model's integer layout (see _layout) and one growing
    program holding the truth set of every subterm evaluated on it so far.

    truth(f) compiles and runs only the subterms of f not met before,
    matched by identity; it keeps f, and with it those subterms, so their
    ids stay valid while it lives.  A formula that raises leaves it
    unchanged.  Nothing is stored on the model: the caller owns the index
    and drops it with the model.
    """

    __slots__ = ("states", "symbols", "layout", "roots", "index", "prog", "vals")

    def __init__(self, model: TernaryModel):
        vocab = model.vocab
        self.states = model.states
        self.symbols = _symbols(vocab.agents, vocab.props, vocab.constants)
        self.layout = _layout(model, self.symbols)
        self.roots: list[Formula] = []       # every formula compiled so far
        self.index: dict[int, int] = {}      # id(subterm) -> its instruction
        self.prog: list[tuple[int, int, int, int]] = []
        self.vals: list[int] = []

    def truth(self, f: Formula) -> int:
        """Truth set of f on the whole model, bit k for model.states[k]."""
        k = self.index.get(id(f))
        if k is not None:
            return self.vals[k]
        prog, vals = self.prog, self.vals
        start = len(prog)
        prog += _compile(f, self.symbols, self.index)
        self.roots.append(f)
        vals += [0] * (len(prog) - start)
        _run(prog, range(start, len(prog)), vals, *self.layout)
        return vals[-1]

    def counterexample_state(self, f: Formula) -> Optional[str]:
        """First state, in model order, at which f fails; None if f is valid."""
        mask = self.truth(f)
        if mask == (1 << len(self.states)) - 1:
            return None
        return self.states[((mask + 1) & ~mask).bit_length() - 1]


# --- the compiled program ---------------------------------------------------

_TOP, _PROP, _NEG, _AND, _BOX, _PAIRS = range(6)


def _symbols(agents, props, consts) -> tuple[dict, dict, dict]:
    """Position of each agent, prop and constant, as _compile reads them."""
    return ({a: k for k, a in enumerate(agents)}, {p: k for k, p in enumerate(props)},
            {c: k for k, c in enumerate(consts)})


def _compile(f: Formula, symbols, index: dict) -> list:
    """Instructions for the distinct subterms of f not in index, in
    syntax.subterms order (children first, shared by identity), from one
    explicit-stack walk that never enters a node already in index.

    symbols is _symbols' result.  index maps id(subterm) to its
    instruction's position; it grows by the new subterms, which take the
    positions after the last one, so the caller appends the result to the
    program index describes and keeps those subterms alive.  An
    instruction is (op, arg, x, y): x and y index the children (both the
    one child of a unary node), arg is the prop index, the agent index of
    [i], or the slot agent * len(consts) + constant of a constant-indexed
    box.  [i]^c g runs as [i]^c(g, g).  On failure index is unchanged and
    a subterms pass raises TypeError for a non-formula, LanguageError for
    a KvCond, else ValueError for the first unknown symbol in preorder.
    """
    agent_at, prop_at, const_at = symbols
    prog: list[tuple[int, int, int, int]] = []
    stack: list = [f]
    try:
        while stack:
            node = stack.pop()
            if node is None:            # the node below has its children done
                node = stack.pop()
                if (kind := type(node)) is And:
                    ins = (_AND, 0, index[id(node.left)], index[id(node.right)])
                elif kind is Neg or kind is Box:
                    x = index[id(node.sub)]
                    ins = ((_NEG, 0, x, x) if kind is Neg
                           else (_BOX, agent_at[node.agent], x, x))
                else:
                    slot = agent_at[node.agent] * len(const_at) + const_at[node.constant]
                    x, y = (node.sub, node.sub) if kind is BBoxU else (node.left, node.right)
                    ins = (_PAIRS, slot, index[id(x)], index[id(y)])
            elif id(node) in index:
                continue
            elif (kind := type(node)) is Prop:
                ins = (_PROP, prop_at[node.name], 0, 0)
            elif kind is Top:
                ins = (_TOP, 0, 0, 0)
            elif kind is Neg or kind is Box or kind is BBoxU:
                stack += (node, None, node.sub)
                continue
            elif kind is And or kind is BBoxB:
                stack += (node, None, node.right, node.left)
                continue
            else:
                break                   # a KvCond, or not a formula
            index[id(node)] = len(index)
            prog.append(ins)
        else:
            return prog
    except KeyError:
        pass                            # an unknown symbol
    for _ in prog:
        index.popitem()                 # the new entries, one per instruction
    if any(isinstance(g, KvCond) for g in subterms(f)):
        raise LanguageError(f"conditional Kv formula needs an FO model: {f}")
    kinds = (("agent", "agent", agent_at), ("constant", "constant", const_at),
             ("prop", "name", prop_at))

    def unknown(g: Formula) -> Optional[ValueError]:
        for kind, attr, known in kinds:
            name = getattr(g, attr, None)
            if name is not None and name not in known:
                return ValueError(f"unknown {kind} {name!r}")
        return None

    raise unknown(first_in_preorder(f, unknown))


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


def _layout(model: TernaryModel, symbols) -> tuple[int, list, list, list]:
    """(n, prop_masks, succ, pairs) of the model, laid out as _run reads
    them, with state k as bit k; symbols is _symbols' result for the
    model's vocabulary."""
    agent_at, prop_at, const_at = symbols
    n = len(model.states)
    at = {s: k for k, s in enumerate(model.states)}
    prop_masks = [0] * len(prop_at)
    for s, props in model.val.items():
        for p in props:
            prop_masks[prop_at[p]] |= 1 << at[s]
    succ = [0] * (len(agent_at) * n)
    for agent, edges in model.rel.items():
        base = agent_at[agent] * n
        for (s, t) in edges:
            succ[base + at[s]] |= 1 << at[t]
    pairs: list[list[tuple[int, int]]] = [
        [] for _ in range(len(agent_at) * len(const_at) * n)]
    for (agent, constant), triples in model.tern.items():
        base = (agent_at[agent] * len(const_at) + const_at[constant]) * n
        for (s, t, u) in triples:
            pairs[base + at[s]].append((at[t], at[u]))
    return n, prop_masks, succ, pairs


# --- countermodel search ----------------------------------------------------

@functools.cache
def _pair_tables(n: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """For every successor set (as a bitmask over n states, the index), the
    SYM pair sets that satisfy ATEUC, each with both orientations of its pairs.

    Read (t, u) as "t and u disagree on c": SYM and ATEUC then say that the
    pairs not related form a partial equivalence on the successors.  So the
    valid sets over m successors are the set partitions of the successors
    plus one extra item, whose block holds the successors that disagree
    with themselves: (t, u) is related iff t and u lie in different blocks
    or both in the extra item's.  The partitions come as restricted growth
    strings, with the extra item last.  Each table follows ascending bit
    patterns over the pairs (t, u), t <= u, listed lexicographically (bit j
    is pair j), the order of enumerating every subset and keeping the valid
    ones.  Built once per n in each process, and immutable, since every
    search shares it.
    """
    strings = [[(0,)]]              # strings[m]: the ones of length m + 1
    for _ in range(n):
        strings.append([s + (b,) for s in strings[-1] for b in range(max(s) + 2)])
    tables = []
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        pairs = list(itertools.combinations_with_replacement(range(len(members)), 2))
        rows = []
        for bits in sorted(sum(1 << j for j, (i, k) in enumerate(pairs)
                               if block[i] != block[k] or block[i] == block[-1])
                           for block in strings[len(members)]):
            chosen = {(members[i], members[k])
                      for j, (i, k) in enumerate(pairs) if bits >> j & 1}
            rows.append(tuple(sorted(chosen | {(u, t) for (t, u) in chosen})))
        tables.append(tuple(rows))
    return tuple(tables)


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
    tables = _pair_tables(n) if consts else None   # read only for triples
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
    prog = _compile(f, _symbols(*used), {})
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
