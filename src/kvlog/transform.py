"""From ternary models back to value-carrying FO models.

The pipeline realizes the constructive direction of the correspondence
between the two model kinds, one stage per function:

  split          duplicate every state into two tagged copies so that no
                 related pair is forced onto a single state
  unravel        depth-bounded tree unraveling from a root, one state per
                 path, named by the path
  assign_values  read a value map off the tree: in each group of siblings
                 through one agent, pairs no triple relates share a value
                 of c, everything else stays apart

to_fo chains the three.  The composite guarantees, up to the chosen
depth, that a state satisfies a box formula in the source iff the root
satisfies its conditional-Kv counterpart in the result.
"""

from __future__ import annotations

from .models import (FOKripkeModel, TernaryModel, make_fo, make_ternary,
                     successors, validate_ternary)

SEP = "/"
TAGS = ("0", "1")
_ESCAPE = str.maketrans({"\\": "\\\\", SEP: "\\" + SEP, ":": "\\:"})

# Most states unravel builds.  The tree grows as the branching factor to
# the power of the depth, so each level is counted before it is built.
MAX_TREE_STATES = 10_000


def _require_valid(model: TernaryModel) -> None:
    violations = validate_ternary(model)
    if violations:
        raise ValueError("input model breaks frame conditions: "
                         + "; ".join(v.describe() for v in violations[:3]))


def split(model: TernaryModel) -> TernaryModel:
    """Two tagged copies per state; a pair may not repeat one split state.

    Edges connect copies exactly when the base states are connected.  A
    triple relates two copies when the base triple holds and the copies
    are distinct, so every related pair can later be separated.
    """
    _require_valid(model)
    states = tuple(f"{s}.{tag}" for s in model.states for tag in TAGS)
    if len(set(states)) != len(states):
        raise ValueError("state names collide under tagging")
    rel = {agent: {(f"{s}.{x}", f"{t}.{y}")
                   for (s, t) in pairs for x in TAGS for y in TAGS}
           for agent, pairs in model.rel.items()}
    tern = {key: {(f"{s}.{x}", f"{t}.{y}", f"{u}.{z}")
                  for (s, t, u) in triples for x in TAGS for y in TAGS
                  for z in TAGS if (t, y) != (u, z)}
            for key, triples in model.tern.items()}
    val = {f"{s}.{tag}": model.val[s] for s in model.states for tag in TAGS}
    return make_ternary(model.vocab, states, rel, tern, val)


def unravel(model: TernaryModel, root: str, depth: int, *,
            check: bool = True) -> TernaryModel:
    """Tree of paths from root with at most `depth` hops.

    Each path is a state named root/agent:state/agent:state/..., with a
    backslash before each \\, / and : of the states after root, listed
    level by level; a path's extensions follow the source's state order.
    An edge joins a path to its one-step extensions; a triple joins a path
    to two of its extensions through the same agent when their last
    states form a triple in the source.  Each level is counted from the
    one before it, and ValueError is raised before a level that would
    take the tree past MAX_TREE_STATES states is built.

    The input's frame conditions are checked here, before anything is
    built; an invalid input raises ValueError naming its violations.
    check=False skips that check, for a caller that knows `model` is valid.
    """
    if check:
        _require_valid(model)
    if root not in model.states:
        raise ValueError(f"unknown root {root!r}")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    agents = model.vocab.agents
    succ = successors(model)
    base = {root: root}             # path -> its last state
    kids = {}                       # (path, agent) -> its extensions
    states, frontier, levels = [root], [root], 0
    while frontier and levels < depth:
        levels += 1
        size = sum(len(succ[agent][base[path]])
                   for path in frontier for agent in agents)
        if len(states) + size > MAX_TREE_STATES:
            raise ValueError(f"unraveling to depth {depth} makes more than "
                             f"{MAX_TREE_STATES:,} states")
        extended = []
        for path in frontier:
            for agent in agents:
                for t in succ[agent][base[path]]:
                    ext = f"{path}{SEP}{agent}:{t.translate(_ESCAPE)}"
                    base[ext] = t
                    kids.setdefault((path, agent), []).append(ext)
                    extended.append(ext)
        states += extended
        frontier = extended

    rel = {agent: {(path, t) for (path, a), ext in kids.items() if a == agent
                   for t in ext} for agent in agents}
    tern = {(agent, constant): {(path, t, u) for (path, a), ext in kids.items()
                                if a == agent for t in ext for u in ext
                                if (base[path], base[t], base[u]) in triples}
            for (agent, constant), triples in model.tern.items()}
    val = {path: model.val[base[path]] for path in states}
    return make_ternary(model.vocab, states, rel, tern, val)


def _tree_shape(model: TernaryModel) -> tuple:
    """Check the input is a tree with agent-unique incoming edges.

    Returns (root, parent, kids): parent maps every other state to the
    source of its incoming edge, and kids maps (state, agent) to the
    children in state order.
    """
    parent: dict[str, str] = {}
    kids: dict[tuple[str, str], list[str]] = {}
    for agent, succ in successors(model).items():
        for s in model.states:
            for t in succ[s]:
                if t in parent:
                    raise ValueError(f"state {t!r} has two predecessors")
                if s == t:
                    raise ValueError(f"state {t!r} loops on itself")
                parent[t] = s
            kids[(s, agent)] = succ[s]
    roots = [s for s in model.states if s not in parent]
    if len(roots) != 1:
        raise ValueError("model is not a rooted tree")
    reached = roots[:]              # no state has two parents, so no repeats
    for s in reached:
        for agent in model.rel:
            reached += kids[(s, agent)]
    unreached = set(model.states).difference(reached)
    if unreached:
        missed = next(s for s in model.states if s in unreached)
        raise ValueError(f"state {missed!r} is not reachable from the root")
    return roots[0], parent, kids


def assign_values(model: TernaryModel) -> tuple[FOKripkeModel, str]:
    """Quotient (constant, state) pairs into values over a tree.

    Two siblings through the same agent are glued on c when no triple
    relates the earlier to the later one (state order) on c, and each
    class of the glued pairs of a sibling group is named after its least
    member.  The input must come from the split-unravel pipeline, so a
    ValueError is raised when a triple relates two states of one class,
    relates a state to itself, or does not join a state to two of its
    children.

    Returns the model and its root.
    """
    root, parent, kids = _tree_shape(model)
    order = {s: i for i, s in enumerate(model.states)}
    consts = model.vocab.constants

    def first(triples):
        return min(triples, default=None, key=lambda tr: [order[x] for x in tr])

    for triples in model.tern.values():
        hit = first([(s, t, u) for (s, t, u) in triples
                     if t == u or parent.get(t) != s or parent.get(u) != s])
        if hit:
            s, t, u = hit
            why = "relates a state to itself" if t == u else "is not parent-children"
            raise ValueError(f"triple ({s}, {t}, {u}) {why}")

    # label (c, t) with the least state of t's class: flood the glued
    # pairs of each sibling group from its least unlabeled member
    label: dict[tuple[str, str], str] = {}
    for (s, agent), group in kids.items():
        for c in consts:
            related = model.tern[(agent, c)]
            for t in group:
                if (c, t) in label:
                    continue
                label[(c, t)], todo = t, [t]
                while todo:
                    x = todo.pop()
                    for y in group:
                        pair = (x, y) if order[x] < order[y] else (y, x)
                        if (c, y) not in label and (s, *pair) not in related:
                            label[(c, y)] = t
                            todo.append(y)

    classes: dict[tuple[str, str], list[str]] = {}
    for c in consts:
        for s in model.states:
            classes.setdefault((c, label.get((c, s), s)), []).append(s)

    vc = {(c, s): f"{c}@{leader}"
          for (c, leader), members in classes.items() for s in members}
    for (_, c), triples in model.tern.items():
        hit = first([tr for tr in triples if vc[(c, tr[1])] == vc[(c, tr[2])]])
        if hit:
            raise ValueError(f"related pair ({hit[1]}, {hit[2]}) got one value for {c!r}")
    domain = [f"{c}@{leader}" for (c, leader) in classes]
    fo = make_fo(model.vocab, model.states, model.rel, model.val, domain, vc)
    return fo, root


def to_fo(model: TernaryModel, state: str, depth: int) -> tuple[FOKripkeModel, str]:
    """split, unravel at the 0-copy of `state`, then assign values.

    The frame conditions are checked once, by split, on the input, so an
    invalid input raises split's ValueError, naming the input's states.
    The doubled model is not checked again: split of a valid model is
    valid, as SYM, INCL and ATEUC each carry over copy by copy.
    """
    doubled = split(model)
    tree = unravel(doubled, f"{state}.{TAGS[0]}", depth, check=False)
    return assign_values(tree)
