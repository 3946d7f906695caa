"""From ternary models back to value-carrying FO models.

The pipeline realizes the constructive direction of the correspondence
between the two model kinds, one stage per function:

  split          duplicate every state into two tagged copies so that no
                 related pair is forced onto a single state
  unravel        depth-bounded tree unraveling from a root
  assign_values  read a value map off the tree: sibling pairs not related
                 by the ternary relation must share a value, everything
                 else stays apart

to_fo chains the three.  The composite guarantees, up to the chosen
depth, that a state satisfies a box formula in the source iff the root
satisfies its conditional-Kv counterpart in the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .models import (FOKripkeModel, TernaryModel, make_fo, make_ternary,
                     validate_ternary)

SEP = "/"
TAGS = ("0", "1")

# Most states unravel builds.  The tree grows as the branching factor to
# the power of the depth, so the paths are counted before they are built.
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
    rel = {}
    for agent, pairs in model.rel.items():
        rel[agent] = {(f"{s}.{x}", f"{t}.{y}")
                      for (s, t) in pairs for x in TAGS for y in TAGS}
    tern = {}
    for (agent, constant), triples in model.tern.items():
        out = set()
        for (s, t, u) in triples:
            for x in TAGS:
                for y in TAGS:
                    for z in TAGS:
                        if (t, y) != (u, z):
                            out.add((f"{s}.{x}", f"{t}.{y}", f"{u}.{z}"))
        tern[(agent, constant)] = out
    val = {f"{s}.{tag}": model.val[s] for s in model.states for tag in TAGS}
    return make_ternary(model.vocab, states, rel, tern, val)


def unravel(model: TernaryModel, root: str, depth: int) -> TernaryModel:
    """Tree of paths from root with at most `depth` hops.

    Path states are named root/agent:state/agent:state/...  An edge joins
    a path to its one-step extensions; a triple joins a path to two of
    its children through the same agent when the endpoint bases form a
    triple in the source.  Raises ValueError past MAX_TREE_STATES states.
    """
    _require_valid(model)
    if root not in model.states:
        raise ValueError(f"unknown root {root!r}")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    succ = {agent: {} for agent in model.vocab.agents}
    for agent, pairs in model.rel.items():
        for (s, t) in pairs:
            succ[agent].setdefault(s, []).append(t)
    order = {s: i for i, s in enumerate(model.states)}
    ends, total, levels = {root: 1}, 1, 0   # paths per end state, by level
    while ends and levels < depth:
        nxt: dict[str, int] = {}
        for s, count in ends.items():
            for agent in model.vocab.agents:
                for t in succ[agent].get(s, ()):
                    nxt[t] = nxt.get(t, 0) + count
        ends, total, levels = nxt, total + sum(nxt.values()), levels + 1
        if total > MAX_TREE_STATES:
            raise ValueError(f"unraveling to depth {depth} makes more than "
                             f"{MAX_TREE_STATES:,} states")

    paths: list[tuple] = [(root,)]
    frontier = [(root,)]
    for _ in range(levels):
        extended = []
        for path in frontier:
            base = _base_of_path(path)
            for agent in model.vocab.agents:
                for t in sorted(succ[agent].get(base, ()), key=order.__getitem__):
                    extended.append(path + (agent, t))
        paths.extend(extended)
        frontier = extended

    def name(path: tuple) -> str:
        parts = [path[0]]
        for i in range(1, len(path), 2):
            parts.append(f"{path[i]}:{path[i + 1]}")
        return SEP.join(parts)

    names = {path: name(path) for path in paths}
    rel = {agent: set() for agent in model.vocab.agents}
    children: dict[tuple, dict[str, list[tuple]]] = {p: {} for p in paths}
    for path in paths:
        if len(path) == 1:
            continue
        parent = path[:-2]
        agent = path[-2]
        rel[agent].add((names[parent], names[path]))
        children[parent].setdefault(agent, []).append(path)

    tern = {}
    for (agent, constant), triples in model.tern.items():
        out = set()
        for path in paths:
            base = _base_of_path(path)
            for t_path in children[path].get(agent, ()):
                for u_path in children[path].get(agent, ()):
                    trip = (base, _base_of_path(t_path), _base_of_path(u_path))
                    if trip in triples:
                        out.add((names[path], names[t_path], names[u_path]))
        tern[(agent, constant)] = out

    val = {names[p]: model.val[_base_of_path(p)] for p in paths}
    return make_ternary(model.vocab, (tuple(names[p] for p in paths)),
                        rel, tern, val)


def _base_of_path(path: tuple) -> str:
    return path[-1]


@dataclass(frozen=True)
class TreeShape:
    root: str
    parent: dict
    agent_in: dict
    kids: dict


def _tree_shape(model: TernaryModel) -> TreeShape:
    """Check the input is a tree with agent-unique incoming edges."""
    parent: dict[str, str] = {}
    agent_in: dict[str, str] = {}
    kids: dict[str, dict[str, list[str]]] = {s: {} for s in model.states}
    edge_count = 0
    for agent, pairs in model.rel.items():
        for (s, t) in pairs:
            edge_count += 1
            if t in parent:
                raise ValueError(f"state {t!r} has two predecessors")
            if s == t:
                raise ValueError(f"state {t!r} loops on itself")
            parent[t] = s
            agent_in[t] = agent
            kids[s].setdefault(agent, []).append(t)
    roots = [s for s in model.states if s not in parent]
    if len(roots) != 1 or edge_count != len(model.states) - 1:
        raise ValueError("model is not a rooted tree")
    order = {s: i for i, s in enumerate(model.states)}
    for s in kids:
        for agent in kids[s]:
            kids[s][agent].sort(key=order.__getitem__)
    return TreeShape(root=roots[0], parent=parent, agent_in=agent_in, kids=kids)


def assign_values(model: TernaryModel) -> tuple[FOKripkeModel, str]:
    """Quotient (constant, state) pairs into values over a tree.

    Two siblings through the same agent share the value of c exactly when
    no triple relates them on c.  The induced identification must already
    be transitive; if gluing ever merges a related pair the input was not
    produced by the split-unravel pipeline and a ValueError is raised.
    Triples relating a state to itself are rejected for the same reason.

    Returns the model and its root.
    """
    shape = _tree_shape(model)
    for (agent, constant), triples in model.tern.items():
        for (s, t, u) in triples:
            if t == u:
                raise ValueError(f"triple ({s}, {t}, {u}) relates a state to itself")
            if shape.parent.get(t) != s or shape.parent.get(u) != s:
                raise ValueError(f"triple ({s}, {t}, {u}) is not parent-children")

    states = model.states
    order = {s: i for i, s in enumerate(states)}
    consts = model.vocab.constants

    # pairs related from any origin state, per (agent, constant)
    related_pairs = {key: {(t, u) for (_, t, u) in triples}
                     for key, triples in model.tern.items()}

    # direct identifications: same-parent same-agent unrelated pairs
    seeds: dict[str, set[frozenset]] = {c: set() for c in consts}
    for s in states:
        for agent, siblings in shape.kids[s].items():
            for i, t in enumerate(siblings):
                for u in siblings[i + 1:]:
                    for c in consts:
                        if (t, u) not in related_pairs[(agent, c)]:
                            seeds[c].add(frozenset((t, u)))

    # union-find closure per constant
    rep: dict[tuple[str, str], tuple[str, str]] = {}

    def find(key):
        while rep[key] != key:
            rep[key] = rep[rep[key]]
            key = rep[key]
        return key

    for c in consts:
        for s in states:
            rep[(c, s)] = (c, s)
    for c in consts:
        for pair in seeds[c]:
            t, u = tuple(pair)
            a, b = find((c, t)), find((c, u))
            if a != b:
                # keep the least representative for stable naming
                lo, hi = sorted((a, b), key=lambda k: (consts.index(k[0]), order[k[1]]))
                rep[hi] = lo

    classes: dict[tuple[str, str], list[str]] = {}
    for c in consts:
        for s in states:
            classes.setdefault(find((c, s)), []).append(s)

    # the gluing must be transitive on its own: every merged pair of
    # distinct states has to be a direct identification.  Seed pairs all
    # lie inside one class, so completeness is a counting argument.
    for c in consts:
        needed = sum(len(m) * (len(m) - 1) // 2
                     for (cc, _), m in classes.items() if cc == c)
        if needed != len(seeds[c]):
            for (cc, _), members in classes.items():
                if cc != c:
                    continue
                for i, t in enumerate(members):
                    for u in members[i + 1:]:
                        if frozenset((t, u)) not in seeds[c]:
                            raise ValueError(
                                f"value identification for {c!r} is not "
                                f"transitive at ({t}, {u})")
            raise ValueError(f"value identification for {c!r} is inconsistent")

    # and it must never merge a related pair
    for (agent, c), triples in model.tern.items():
        for (s, t, u) in triples:
            if find((c, t)) == find((c, u)):
                raise ValueError(
                    f"related pair ({t}, {u}) got one value for {c!r}")

    key_order = sorted(classes, key=lambda k: (consts.index(k[0]), order[k[1]]))
    names = {key: f"{key[0]}@{key[1]}" for key in key_order}
    domain = tuple(names[key] for key in key_order)
    vc = {}
    for c in consts:
        for s in states:
            vc[(c, s)] = names[find((c, s))]
    fo = make_fo(model.vocab, states, model.rel, model.val, domain, vc)
    return fo, shape.root


def to_fo(model: TernaryModel, state: str, depth: int) -> tuple[FOKripkeModel, str]:
    """split, unravel at the 0-copy of `state`, then assign values."""
    doubled = split(model)
    tree = unravel(doubled, f"{state}.{TAGS[0]}", depth)
    return assign_values(tree)
