"""Relational structures for the value-knowledge logics.

Two model kinds:

  FOKripkeModel   states, one binary relation per agent, a valuation, and
                  a total value map vc(constant, state) into a domain.
  TernaryModel    states, binary relations, valuation, and one ternary
                  relation per (agent, constant) pair, written as triples
                  (s, t, u): from s, the pair (t, u) is discernible on c.

A ternary relation is well behaved when it satisfies

  SYM     (s, t, u) present iff (s, u, t) present
  INCL    (s, t, u) only relates binary successors of s
  ATEUC   (s, t, u) present and s -> v imply (s, t, v) or (s, u, v)

successors and related are the one state-ordered view of a model's
relations, read by every tool that walks them in state order.
validate_ternary reports every violation; derive_ternary builds the
canonical ternary relation of an FO model (successor pairs with distinct
values).  Generators produce seeded random instances of both kinds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Union

from .syntax import Vocabulary

Value = Union[str, int, float, bool]
State = str


class Violation(NamedTuple):
    cond: str                 # SYM, INCL or ATEUC
    agent: str
    constant: str
    witness: tuple            # offending states, see validate_ternary

    def describe(self) -> str:
        s = ", ".join(str(w) for w in self.witness)
        return f"{self.cond} fails for agent {self.agent}, constant {self.constant} at ({s})"


def _freeze_rel(vocab, states, rel) -> dict:
    out = {}
    idx = {s: i for i, s in enumerate(states)}
    for agent in vocab.agents:
        pairs = rel.get(agent, ())
        for (s, t) in pairs:
            if s not in idx or t not in idx:
                raise ValueError(f"edge ({s}, {t}) uses unknown state")
        out[agent] = frozenset((s, t) for (s, t) in pairs)
    return out


def _freeze_val(vocab, states, val) -> dict:
    known = set(states)
    for s in val:
        if s not in known:
            raise ValueError(f"valuation names unknown state {s!r}")
    out = {}
    for s in states:
        props = val.get(s, ())
        for p in props:
            if p not in vocab.props:
                raise ValueError(f"valuation of {s} uses unknown prop {p!r}")
        out[s] = frozenset(props)
    return out


@dataclass(frozen=True)
class TernaryModel:
    vocab: Vocabulary
    states: tuple[State, ...]
    rel: Mapping[str, frozenset[tuple[State, State]]]
    tern: Mapping[tuple[str, str], frozenset[tuple[State, State, State]]]
    val: Mapping[State, frozenset[str]]


@dataclass(frozen=True)
class FOKripkeModel:
    vocab: Vocabulary
    states: tuple[State, ...]
    rel: Mapping[str, frozenset[tuple[State, State]]]
    val: Mapping[State, frozenset[str]]
    domain: tuple[Value, ...]
    vc: Mapping[tuple[str, State], Value]


def make_ternary(vocab: Vocabulary, states, rel, tern, val) -> TernaryModel:
    """Checked constructor: memberships are validated, frame conditions are not."""
    states = tuple(states)
    if len(set(states)) != len(states):
        raise ValueError("duplicate state names")
    frozen_tern = {}
    idx = set(states)
    for agent in vocab.agents:
        for constant in vocab.constants:
            triples = tern.get((agent, constant), ())
            for (s, t, u) in triples:
                if s not in idx or t not in idx or u not in idx:
                    raise ValueError(f"triple ({s}, {t}, {u}) uses unknown state")
            frozen_tern[(agent, constant)] = frozenset(tuple(tr) for tr in triples)
    return TernaryModel(vocab=vocab, states=states,
                        rel=_freeze_rel(vocab, states, rel),
                        tern=frozen_tern,
                        val=_freeze_val(vocab, states, val))


def make_fo(vocab: Vocabulary, states, rel, val, domain, vc) -> FOKripkeModel:
    states = tuple(states)
    if len(set(states)) != len(states):
        raise ValueError("duplicate state names")
    domain = tuple(domain)
    if len(set(domain)) != len(domain):
        raise ValueError("duplicate domain values")
    known = set(states)
    for (constant, s) in vc:
        if constant not in vocab.constants or s not in known:
            raise ValueError(f"vc names ({constant}, {s}), not a constant and a state")
    frozen_vc = {}
    for constant in vocab.constants:
        for s in states:
            key = (constant, s)
            if key not in vc:
                raise ValueError(f"vc misses ({constant}, {s})")
            if vc[key] not in domain:
                raise ValueError(f"vc({constant}, {s}) = {vc[key]!r} not in domain")
            frozen_vc[key] = vc[key]
    return FOKripkeModel(vocab=vocab, states=states,
                         rel=_freeze_rel(vocab, states, rel),
                         val=_freeze_val(vocab, states, val),
                         domain=domain, vc=frozen_vc)


def successors(model: Union[TernaryModel, FOKripkeModel]) -> dict:
    """succ[agent][s]: the successors of every state s, in state order."""
    order = {s: i for i, s in enumerate(model.states)}
    view = {}
    for agent, edges in model.rel.items():
        succ = view[agent] = {s: [] for s in model.states}
        for (s, t) in edges:
            succ[s].append(t)
        for targets in succ.values():
            targets.sort(key=order.__getitem__)
    return view


def related(model: TernaryModel) -> dict:
    """at[(agent, constant)][s]: the pairs (t, u) related at s, in state order."""
    order = {s: i for i, s in enumerate(model.states)}
    view = {}
    for key, triples in model.tern.items():
        at = view[key] = {s: [] for s in model.states}
        for (s, t, u) in triples:
            at[s].append((t, u))
        for pairs in at.values():
            pairs.sort(key=lambda p: (order[p[0]], order[p[1]]))
    return view


def validate_ternary(model: TernaryModel) -> list[Violation]:
    """All SYM, INCL and ATEUC violations, in a deterministic order.

    Witnesses: SYM and INCL carry (s, t, u); ATEUC carries (s, t, u, v)
    where v is the uncovered successor.
    """
    order = {st: i for i, st in enumerate(model.states)}
    succ = successors(model)
    out: list[Violation] = []
    for agent in model.vocab.agents:
        edges = model.rel[agent]
        for constant in model.vocab.constants:
            triples = model.tern[(agent, constant)]
            ordered = sorted(triples, key=lambda tr: (order[tr[0]], order[tr[1]],
                                                      order[tr[2]]))
            for (s, t, u) in ordered:
                if (s, u, t) not in triples:
                    out.append(Violation("SYM", agent, constant, (s, t, u)))
                if (s, t) not in edges or (s, u) not in edges:
                    out.append(Violation("INCL", agent, constant, (s, t, u)))
                for v in succ[agent][s]:
                    if (s, t, v) not in triples and (s, u, v) not in triples:
                        out.append(Violation("ATEUC", agent, constant, (s, t, u, v)))
    return out


def derive_ternary(model: FOKripkeModel) -> TernaryModel:
    """Value-induced ternary relation: successor pairs with distinct c-values."""
    succ = successors(model)
    tern = {}
    for agent in model.vocab.agents:
        for constant in model.vocab.constants:
            triples = set()
            for s in model.states:
                for t in succ[agent][s]:
                    for u in succ[agent][s]:
                        if model.vc[(constant, t)] != model.vc[(constant, u)]:
                            triples.add((s, t, u))
            tern[(agent, constant)] = frozenset(triples)
    return TernaryModel(vocab=model.vocab, states=model.states,
                        rel=model.rel, tern=tern, val=model.val)


@dataclass(frozen=True)
class GenParams:
    vocab: Vocabulary
    num_states: int
    edge_density: float
    value_count: int
    seed: int

    def __post_init__(self):
        if self.num_states < 1:
            raise ValueError("num_states must be positive")
        if not 0.0 <= self.edge_density <= 1.0:
            raise ValueError("edge_density must lie in [0, 1]")
        if self.value_count < 1:
            raise ValueError("value_count must be positive")


def _gen_states(n: int) -> tuple[State, ...]:
    return tuple(f"s{i}" for i in range(n))


def _gen_edges(rng, vocab, states, density) -> dict:
    rel = {}
    for agent in vocab.agents:
        pairs = set()
        for s in states:
            for t in states:
                if rng.random() < density:
                    pairs.add((s, t))
        rel[agent] = pairs
    return rel


def _gen_val(rng, vocab, states) -> dict:
    val = {}
    for s in states:
        val[s] = {p for p in vocab.props if rng.random() < 0.5}
    return val


def generate_value_induced(p: GenParams) -> tuple[FOKripkeModel, TernaryModel]:
    """Seeded FO model plus its derived ternary companion.

    Draw order is fixed (edges by agent then source then target, valuation
    by state then prop, values by constant then state), so equal params
    give equal models.
    """
    rng = random.Random(p.seed)
    states = _gen_states(p.num_states)
    rel = _gen_edges(rng, p.vocab, states, p.edge_density)
    val = _gen_val(rng, p.vocab, states)
    domain = tuple(f"v{i}" for i in range(p.value_count))
    vc = {}
    for constant in p.vocab.constants:
        for s in states:
            vc[(constant, s)] = domain[rng.randrange(p.value_count)]
    fo = make_fo(p.vocab, states, rel, val, domain, vc)
    return fo, derive_ternary(fo)


def generate_direct(p: GenParams) -> TernaryModel:
    """Seeded ternary model built directly and repaired into validity.

    Candidate triples are drawn from INCL-compatible positions with the
    edge density as the pair probability, closed under SYM, then repaired
    for ATEUC by iterated addition: each uncovered (triple, successor)
    witness adds the lexicographically least of its two candidate triples
    until the condition holds.  The repair only ever adds INCL-compatible
    SYM pairs, and the candidate space is finite, so it terminates.
    """
    rng = random.Random(p.seed)
    states = _gen_states(p.num_states)
    order = {s: i for i, s in enumerate(states)}
    rel = _gen_edges(rng, p.vocab, states, p.edge_density)
    val = _gen_val(rng, p.vocab, states)
    tern = {}
    for agent in p.vocab.agents:
        succ: dict[State, list[State]] = {s: [] for s in states}
        for (s, t) in sorted(rel[agent], key=lambda e: (order[e[0]], order[e[1]])):
            succ[s].append(t)
        for constant in p.vocab.constants:
            triples = set()
            for s in states:
                # INCL-compatible positions include the diagonal: a world
                # may be paired with itself (the split construction exists
                # precisely to handle such triples downstream)
                for a_i, t in enumerate(succ[s]):
                    for u in succ[s][a_i:]:
                        if rng.random() < p.edge_density:
                            triples.add((s, t, u))
                            triples.add((s, u, t))
            # ATEUC repair
            changed = True
            while changed:
                changed = False
                for (s, t, u) in sorted(triples, key=lambda tr: tuple(order[x] for x in tr)):
                    for v in succ[s]:
                        if (s, t, v) in triples or (s, u, v) in triples:
                            continue
                        cand = min((s, t, v), (s, u, v),
                                   key=lambda tr: tuple(order[x] for x in tr))
                        triples.add(cand)
                        triples.add((cand[0], cand[2], cand[1]))
                        changed = True
            tern[(agent, constant)] = triples
    return make_ternary(p.vocab, states, rel, tern, val)


# --- JSON ------------------------------------------------------------------

def model_to_json(model: Union[TernaryModel, FOKripkeModel]) -> dict:
    data = {
        "vocab": {"agents": list(model.vocab.agents),
                  "props": list(model.vocab.props),
                  "constants": list(model.vocab.constants)},
        "kind": "ternary" if isinstance(model, TernaryModel) else "fo",
        "states": list(model.states),
        "rel": {agent: [[s, t] for s in model.states for t in targets[s]]
                for agent, targets in successors(model).items()},
        "val": {s: sorted(model.val[s], key=model.vocab.props.index)
                for s in model.states},
    }
    if isinstance(model, TernaryModel):
        data["tern"] = {f"{agent},{constant}": [[s, t, u] for s in model.states
                                                for (t, u) in at[s]]
                        for (agent, constant), at in related(model).items()}
    else:
        data["domain"] = list(model.domain)
        data["vc"] = {f"{c},{s}": model.vc[(c, s)]
                      for c in model.vocab.constants for s in model.states}
    return data


def _expect(value, path: str, kind, what: str):
    if not isinstance(value, kind):
        raise ValueError(f"model JSON {path} must be {what}, "
                         f"not {type(value).__name__}")
    return value


def _names(value, path: str, arity: Optional[int] = None) -> tuple[str, ...]:
    """A JSON list of strings (of the given length) as a tuple."""
    items = _expect(value, path, list, "a list")
    if arity is not None and len(items) != arity:
        raise ValueError(f"model JSON {path} must list {arity} states")
    for k, item in enumerate(items):
        _expect(item, f"{path}[{k}]", str, "a string")
    return tuple(items)


def _table(data: dict, key: str) -> dict:
    return _expect(data.get(key, {}), key, dict, "an object")


def json_to_model(data: dict) -> tuple[Union[TernaryModel, FOKripkeModel], list[str]]:
    """Decode a model; returns (model, notes).

    Triple lists may omit SYM mirrors; they are closed here and each
    closure is reported in the notes.  A value of the wrong JSON shape
    raises ValueError naming its path.
    """
    _expect(data, "top level", dict, "an object")
    try:
        vocab_data = _expect(data["vocab"], "vocab", dict, "an object")
        vocab = Vocabulary(*(_names(vocab_data[key], f"vocab.{key}")
                             for key in ("agents", "props", "constants")))
        kind = data["kind"]
        states = _names(data["states"], "states")
        domain = data["domain"] if kind == "fo" else []
    except KeyError as exc:
        raise ValueError(f"model JSON misses key {exc}") from None
    rel = {agent: {_names(e, f"rel.{agent}[{k}]", 2) for k, e in
                   enumerate(_expect(pairs, f"rel.{agent}", list, "a list"))}
           for agent, pairs in _table(data, "rel").items()}
    val = {s: set(_names(props, f"val.{s}"))
           for s, props in _table(data, "val").items()}
    for agent in rel:
        if agent not in vocab.agents:
            raise ValueError(f"rel mentions unknown agent {agent!r}")
    notes: list[str] = []
    if kind == "ternary":
        tern = {}
        for key, triples in _table(data, "tern").items():
            agent, _, constant = key.partition(",")
            if vocab.kind_of(agent) != "agent" or vocab.kind_of(constant) != "constant":
                raise ValueError(f"tern key {key!r} is not agent,constant")
            given = {_names(t, f"tern.{key}[{k}]", 3) for k, t in
                     enumerate(_expect(triples, f"tern.{key}", list, "a list"))}
            added = {(s, u, t) for (s, t, u) in given} - given
            if added:
                notes.append(f"closed {key} under SYM ({len(added)} triples added)")
                given |= added
            tern[(agent, constant)] = given
        return make_ternary(vocab, states, rel, tern, val), notes
    if kind == "fo":
        for k, value in enumerate(_expect(domain, "domain", list, "a list")):
            _expect(value, f"domain[{k}]", (str, int, float, bool), "a scalar")
        vc = {}
        for key, value in _table(data, "vc").items():
            constant, _, s = key.partition(",")
            vc[(constant, s)] = value
        return make_fo(vocab, states, rel, val, domain, vc), notes
    raise ValueError(f"unknown model kind {kind!r}")


def load_model(path: str) -> tuple[Union[TernaryModel, FOKripkeModel], list[str]]:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to decode") from None
    return json_to_model(data)


def dump_model(model: Union[TernaryModel, FOKripkeModel], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_json(model), handle, indent=2, sort_keys=False)
        handle.write("\n")
