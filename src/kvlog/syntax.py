"""Formula syntax for a family of value-knowledge modal logics.

Four languages share one AST:

  ELKvR   epistemic boxes plus the conditional operator Kv[i](f, c),
          read "agent i knows the value of c on the f-successors".
  MLKvR   boxes plus a unary constant-indexed box [i]^c f.
  MLKvB   boxes plus a binary constant-indexed box [i]^c(f, g).
  MLKv    the MLKvR fragment where every [i]^c argument is bottom.

Only eight constructors are stored: Top, Prop, Neg, And, Box, KvCond,
BBoxU, BBoxB.  Everything else (F, |, ->, <->, diamonds) is sugar that
the parser desugars and the printer restores.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional


class KvlogError(Exception):
    """Base class for errors raised by this package."""


class ParseError(KvlogError):
    def __init__(self, msg: str, pos: int, text: str):
        self.pos = pos
        self.text = text
        super().__init__(f"{msg} (at column {pos + 1})")


class LanguageError(KvlogError):
    """Raised when a formula lies outside the language an operation expects."""


_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*")

# Deepest nesting of prefix operators, boxes and parentheses the parser
# accepts.  Each level is one recursive call of the parser, and of the
# printer, the translations and the compiler on the result, so the limit
# keeps them all within Python's stack.
MAX_NESTING = 100


@dataclass(frozen=True)
class Vocabulary:
    """Disjoint, ordered symbol sets.

    Cross-category disjointness is stricter than per-set uniqueness but
    keeps the grammar positionally unambiguous (Kv[a](c) vs Kv[a](p, c)).
    """

    agents: tuple[str, ...]
    props: tuple[str, ...]
    constants: tuple[str, ...]

    def __post_init__(self):
        for kind, names in (("agents", self.agents), ("props", self.props),
                            ("constants", self.constants)):
            if not names:
                raise ValueError(f"vocabulary has no {kind}")
            for name in names:
                if not _IDENT_RE.fullmatch(name):
                    raise ValueError(f"bad {kind} name {name!r}")
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate names in {kind}")
        seen: dict[str, str] = {}
        for kind, names in (("agent", self.agents), ("prop", self.props),
                            ("constant", self.constants)):
            for name in names:
                if name in seen:
                    raise ValueError(
                        f"{name!r} declared both as {seen[name]} and {kind}")
                seen[name] = kind

    def kind_of(self, name: str) -> Optional[str]:
        if name in self.agents:
            return "agent"
        if name in self.props:
            return "prop"
        if name in self.constants:
            return "constant"
        return None


@dataclass(frozen=True)
class Formula:
    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Prop(Formula):
    name: str


@dataclass(frozen=True)
class Neg(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    agent: str
    sub: Formula


@dataclass(frozen=True)
class KvCond(Formula):
    """Conditional value knowledge: Kv[agent](sub, constant)."""

    agent: str
    sub: Formula
    constant: str


@dataclass(frozen=True)
class BBoxU(Formula):
    """Unary constant-indexed box [agent]^constant sub."""

    agent: str
    constant: str
    sub: Formula


@dataclass(frozen=True)
class BBoxB(Formula):
    """Binary constant-indexed box [agent]^constant(left, right)."""

    agent: str
    constant: str
    left: Formula
    right: Formula


# Sugar builders.  The parser lowers surface syntax to these, so building
# formulas through them keeps ASTs print-stable.

def bot() -> Formula:
    return Neg(Top())


def f_or(a: Formula, b: Formula) -> Formula:
    return Neg(And(Neg(a), Neg(b)))


def imp(a: Formula, b: Formula) -> Formula:
    return Neg(And(a, Neg(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return And(imp(a, b), imp(b, a))


def dia(agent: str, f: Formula) -> Formula:
    return Neg(Box(agent, Neg(f)))


def dia_u(agent: str, constant: str, f: Formula) -> Formula:
    return Neg(BBoxU(agent, constant, Neg(f)))


def dia_b(agent: str, constant: str, f: Formula, g: Formula) -> Formula:
    return Neg(BBoxB(agent, constant, Neg(f), Neg(g)))


def big_and(parts: Iterable[Formula]) -> Formula:
    parts = list(parts)
    if not parts:
        return Top()
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def big_or(parts: Iterable[Formula]) -> Formula:
    parts = list(parts)
    if not parts:
        return bot()
    out = parts[0]
    for p in parts[1:]:
        out = f_or(out, p)
    return out


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (Top, Prop)):
        return ()
    if isinstance(f, Neg):
        return (f.sub,)
    if isinstance(f, And):
        return (f.left, f.right)
    if isinstance(f, Box):
        return (f.sub,)
    if isinstance(f, KvCond):
        return (f.sub,)
    if isinstance(f, BBoxU):
        return (f.sub,)
    if isinstance(f, BBoxB):
        return (f.left, f.right)
    raise TypeError(f"not a formula: {f!r}")


def rebuild(f: Formula, subs: tuple[Formula, ...]) -> Formula:
    if isinstance(f, (Top, Prop)):
        return f
    if isinstance(f, Neg):
        return Neg(subs[0])
    if isinstance(f, And):
        return And(subs[0], subs[1])
    if isinstance(f, Box):
        return Box(f.agent, subs[0])
    if isinstance(f, KvCond):
        return KvCond(f.agent, subs[0], f.constant)
    if isinstance(f, BBoxU):
        return BBoxU(f.agent, f.constant, subs[0])
    if isinstance(f, BBoxB):
        return BBoxB(f.agent, f.constant, subs[0], subs[1])
    raise TypeError(f"not a formula: {f!r}")


def walk(f: Formula) -> Iterator[Formula]:
    yield f
    for c in children(f):
        yield from walk(c)


# --- tokenizer -------------------------------------------------------------

_SINGLE = {
    "~": "TILDE", "&": "AMP", "|": "PIPE", "(": "LPAR", ")": "RPAR",
    "[": "LBRK", "]": "RBRK", ">": "RANG", "^": "CARET", ",": "COMMA",
}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if text.startswith("<->", i):
            toks.append(("IFF", "<->", i))
            i += 3
        elif text.startswith("->", i):
            toks.append(("ARROW", "->", i))
            i += 2
        elif ch == "<":
            toks.append(("LANG", "<", i))
            i += 1
        elif ch == "T":
            toks.append(("TOP", "T", i))
            i += 1
        elif ch == "F":
            toks.append(("BOT", "F", i))
            i += 1
        elif text.startswith("Kv", i):
            toks.append(("KV", "Kv", i))
            i += 2
        elif ch in _SINGLE:
            toks.append((_SINGLE[ch], ch, i))
            i += 1
        else:
            m = _IDENT_RE.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {ch!r}", i, text)
            toks.append(("IDENT", m.group(0), i))
            i = m.end()
    toks.append(("EOF", "", n))
    return toks


class _InferredVocab:
    """Collects identifier roles while parsing without a vocabulary."""

    def __init__(self):
        self.roles: dict[str, str] = {}
        self.order: dict[str, list[str]] = {"agent": [], "prop": [], "constant": []}

    def claim(self, name: str, role: str, pos: int, text: str) -> None:
        old = self.roles.get(name)
        if old is None:
            self.roles[name] = role
            self.order[role].append(name)
        elif old != role:
            raise ParseError(f"{name!r} used both as {old} and {role}", pos, text)

    def build(self) -> Vocabulary:
        def pad(kind: str, pool: str) -> tuple[str, ...]:
            names = self.order[kind]
            if names:
                return tuple(names)
            for cand in pool:
                if cand not in self.roles:
                    return (cand,)
            raise ValueError("cannot pick a filler symbol")

        return Vocabulary(agents=pad("agent", "abijk"),
                          props=pad("prop", "pqxyz"),
                          constants=pad("constant", "cdefg"))


class _Parser:
    def __init__(self, text: str, vocab: Optional[Vocabulary]):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.vocab = vocab
        self.infer = None if vocab is not None else _InferredVocab()

    def peek(self, ahead: int = 0) -> tuple[str, str, int]:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.toks[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2], self.text)
        self.pos += 1
        return tok

    def name(self, role: str) -> str:
        kind, value, at = self.take("IDENT")
        if self.vocab is not None:
            actual = self.vocab.kind_of(value)
            if actual != role:
                what = actual or "undeclared symbol"
                raise ParseError(f"{value!r} is {what}, expected a {role}", at, self.text)
        else:
            self.infer.claim(value, role, at, self.text)
        return value

    def formula(self) -> Formula:
        left = self.implication()
        if self.peek()[0] == "IFF":
            self.take("IFF")
            right = self.formula()
            return iff(left, right)
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "ARROW":
            self.take("ARROW")
            right = self.implication()
            return imp(left, right)
        return left

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.peek()[0] == "PIPE":
            self.take("PIPE")
            out = f_or(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.peek()[0] == "AMP":
            self.take("AMP")
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        if self.depth > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels",
                             self.peek()[2], self.text)
        self.depth += 1
        f = self.operand()
        self.depth -= 1
        return f

    def operand(self) -> Formula:
        kind, value, at = self.peek()
        if kind == "TILDE":
            self.take("TILDE")
            return Neg(self.unary())
        if kind == "TOP":
            self.take("TOP")
            return Top()
        if kind == "BOT":
            self.take("BOT")
            return bot()
        if kind == "LPAR":
            self.take("LPAR")
            f = self.formula()
            self.take("RPAR")
            return f
        if kind == "LBRK":
            self.take("LBRK")
            agent = self.name("agent")
            self.take("RBRK")
            return self.modal_tail(agent, diamond=False)
        if kind == "LANG":
            self.take("LANG")
            agent = self.name("agent")
            self.take("RANG")
            return self.modal_tail(agent, diamond=True)
        if kind == "KV":
            return self.kv()
        if kind == "IDENT":
            return Prop(self.name("prop"))
        raise ParseError(f"unexpected {value!r}", at, self.text)

    def modal_tail(self, agent: str, diamond: bool) -> Formula:
        if self.peek()[0] != "CARET":
            sub = self.unary()
            return dia(agent, sub) if diamond else Box(agent, sub)
        self.take("CARET")
        constant = self.name("constant")
        if self.peek()[0] == "LPAR":
            self.take("LPAR")
            first = self.formula()
            if self.peek()[0] == "COMMA":
                self.take("COMMA")
                second = self.formula()
                self.take("RPAR")
                if diamond:
                    return dia_b(agent, constant, first, second)
                return BBoxB(agent, constant, first, second)
            self.take("RPAR")
            sub = first       # parenthesized unary argument
        else:
            sub = self.unary()
        if diamond:
            return dia_u(agent, constant, sub)
        return BBoxU(agent, constant, sub)

    def kv(self) -> Formula:
        self.take("KV")
        self.take("LBRK")
        agent = self.name("agent")
        self.take("RBRK")
        self.take("LPAR")
        if self.peek()[0] == "IDENT" and self.peek(1)[0] == "RPAR":
            constant = self.name("constant")  # Kv[a](c) sugar for Kv[a](T, c)
            self.take("RPAR")
            return KvCond(agent, Top(), constant)
        sub = self.formula()
        self.take("COMMA")
        constant = self.name("constant")
        self.take("RPAR")
        return KvCond(agent, sub, constant)


def parse(text: str, vocab: Vocabulary) -> Formula:
    """Parse text against a vocabulary.  Raises ParseError with a column."""
    p = _Parser(text, vocab)
    f = p.formula()
    p.take("EOF")
    return f


def parse_infer(text: str) -> tuple[Formula, Vocabulary]:
    """Parse text, classifying identifiers by syntactic position.

    Categories never seen in the text are padded with one unused filler
    symbol so the resulting vocabulary is well formed.
    """
    p = _Parser(text, None)
    f = p.formula()
    p.take("EOF")
    return f, p.infer.build()


# --- printing --------------------------------------------------------------

def split_iff(f: Formula) -> Optional[tuple[Formula, Formula]]:
    """The sides (a, b) of f when f is iff(a, b), else None."""
    if (isinstance(f, And)
            and isinstance(f.left, Neg) and isinstance(f.left.sub, And)
            and isinstance(f.left.sub.right, Neg)
            and isinstance(f.right, Neg) and isinstance(f.right.sub, And)
            and isinstance(f.right.sub.right, Neg)):
        a = f.left.sub.left
        b = f.left.sub.right.sub
        if f.right.sub.left == b and f.right.sub.right.sub == a:
            return a, b
    return None


def print_formula(f: Formula) -> str:
    """Render a formula; parse(print_formula(f), vocab) returns f unchanged.

    Sugar is restored on fixed patterns, preferring F, diamonds, <-> and |
    over raw negations.
    """
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, And):
        sides = split_iff(f)
        if sides is not None:
            return f"({print_formula(sides[0])} <-> {print_formula(sides[1])})"
        return f"({print_formula(f.left)} & {print_formula(f.right)})"
    if isinstance(f, Box):
        return f"[{f.agent}]{print_formula(f.sub)}"
    if isinstance(f, KvCond):
        return f"Kv[{f.agent}]({print_formula(f.sub)}, {f.constant})"
    if isinstance(f, BBoxU):
        return f"[{f.agent}]^{f.constant} {print_formula(f.sub)}"
    if isinstance(f, BBoxB):
        return (f"[{f.agent}]^{f.constant}"
                f"({print_formula(f.left)}, {print_formula(f.right)})")
    if isinstance(f, Neg):
        g = f.sub
        if isinstance(g, Top):
            return "F"
        if isinstance(g, Box) and isinstance(g.sub, Neg):
            return f"<{g.agent}>{print_formula(g.sub.sub)}"
        if isinstance(g, BBoxU) and isinstance(g.sub, Neg):
            return f"<{g.agent}>^{g.constant} {print_formula(g.sub.sub)}"
        if (isinstance(g, BBoxB) and isinstance(g.left, Neg)
                and isinstance(g.right, Neg)):
            return (f"<{g.agent}>^{g.constant}"
                    f"({print_formula(g.left.sub)}, {print_formula(g.right.sub)})")
        if isinstance(g, And):
            if isinstance(g.left, Neg) and isinstance(g.right, Neg):
                return f"({print_formula(g.left.sub)} | {print_formula(g.right.sub)})"
            if isinstance(g.right, Neg):
                return f"({print_formula(g.left)} -> {print_formula(g.right.sub)})"
        return f"~{print_formula(g)}"
    raise TypeError(f"not a formula: {f!r}")


# --- language membership ---------------------------------------------------

def _strip_nn(f: Formula) -> Formula:
    while isinstance(f, Neg) and isinstance(f.sub, Neg):
        f = f.sub.sub
    return f


def nn_normalize(f: Formula) -> Formula:
    """Remove double negations everywhere."""
    f = _strip_nn(f)
    return rebuild(f, tuple(nn_normalize(c) for c in children(f)))


def _is_bot_shaped(f: Formula) -> bool:
    # bottom up to double negation: F, ~~F, ~T, ...
    g = _strip_nn(f)
    return isinstance(g, Neg) and isinstance(g.sub, Top)


def language_of(f: Formula) -> set[str]:
    """Tags among ELKvR, MLKvR, MLKvB, MLKv that f belongs to."""
    tags = {"ELKvR", "MLKvR", "MLKvB", "MLKv"}
    for node in walk(f):
        if isinstance(node, KvCond):
            tags &= {"ELKvR"}
        elif isinstance(node, BBoxU):
            tags &= {"MLKvR", "MLKv"}
            if not _is_bot_shaped(node.sub):
                tags.discard("MLKv")
        elif isinstance(node, BBoxB):
            tags &= {"MLKvB"}
    return tags


# --- translations ----------------------------------------------------------

def translate_T(f: Formula) -> Formula:
    """ELKvR to MLKvR: Kv[i](g, c) becomes [i]^c ~g, the rest is homomorphic."""
    if isinstance(f, (BBoxU, BBoxB)):
        raise LanguageError(f"not an ELKvR formula: {f}")
    if isinstance(f, KvCond):
        return BBoxU(f.agent, f.constant, Neg(translate_T(f.sub)))
    return rebuild(f, tuple(translate_T(c) for c in children(f)))


def translate_T_inv(f: Formula) -> Formula:
    """MLKvR to ELKvR: [i]^c g becomes Kv[i](~g, c), double negations removed."""
    if isinstance(f, (KvCond, BBoxB)):
        raise LanguageError(f"not an MLKvR formula: {f}")
    if isinstance(f, BBoxU):
        arg = nn_normalize(Neg(translate_T_inv(f.sub)))
        return KvCond(f.agent, arg, f.constant)
    return rebuild(f, tuple(translate_T_inv(c) for c in children(f)))


def embed_unary(f: Formula) -> Formula:
    """MLKvR into MLKvB: [i]^c g becomes [i]^c(g, g)."""
    if isinstance(f, (KvCond, BBoxB)):
        raise LanguageError(f"not an MLKvR formula: {f}")
    if isinstance(f, BBoxU):
        g = embed_unary(f.sub)
        return BBoxB(f.agent, f.constant, g, g)
    return rebuild(f, tuple(embed_unary(c) for c in children(f)))


def _negnn(f: Formula) -> Formula:
    # negate, folding a top-level double negation away
    return f.sub if isinstance(f, Neg) else Neg(f)


def _binary_diamond_expansion(agent: str, constant: str,
                              phi: Formula, psi: Formula) -> Formula:
    d1 = And(dia_u(agent, constant, phi), dia(agent, psi))
    d2 = And(dia_u(agent, constant, psi), dia(agent, phi))
    d3 = big_and([
        dia(agent, phi),
        dia(agent, psi),
        Neg(dia_u(agent, constant, phi)),
        Neg(dia_u(agent, constant, psi)),
        dia_u(agent, constant, f_or(phi, psi)),
    ])
    return f_or(f_or(d1, d2), d3)


def reduce_r(f: Formula) -> Formula:
    """Eliminate binary constant-indexed modalities, innermost first.

    Each diamond occurrence <i>^c(x, y) is replaced by the three-case
    disjunction over unary modalities:

        (<i>^c x & <i>y) | (<i>^c y & <i>x)
        | (<i>x & <i>y & ~<i>^c x & ~<i>^c y & <i>^c (x | y))

    Box occurrences are handled through the same expansion dualized.
    """
    if isinstance(f, KvCond):
        raise LanguageError(f"not an MLKvB formula: {f}")
    if isinstance(f, Neg) and isinstance(f.sub, BBoxB):
        inner = f.sub
        phi = _negnn(reduce_r(inner.left))
        psi = _negnn(reduce_r(inner.right))
        return _binary_diamond_expansion(inner.agent, inner.constant, phi, psi)
    if isinstance(f, BBoxB):
        phi = _negnn(reduce_r(f.left))
        psi = _negnn(reduce_r(f.right))
        return Neg(_binary_diamond_expansion(f.agent, f.constant, phi, psi))
    return rebuild(f, tuple(reduce_r(c) for c in children(f)))


# --- structural operations -------------------------------------------------

def substitute(f: Formula, sigma: Mapping[str, Formula]) -> Formula:
    """Simultaneous substitution of formulas for proposition names."""
    if isinstance(f, Prop) and f.name in sigma:
        return sigma[f.name]
    return rebuild(f, tuple(substitute(c, sigma) for c in children(f)))


Path = tuple[int, ...]


def subterm_at(f: Formula, path: Path) -> Formula:
    for idx in path:
        subs = children(f)
        if idx >= len(subs):
            raise ValueError(f"path {path} leaves the formula at {f}")
        f = subs[idx]
    return f


def replace_at(f: Formula, positions: Iterable[Path],
               psi: Formula, chi: Formula) -> Formula:
    """Replace psi by chi at each listed position.

    Every position must address a subterm equal to psi; anything else is
    rejected so proof checking cannot silently rewrite the wrong spot.
    """
    wanted = set(tuple(p) for p in positions)

    def go(node: Formula, here: Path) -> Formula:
        if here in wanted:
            if node != psi:
                raise ValueError(f"subterm at {here} is {node}, not {psi}")
            wanted.discard(here)
            return chi
        subs = children(node)
        return rebuild(node, tuple(go(c, here + (i,)) for i, c in enumerate(subs)))

    out = go(f, ())
    if wanted:
        raise ValueError(f"positions {sorted(wanted)} do not exist in {f}")
    return out


def occurrences(f: Formula, psi: Formula) -> list[Path]:
    """All paths where psi occurs in f, in preorder."""
    found: list[Path] = []

    def go(node: Formula, here: Path) -> None:
        if node == psi:
            found.append(here)
            return
        for i, c in enumerate(children(node)):
            go(c, here + (i,))

    go(f, ())
    return found


def modal_depth(f: Formula) -> int:
    subs = children(f)
    inner = max((modal_depth(c) for c in subs), default=0)
    if isinstance(f, (Box, KvCond, BBoxU, BBoxB)):
        return inner + 1
    return inner


def path_to_str(path: Path) -> str:
    return "-" if not path else ".".join(str(i) for i in path)


def str_to_path(text: str) -> Path:
    text = text.strip()
    if text == "-":
        return ()
    try:
        return tuple(int(part) for part in text.split("."))
    except ValueError:
        raise ValueError(f"bad path {text!r}") from None


# --- random formulas (property tests and fuzzing) --------------------------

def random_formula(rng, vocab: Vocabulary, depth: int, lang: str = "MLKvB") -> Formula:
    """Depth-bounded uniform shape sampling; deterministic under a seeded rng."""
    if lang not in ("ELKvR", "MLKvR", "MLKvB", "MLKv"):
        raise ValueError(f"unknown language {lang}")
    if depth <= 0:
        roll = rng.randrange(len(vocab.props) + 1)
        if roll == len(vocab.props):
            return Top() if rng.randrange(2) == 0 else bot()
        return Prop(vocab.props[roll])
    shape = rng.randrange(6)
    if shape == 0:
        return random_formula(rng, vocab, 0, lang)
    if shape == 1:
        return Neg(random_formula(rng, vocab, depth - 1, lang))
    if shape == 2:
        return And(random_formula(rng, vocab, depth - 1, lang),
                   random_formula(rng, vocab, depth - 1, lang))
    agent = vocab.agents[rng.randrange(len(vocab.agents))]
    if shape == 3:
        return Box(agent, random_formula(rng, vocab, depth - 1, lang))
    constant = vocab.constants[rng.randrange(len(vocab.constants))]
    if lang == "ELKvR":
        return KvCond(agent, random_formula(rng, vocab, depth - 1, lang), constant)
    if lang == "MLKvR":
        return BBoxU(agent, constant, random_formula(rng, vocab, depth - 1, lang))
    if lang == "MLKv":
        node = BBoxU(agent, constant, bot())
        return Neg(node) if shape == 5 else node
    if shape == 4:
        return BBoxB(agent, constant,
                     random_formula(rng, vocab, depth - 1, lang),
                     random_formula(rng, vocab, depth - 1, lang))
    return Neg(BBoxB(agent, constant,
                     random_formula(rng, vocab, depth - 1, lang),
                     random_formula(rng, vocab, depth - 1, lang)))
