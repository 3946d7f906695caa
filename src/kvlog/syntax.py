"""Formula syntax for a family of value-knowledge modal logics.

Four languages share one AST:

  ELKvR   epistemic boxes plus the conditional operator Kv[i](f, c),
          read "agent i knows the value of c on the f-successors".
  MLKvR   boxes plus a unary constant-indexed box [i]^c f.
  MLKvB   boxes plus a binary constant-indexed box [i]^c(f, g).
  MLKv    the MLKvR fragment where every [i]^c argument is bottom.

Only eight constructors are stored: Top, Prop, Neg, And, Box, KvCond,
BBoxU, BBoxB.  Everything else (F, |, ->, <->, diamonds) is sugar that
the parser desugars and the printer restores.  The parser tokenizes a
text in one regex pass and finds a token's column only for a ParseError;
memo_parser, which reads the formulas of a proof script, parses each
repeated parenthesized group once and shares its Formula.

Formulas share subterms (the sides of <->, reduce_r's phi and psi), so a
tree can be exponentially larger than its graph.  Whole-formula functions
loop over subterms(f), the distinct subterms by identity, children first,
and memoize by node id; occurrences and replace_at walk tree paths.  ==
is structural and expands each pair of subterms once; hash is structural
and cached on each node; repr runs from a stack and copies are the formula
itself.  No formula depth overflows Python's stack, except in pickle,
which still goes through __reduce__ once per level.
"""

from __future__ import annotations

import re
from contextlib import suppress
from dataclasses import dataclass, fields
from functools import reduce
from itertools import accumulate, islice, repeat
from typing import Callable, Iterable, Mapping, Optional


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
# accepts.  Each level is one recursive call of the parser; everything
# that reads the parsed formula runs without recursion.
MAX_NESTING = 100

# Longest text print_formula produces, checked on the graph before any
# string is built: reduce_r of [a]^c( x7 has 346 nodes but 2,089,820 chars.
MAX_PRINTED = 1_000_000


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


@dataclass(frozen=True, eq=False, repr=False)
class Formula:
    """Base of the eight node classes; == and hash are structural."""

    _hash = None                      # the cached hash; not a field

    def __str__(self) -> str:
        return print_formula(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        seen: set[tuple[int, int]] = set()    # pairs already expanded
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (kind := type(a)) is not type(b):
                return False
            if kind is Prop:
                if a.name != b.name:
                    return False
                continue
            if kind is Top or (pair := (id(a), id(b))) in seen:
                continue
            seen.add(pair)
            if kind is And:
                stack += ((a.right, b.right), (a.left, b.left))
            elif kind is Neg:
                stack.append((a.sub, b.sub))
            elif a.agent != b.agent or kind is not Box and a.constant != b.constant:
                return False
            elif kind is BBoxB:
                stack += ((a.right, b.right), (a.left, b.left))
            else:                             # Box, KvCond, BBoxU
                stack.append((a.sub, b.sub))
        return True

    def __hash__(self) -> int:
        stack: list = [self]
        while self._hash is None:
            g = stack.pop()
            if g is None:                     # the node below has its children hashed
                g = stack.pop()
                kind = type(g)
                if kind is And:
                    key = (kind, g.left._hash, g.right._hash)
                elif kind is Neg:
                    key = (kind, g.sub._hash)
                elif kind is Box:
                    key = (kind, g.agent, g.sub._hash)
                elif kind is BBoxB:
                    key = (kind, g.agent, g.constant, g.left._hash, g.right._hash)
                else:                         # KvCond, BBoxU
                    key = (kind, g.agent, g.constant, g.sub._hash)
                object.__setattr__(g, "_hash", hash(key))   # builds no __dict__
            elif g._hash is not None:
                continue
            elif (kind := type(g)) is Prop or kind is Top:
                key = (kind, g.name) if kind is Prop else kind
                object.__setattr__(g, "_hash", hash(key))
            elif kind is And or kind is BBoxB:
                stack += (g, None, g.right, g.left)
            else:
                stack += (g, None, g.sub)
        return self._hash

    def __repr__(self) -> str:
        """The dataclass repr, Neg(sub=Prop(name='p')), built from a stack."""
        out, stack = [], [self]
        while stack:
            x = stack.pop()
            if isinstance(x, str):
                out.append(x)
                continue
            parts = [f"{type(x).__qualname__}("]
            for k, fd in enumerate(fields(x)):
                value = getattr(x, fd.name)
                parts += (", " if k else "", f"{fd.name}=",
                          value if isinstance(value, Formula) else repr(value))
            parts.append(")")
            stack.extend(reversed(parts))
        return "".join(out)

    def __copy__(self):               # formulas are immutable
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):             # drops the cached hash: it is per process
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False, repr=False)
class Top(Formula):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Prop(Formula):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Neg(Formula):
    sub: Formula


@dataclass(frozen=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Box(Formula):
    agent: str
    sub: Formula


@dataclass(frozen=True, eq=False, repr=False)
class KvCond(Formula):
    """Conditional value knowledge: Kv[agent](sub, constant)."""

    agent: str
    sub: Formula
    constant: str


@dataclass(frozen=True, eq=False, repr=False)
class BBoxU(Formula):
    """Unary constant-indexed box [agent]^constant sub."""

    agent: str
    constant: str
    sub: Formula


@dataclass(frozen=True, eq=False, repr=False)
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
    return reduce(And, parts) if parts else Top()


def big_or(parts: Iterable[Formula]) -> Formula:
    parts = list(parts)
    return reduce(f_or, parts) if parts else bot()


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (Neg, Box, KvCond, BBoxU)):
        return (f.sub,)
    if isinstance(f, (And, BBoxB)):
        return (f.left, f.right)
    if isinstance(f, (Top, Prop)):
        return ()
    raise TypeError(f"not a formula: {f!r}")


def rebuild(f: Formula, subs) -> Formula:
    kind = type(f)
    if kind is Neg or kind is And:
        return kind(*subs)
    if kind is Box:
        return Box(f.agent, *subs)
    if kind is BBoxU or kind is BBoxB:
        return kind(f.agent, f.constant, *subs)
    if kind is KvCond:
        return KvCond(f.agent, subs[0], f.constant)
    if kind is Prop or kind is Top:
        return f
    raise TypeError(f"not a formula: {f!r}")


def subterms(f: Formula) -> list[Formula]:
    """The distinct subterms of f, told apart by object identity, each
    listed after its children, left ones first."""
    done: dict[int, Formula] = {}     # by id, in the order listed
    stack: list = [f]
    while stack:
        node = stack.pop()
        if node is None:              # the node below has its children done
            node = stack.pop()
            done[id(node)] = node
        elif id(node) in done:        # no formula contains itself, so no
            continue                  # node is met again before it is done
        elif (kind := type(node)) is Neg or kind is Box or kind is BBoxU \
                or kind is KvCond:    # children() inlined: the hot loop
            stack += (node, None, node.sub)
        elif kind is And or kind is BBoxB:
            stack += (node, None, node.right, node.left)
        elif kind is Prop or kind is Top:
            done[id(node)] = node
        else:
            raise TypeError(f"not a formula: {node!r}")
    return list(done.values())


def fold(f: Formula, step):
    """step(g, subs)'s result for f, with step called on each distinct subterm
    g in subterms order as one walk goes; subs holds its results for g's children."""
    done: dict[int, object] = {}      # by id, the results so far
    stack: list = [f]
    while stack:
        node = stack.pop()
        if node is None:              # the node below has its children done
            node = stack.pop()
            subs = ((done[id(node.left)], done[id(node.right)])
                    if (kind := type(node)) is And or kind is BBoxB
                    else (done[id(node.sub)],))
            done[id(node)] = step(node, subs)
        elif id(node) in done:
            continue
        elif (kind := type(node)) is Neg or kind is Box or kind is BBoxU \
                or kind is KvCond:    # children() inlined, as in subterms
            stack += (node, None, node.sub)
        elif kind is And or kind is BBoxB:
            stack += (node, None, node.right, node.left)
        elif kind is Prop or kind is Top:
            done[id(node)] = step(node, ())
        else:
            raise TypeError(f"not a formula: {node!r}")
    return done[id(f)]


def first_in_preorder(f: Formula, pred) -> Optional[Formula]:
    """The first subterm of f in preorder for which pred holds, or None:
    a node's own hit, else its left child's, else its right child's."""
    return fold(f, lambda g, hits: g if pred(g) else next(filter(None, hits), None))


# --- tokenizer -------------------------------------------------------------

# Token kinds by text, named in error messages; a token not listed is an
# identifier, and "" ends the token list.
_KINDS = {"<->": "IFF", "->": "ARROW", "<": "LANG", "T": "TOP", "F": "BOT",
          "Kv": "KV", "~": "TILDE", "&": "AMP", "|": "PIPE", "(": "LPAR",
          ")": "RPAR", "[": "LBRK", "]": "RBRK", ">": "RANG", "^": "CARET",
          ",": "COMMA", "": "EOF"}
_BLANKS = " \t\r\n"
# _BLANKS, then the first token that matches, in _KINDS order, identifiers
# last; any other character is a token of its own that _Parser rejects.
_TOKEN_RE = re.compile(r"[ \t\r\n]*(<->|->|<|T|F|Kv|[~&|()\[\]>^,]|[a-z][a-z0-9_]*|.)")


def _inferred_vocab(roles: dict[str, str]) -> Vocabulary:
    """The names of each role in order of first use, padded as parse_infer says."""
    def pad(kind: str, pool: str) -> tuple[str, ...]:
        names = tuple(name for name, role in roles.items() if role == kind)
        filler = next((cand for cand in pool if cand not in roles), None)
        if not names and filler is None:
            raise ValueError("cannot pick a filler symbol")
        return names or (filler,)

    return Vocabulary(agents=pad("agent", "abijk"), props=pad("prop", "pqxyz"),
                      constants=pad("constant", "cdefg"))


class _Parser:
    def __init__(self, text: str, vocab: Optional[Vocabulary],
                 memo: Optional[dict] = None):
        # one regex pass; text.rstrip leaves no blanks after the last token
        self.toks = toks = _TOKEN_RE.findall(text.rstrip(_BLANKS)) + [""]
        self.text, self.pos, self.depth = text, 0, 0
        bad = {t for t in set(toks).difference(_KINDS) if not "a" <= t[0] <= "z"}
        if bad:
            k = next(k for k, t in enumerate(toks) if t in bad)
            self.fail(f"unexpected character {toks[k]!r}", k)
        self.deepest = 0      # the most self.depth any unary call has met
        self.vocab = vocab
        self.roles = None if vocab is not None else {}   # name -> role, inferred
        self.memo = memo      # group text -> (Formula, nesting below it)
        if memo is not None:  # parenthesis depth after each token
            self.levels = list(accumulate(map({"(": 1, ")": -1}.get, toks, repeat(0))))

    def fail(self, msg: str, k: Optional[int] = None):
        """Raise msg at token k, by default the current one; finds its column."""
        tokens = _TOKEN_RE.finditer(self.text.rstrip(_BLANKS))
        m = next(islice(tokens, self.pos if k is None else k, None), None)
        raise ParseError(msg, len(self.text) if m is None else m.start(1), self.text)

    def expect(self, tok: str) -> None:
        if self.toks[self.pos] != tok:
            self.fail(f"expected {_KINDS[tok]}, found {self.toks[self.pos]!r}")
        self.pos += 1

    def name(self, role: str) -> str:
        value = self.toks[self.pos]
        if value in _KINDS:
            self.fail(f"expected IDENT, found {value!r}")
        if self.vocab is not None:
            actual = self.vocab.kind_of(value)
            if actual != role:
                self.fail(f"{value!r} is {actual or 'undeclared symbol'}, expected a {role}")
        elif (old := self.roles.setdefault(value, role)) != role:
            self.fail(f"{value!r} used both as {old} and {role}")
        self.pos += 1
        return value

    # a -> b -> c is a -> (b -> c), and so for <->, built in a loop
    def formula(self) -> Formula:
        parts = [self.implication()]
        while self.toks[self.pos] == "<->":
            self.pos += 1
            parts.append(self.implication())
        return reduce(lambda out, p: iff(p, out), reversed(parts))

    def implication(self) -> Formula:
        parts = [self.disjunction()]
        while self.toks[self.pos] == "->":
            self.pos += 1
            parts.append(self.disjunction())
        return reduce(lambda out, p: imp(p, out), reversed(parts))

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.toks[self.pos] == "|":
            self.pos += 1
            out = f_or(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.toks[self.pos] == "&":
            self.pos += 1
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        depth = self.depth
        if depth > MAX_NESTING:
            self.fail(f"formula nested deeper than {MAX_NESTING} levels")
        if depth > self.deepest:
            self.deepest = depth
        self.depth = depth + 1
        f = self.operand()
        self.depth = depth
        return f

    def operand(self) -> Formula:
        tok = self.toks[self.pos]
        if tok not in _KINDS:
            return Prop(self.name("prop"))
        if tok == "(":
            return self.group()
        self.pos += 1
        if tok == "~":
            return Neg(self.unary())
        if tok == "[" or tok == "<":
            agent = self.name("agent")
            self.expect("]" if tok == "[" else ">")
            return self.modal_tail(agent, diamond=tok == "<")
        if tok == "T":
            return Top()
        if tok == "F":
            return bot()
        if tok == "Kv":
            return self.kv()
        self.fail(f"unexpected {tok!r}", self.pos - 1)

    def group(self) -> Formula:
        """( formula ).  With a memo, a group whose tokens were parsed before
        is that same Formula, unless here it would nest past MAX_NESTING."""
        start, depth, key = self.pos, self.depth, None
        if self.memo is not None:
            with suppress(ValueError):   # no ")" closes it: a fresh parse fails
                end = self.levels.index(self.levels[start] - 1, start)
                key = " ".join(self.toks[start:end + 1])
                hit = self.memo.get(key)
                if hit is not None and depth + hit[1] <= MAX_NESTING:
                    self.pos = end + 1
                    self.deepest = max(self.deepest, depth + hit[1])
                    return hit[0]
        self.pos = start + 1
        f = self.formula()
        self.expect(")")
        if key is not None:   # nesting below it, or more: deepest is per text
            self.memo[key] = (f, self.deepest - depth)
        return f

    def modal_tail(self, agent: str, diamond: bool) -> Formula:
        if self.toks[self.pos] != "^":
            return (dia if diamond else Box)(agent, self.unary())
        self.pos += 1
        constant = self.name("constant")
        if self.toks[self.pos] != "(":
            return (dia_u if diamond else BBoxU)(agent, constant, self.unary())
        self.pos += 1
        args = [self.formula()]       # a parenthesized unary argument, or two
        if self.toks[self.pos] == ",":
            self.pos += 1
            args.append(self.formula())
        self.expect(")")
        return ((dia_b if diamond else BBoxB) if len(args) == 2
                else (dia_u if diamond else BBoxU))(agent, constant, *args)

    def kv(self) -> Formula:
        self.expect("[")
        agent = self.name("agent")
        self.expect("]")
        self.expect("(")
        if self.toks[self.pos] in _KINDS or self.toks[self.pos + 1] != ")":
            sub = self.formula()
            self.expect(",")
        else:
            sub = Top()       # Kv[a](c) sugar for Kv[a](T, c)
        constant = self.name("constant")
        self.expect(")")
        return KvCond(agent, sub, constant)

    def whole(self) -> Formula:
        f = self.formula()
        self.expect("")
        return f


def parse(text: str, vocab: Vocabulary) -> Formula:
    """Parse text against a vocabulary.  Raises ParseError with a column."""
    return _Parser(text, vocab).whole()


def memo_parser(vocab: Vocabulary) -> Callable[[str], Formula]:
    """parse(text, vocab) for a run of texts, such as the formulas of one
    proof script, sharing one memo: a parenthesized group whose tokens
    were parsed before is not parsed again, and is the same Formula."""
    memo: dict[str, tuple[Formula, int]] = {}
    return lambda text: _Parser(text, vocab, memo).whole()


def parse_infer(text: str) -> tuple[Formula, Vocabulary]:
    """Parse text, classifying identifiers by syntactic position.

    Categories never seen in the text are padded with one unused filler
    symbol so the resulting vocabulary is well formed.
    """
    p = _Parser(text, None)
    return p.whole(), _inferred_vocab(p.roles)


# --- printing --------------------------------------------------------------

def split_iff(f: Formula) -> Optional[tuple[Formula, Formula]]:
    """The sides (a, b) of f when f is iff(a, b), else None."""
    if (isinstance(f, And)
            and isinstance(f.left, Neg) and isinstance(f.left.sub, And)
            and isinstance(f.left.sub.right, Neg)
            and isinstance(f.right, Neg) and isinstance(f.right.sub, And)
            and isinstance(f.right.sub.right, Neg)):
        a, b = f.left.sub.left, f.left.sub.right.sub
        if f.right.sub.left == b and f.right.sub.right.sub == a:
            return a, b
    return None


def _pieces(f: Formula) -> tuple:
    """The printed text of f as strings and the subformulas printed between
    them.  Sugar is restored on fixed patterns, preferring F, diamonds, <->
    and | over raw negations."""
    if isinstance(f, Top):
        return ("T",)
    if isinstance(f, Prop):
        return (f.name,)
    if isinstance(f, And):
        sides = split_iff(f)
        if sides is not None:
            return ("(", sides[0], " <-> ", sides[1], ")")
        return ("(", f.left, " & ", f.right, ")")
    if isinstance(f, Box):
        return (f"[{f.agent}]", f.sub)
    if isinstance(f, KvCond):
        return (f"Kv[{f.agent}](", f.sub, f", {f.constant})")
    if isinstance(f, BBoxU):
        return (f"[{f.agent}]^{f.constant} ", f.sub)
    if isinstance(f, BBoxB):
        return (f"[{f.agent}]^{f.constant}(", f.left, ", ", f.right, ")")
    g = f.sub                         # f is a Neg
    if isinstance(g, Top):
        return ("F",)
    if isinstance(g, Box) and isinstance(g.sub, Neg):
        return (f"<{g.agent}>", g.sub.sub)
    if isinstance(g, BBoxU) and isinstance(g.sub, Neg):
        return (f"<{g.agent}>^{g.constant} ", g.sub.sub)
    if (isinstance(g, BBoxB) and isinstance(g.left, Neg)
            and isinstance(g.right, Neg)):
        return (f"<{g.agent}>^{g.constant}(", g.left.sub, ", ", g.right.sub, ")")
    if isinstance(g, And) and isinstance(g.right, Neg):
        if isinstance(g.left, Neg):
            return ("(", g.left.sub, " | ", g.right.sub, ")")
        return ("(", g.left, " -> ", g.right.sub, ")")
    return ("~", g)


def print_formula(f: Formula) -> str:
    """Render a formula; parse(print_formula(f), vocab) returns f unchanged.
    Raises ValueError, before building any string, past MAX_PRINTED."""
    pieces: dict[int, tuple] = {}
    size: dict[int, int] = {}
    for g in subterms(f):
        pieces[id(g)] = p = _pieces(g)
        size[id(g)] = sum(len(x) if isinstance(x, str) else size[id(x)]
                          for x in p)
    if size[id(f)] > MAX_PRINTED:
        raise ValueError(f"formula prints to {size[id(f)]:,} characters, "
                         f"over the cap of {MAX_PRINTED:,}")
    out, stack = [], [f]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        else:
            stack.extend(reversed(pieces[id(x)]))
    return "".join(out)


# --- language membership ---------------------------------------------------

def _negnn(f: Formula) -> Formula:
    # negate, folding a top-level double negation away
    return f.sub if isinstance(f, Neg) else Neg(f)


def nn_normalize(f: Formula) -> Formula:
    """Remove double negations everywhere."""
    return fold(f, lambda g, subs: _negnn(subs[0]) if isinstance(g, Neg)
                else rebuild(g, subs))


def _is_bot_shaped(f: Formula) -> bool:
    # bottom up to double negation: F, ~~F, ~T, ...
    while isinstance(f, Neg) and isinstance(f.sub, Neg):
        f = f.sub.sub
    return isinstance(f, Neg) and isinstance(f.sub, Top)


def language_of(f: Formula) -> set[str]:
    """Tags among ELKvR, MLKvR, MLKvB, MLKv that f belongs to."""
    tags = {"ELKvR", "MLKvR", "MLKvB", "MLKv"}
    for node in subterms(f):
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

def _reject(f: Formula, banned, language: str) -> None:
    bad = first_in_preorder(f, lambda g: isinstance(g, banned))
    if bad is not None:
        raise LanguageError(f"not an {language} formula: {bad}")


def translate_T(f: Formula) -> Formula:
    """ELKvR to MLKvR: Kv[i](g, c) becomes [i]^c ~g, the rest is homomorphic."""
    _reject(f, (BBoxU, BBoxB), "ELKvR")
    return fold(f, lambda g, subs: BBoxU(g.agent, g.constant, Neg(subs[0]))
                if isinstance(g, KvCond) else rebuild(g, subs))


def translate_T_inv(f: Formula) -> Formula:
    """MLKvR to ELKvR: [i]^c g becomes Kv[i](~g, c), double negations removed."""
    _reject(f, (KvCond, BBoxB), "MLKvR")
    return fold(f, lambda g, subs: rebuild(g, subs) if not isinstance(g, BBoxU)
                else KvCond(g.agent, nn_normalize(Neg(subs[0])), g.constant))


def embed_unary(f: Formula) -> Formula:
    """MLKvR into MLKvB: [i]^c g becomes [i]^c(g, g)."""
    _reject(f, (KvCond, BBoxB), "MLKvR")
    return fold(f, lambda g, subs: BBoxB(g.agent, g.constant, *subs, *subs)
                if isinstance(g, BBoxU) else rebuild(g, subs))


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
    _reject(f, KvCond, "MLKvB")

    def step(g, subs):
        if isinstance(g, BBoxB):
            return Neg(_binary_diamond_expansion(
                g.agent, g.constant, _negnn(subs[0]), _negnn(subs[1])))
        if isinstance(g, Neg) and isinstance(g.sub, BBoxB):
            return _negnn(subs[0])
        return rebuild(g, subs)

    return fold(f, step)


# --- structural operations -------------------------------------------------

def substitute(f: Formula, sigma: Mapping[str, Formula]) -> Formula:
    """Simultaneous substitution of formulas for proposition names."""
    return fold(f, lambda g, subs: sigma.get(g.name, g) if isinstance(g, Prop)
                else rebuild(g, subs))


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
    done: list[Formula] = []            # rebuilt subterms, in tree order
    stack: list = [(f, ())]
    while stack:
        node, here = stack.pop()
        if here is None:                # its children are rebuilt
            k = len(done) - len(children(node))
            done[k:] = [rebuild(node, done[k:])]
        elif here in wanted:
            if node != psi:
                raise ValueError(f"subterm at {here} is {node}, not {psi}")
            wanted.discard(here)
            done.append(chi)
        else:
            subs = children(node)
            stack.append((node, None))
            stack += [(subs[i], here + (i,)) for i in reversed(range(len(subs)))]
    if wanted:
        raise ValueError(f"positions {sorted(wanted)} do not exist in {f}")
    return done[0]


def occurrences(f: Formula, psi: Formula) -> list[Path]:
    """All paths where psi occurs in f, in preorder."""
    found: list[Path] = []
    stack: list[tuple[Formula, Path]] = [(f, ())]
    while stack:
        node, here = stack.pop()
        if node == psi:
            found.append(here)
        else:
            subs = children(node)
            stack.extend((subs[i], here + (i,)) for i in reversed(range(len(subs))))
    return found


def modal_depth(f: Formula) -> int:
    return fold(f, lambda g, depths: max(depths, default=0)
                + isinstance(g, (Box, KvCond, BBoxU, BBoxB)))


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

    def sub() -> Formula:
        return random_formula(rng, vocab, depth - 1, lang)

    if shape == 0:
        return random_formula(rng, vocab, 0, lang)
    if shape == 1:
        return Neg(sub())
    if shape == 2:
        return And(sub(), sub())
    agent = vocab.agents[rng.randrange(len(vocab.agents))]
    if shape == 3:
        return Box(agent, sub())
    constant = vocab.constants[rng.randrange(len(vocab.constants))]
    if lang == "ELKvR":
        return KvCond(agent, sub(), constant)
    if lang == "MLKvR":
        return BBoxU(agent, constant, sub())
    if lang == "MLKv":
        node = BBoxU(agent, constant, bot())
    else:
        node = BBoxB(agent, constant, sub(), sub())
    return node if shape == 4 else Neg(node)
