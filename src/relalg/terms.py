"""Terms and sentences over the relation-algebra signature.

Concrete syntax:

    term     := sum ;  sum := meet { "+" meet } ;  meet := relprod { "." relprod }
    relprod  := unary { ";" unary } ;  unary := "-" unary | postfix
    postfix  := atom { "^" } ;  atom := ident | "1'" | "0" | "1" | "(" term ")"
    sentence := term ("="|"<=") term | eqlist "->" eq | eq "<->" eq

Postfix ^ is converse, prefix - is complement, ; is relative product,
. is meet, + is join.  All binary operators associate to the left;
unary operators bind tighter than binary ones, ; tighter than .,
and . tighter than +.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import FiniteAlgebra, derived_element


def _node(cls):
    """``cls`` as a frozen dataclass that keeps the hash its first ``hash()``
    computes, which would otherwise recurse through every node on each
    lookup of a sentence.  Pickled state leaves the kept hash out, since
    ``str`` hashes differ between processes."""
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", field_hash(self))
            return self._hash

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if k != "_hash"}
    cls.__hash__, cls.__getstate__ = __hash__, __getstate__
    return cls


class Term:
    __slots__ = ()


@_node
class Var(Term):
    name: str


@_node
class IdentConst(Term):
    pass


@_node
class ZeroConst(Term):
    pass


@_node
class OneConst(Term):
    pass


@_node
class Neg(Term):
    child: Term


@_node
class Conv(Term):
    child: Term


@_node
class Add(Term):
    left: Term
    right: Term


@_node
class Meet(Term):
    left: Term
    right: Term


@_node
class Comp(Term):
    left: Term
    right: Term


class Sentence:
    __slots__ = ()


@_node
class Equation(Sentence):
    lhs: Term
    rhs: Term


@_node
class Inclusion(Sentence):
    """lhs <= rhs, sugar for lhs + rhs = rhs."""

    lhs: Term
    rhs: Term


@_node
class QuasiEquation(Sentence):
    """antecedents jointly imply the consequent, per assignment."""

    antecedents: tuple[Sentence, ...]
    consequent: Sentence


@_node
class Biconditional(Sentence):
    left: Sentence
    right: Sentence


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvalError(ValueError):
    pass


# --- lexer -----------------------------------------------------------------

_PUNCT = ("<->", "->", "<=", "+", ".", ";", "-", "^", "=", "(", ")", ",")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "1" and i + 1 < n and text[i + 1] == "'":
            tokens.append(("const", "1'", i))
            i += 2
            continue
        if c in "01":
            tokens.append(("const", c, i))
            i += 1
            continue
        if c.islower():
            j = i
            while j < n and (text[j].islower() or text[j].isdigit() or text[j] == "_"):
                j += 1
            tokens.append(("var", text[i:j], i))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(("punct", p, i))
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


# the binary operators, loosest first; unary operators bind tighter still
_BINARY = (("+", Add), (".", Meet), (";", Comp))
_UNARY, _ATOM = len(_BINARY), len(_BINARY) + 1
_PRECEDENCE = {op: (lv, node) for lv, (op, node) in enumerate(_BINARY)}


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, value):
        kind, val, at = self.next()
        if kind != "punct" or val != value:
            raise ParseError(f"expected {value!r}", at)

    def at_punct(self, *values):
        kind, val, _ = self.peek()
        return kind == "punct" and val in values

    def term(self, level=0) -> Term:
        """A term whose binary operators all come from ``_BINARY[level:]``,
        each associating to the left (precedence climbing)."""
        t = self.unary()
        while True:
            lv, node = _PRECEDENCE.get(self.peek()[1], (-1, None))
            if lv < level:
                return t
            self.next()
            t = node(t, self.term(lv + 1))

    def unary(self) -> Term:
        if self.at_punct("-"):
            self.next()
            return Neg(self.unary())
        return self.postfix()

    def postfix(self) -> Term:
        t = self.atom()
        while self.at_punct("^"):
            self.next()
            t = Conv(t)
        return t

    def atom(self) -> Term:
        kind, val, at = self.next()
        if kind == "var":
            return Var(val)
        if kind == "const":
            return {"1'": IdentConst(), "0": ZeroConst(), "1": OneConst()}[val]
        if kind == "punct" and val == "(":
            t = self.term()
            self.expect_punct(")")
            return t
        raise ParseError(f"unexpected {val or 'end of input'!r}", at)

    def atomic_sentence(self) -> Sentence:
        lhs = self.term()
        kind, val, at = self.next()
        if kind == "punct" and val == "=":
            return Equation(lhs, self.term())
        if kind == "punct" and val == "<=":
            return Inclusion(lhs, self.term())
        raise ParseError("expected '=' or '<='", at)

    def sentence(self) -> Sentence:
        first = self.atomic_sentence()
        if self.at_punct(","):
            ants = [first]
            while self.at_punct(","):
                self.next()
                ants.append(self.atomic_sentence())
            self.expect_punct("->")
            return QuasiEquation(tuple(ants), self.atomic_sentence())
        if self.at_punct("->"):
            self.next()
            return QuasiEquation((first,), self.atomic_sentence())
        if self.at_punct("<->"):
            self.next()
            return Biconditional(first, self.atomic_sentence())
        return first

    def finish(self):
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", at)


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    p.finish()
    return t


def parse_sentence(text: str) -> Sentence:
    p = _Parser(text)
    s = p.sentence()
    p.finish()
    return s


# --- printing --------------------------------------------------------------

def _print_term(t: Term, level: int) -> str:
    """``t`` as an operand at ``level``, an index into ``_BINARY`` or
    ``_UNARY``/``_ATOM``, parenthesized if it binds more loosely."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, IdentConst):
        return "1'"
    if isinstance(t, ZeroConst):
        return "0"
    if isinstance(t, OneConst):
        return "1"
    if isinstance(t, Neg):
        s = "-" + _print_term(t.child, _UNARY)
        return s if level <= _UNARY else f"({s})"
    if isinstance(t, Conv):
        # the operand of postfix ^ must be an atom
        return _print_term(t.child, _ATOM) + "^"
    for lv, (op, node) in enumerate(_BINARY):
        if isinstance(t, node):
            s = _print_term(t.left, lv) + op + _print_term(t.right, lv + 1)
            return s if level <= lv else f"({s})"
    raise TypeError(f"not a term: {t!r}")


def term_to_str(t: Term) -> str:
    return _print_term(t, 0)


def sentence_to_str(s: Sentence) -> str:
    if isinstance(s, Equation):
        return f"{term_to_str(s.lhs)} = {term_to_str(s.rhs)}"
    if isinstance(s, Inclusion):
        return f"{term_to_str(s.lhs)} <= {term_to_str(s.rhs)}"
    if isinstance(s, QuasiEquation):
        ants = ", ".join(sentence_to_str(x) for x in s.antecedents)
        return f"{ants} -> {sentence_to_str(s.consequent)}"
    if isinstance(s, Biconditional):
        return f"{sentence_to_str(s.left)} <-> {sentence_to_str(s.right)}"
    raise TypeError(f"not a sentence: {s!r}")


# --- free variables and evaluation -----------------------------------------

def free_vars(x) -> set[str]:
    if isinstance(x, Var):
        return {x.name}
    if isinstance(x, (IdentConst, ZeroConst, OneConst)):
        return set()
    if isinstance(x, (Neg, Conv)):
        return free_vars(x.child)
    if isinstance(x, (Add, Meet, Comp, Biconditional)):
        return free_vars(x.left) | free_vars(x.right)
    if isinstance(x, (Equation, Inclusion)):
        return free_vars(x.lhs) | free_vars(x.rhs)
    if isinstance(x, QuasiEquation):
        return free_vars(x.consequent).union(*map(free_vars, x.antecedents))
    raise TypeError(f"not a term or sentence: {x!r}")


def eval_term(a: FiniteAlgebra, t: Term, env) -> int:
    """Evaluate a term in ``a`` under the assignment ``env`` (name -> index)."""
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise EvalError(f"unbound variable {t.name!r}") from None
    if isinstance(t, IdentConst):
        return a.ident
    if isinstance(t, ZeroConst):
        return derived_element(a, "zero")
    if isinstance(t, OneConst):
        return derived_element(a, "one")
    if isinstance(t, Neg):
        return a.neg[eval_term(a, t.child, env)]
    if isinstance(t, Conv):
        return a.conv[eval_term(a, t.child, env)]
    if isinstance(t, Add):
        return a.add[eval_term(a, t.left, env)][eval_term(a, t.right, env)]
    if isinstance(t, Meet):
        x = eval_term(a, t.left, env)
        y = eval_term(a, t.right, env)
        return a.neg[a.add[a.neg[x]][a.neg[y]]]
    if isinstance(t, Comp):
        return a.comp[eval_term(a, t.left, env)][eval_term(a, t.right, env)]
    raise TypeError(f"not a term: {t!r}")


def holds(a: FiniteAlgebra, s: Sentence, env) -> bool:
    """Truth of a sentence under one assignment."""
    if isinstance(s, Equation):
        return eval_term(a, s.lhs, env) == eval_term(a, s.rhs, env)
    if isinstance(s, Inclusion):
        r = eval_term(a, s.rhs, env)
        return a.add[eval_term(a, s.lhs, env)][r] == r
    if isinstance(s, QuasiEquation):
        if all(holds(a, x, env) for x in s.antecedents):
            return holds(a, s.consequent, env)
        return True
    if isinstance(s, Biconditional):
        return holds(a, s.left, env) == holds(a, s.right, env)
    raise TypeError(f"not a sentence: {s!r}")


def check_validity(a: FiniteAlgebra, s: Sentence):
    """None when the sentence holds under every assignment, else the
    lexicographically first counterexample (variables alphabetical,
    elements by index)."""
    names = sorted(free_vars(s))
    for values in product(range(a.size), repeat=len(names)):
        env = dict(zip(names, values))
        if not holds(a, s, env):
            return env
    return None
