"""First-order syntax and semantics over binary-relational signatures.

Grammar (ASCII spellings; ``p1``/``p2`` spell the two partial orders):

    sentence   := formula
    formula    := quantified | iff
    quantified := ("forall" | "exists") IDENT "." formula
    iff        := implies { "<->" implies }
    implies    := or { "->" or }            (right-associative)
    or         := and { "|" and }
    and        := unary { "&" unary }
    unary      := "!" unary | "(" formula ")" | atom | "true" | "false" | quantified
    atom       := IDENT REL IDENT
    REL        := "<" | "E" | "<1" | "<2" | "p1" | "p2" | "="

The pretty-printer emits this same grammar and round-trips through
:func:`parse` up to whitespace and redundant parentheses, for every formula
at most ``MAX_NESTING // 2`` levels deep (see :func:`format_formula`).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

from .structures import RELATION_SYMBOLS


class FormulaSyntaxError(ValueError):
    """Raised on malformed formula text; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SignatureError(ValueError):
    """Raised when a formula uses a relation symbol foreign to a signature."""


class EvaluationError(ValueError):
    """Raised when evaluation hits an unassigned free variable."""


@dataclass(frozen=True)
class Signature:
    theory: str
    relations: frozenset[str]


SIGNATURES: dict[str, Signature] = {
    theory: Signature(theory, frozenset(symbols))
    for theory, symbols in RELATION_SYMBOLS.items()
}

REL_SPELLINGS = ("<->", "->", "<1", "<2", "<", "=", "E", "p1", "p2")
ATOM_RELS = frozenset({"<", "E", "<1", "<2", "p1", "p2", "="})
KEYWORDS = frozenset({"forall", "exists", "true", "false"})
_RESERVED_WORDS = KEYWORDS | {"E", "p1", "p2"}


# --- abstract syntax ---------------------------------------------------------
#
# Every node carries ``nesting``, the number of levels of the tree below it,
# set when the node is built, so checking a formula against MAX_NESTING
# costs one attribute read however the formula was made.

@dataclass(frozen=True)
class Atom:
    symbol: str
    left: str
    right: str
    nesting = 0


@dataclass(frozen=True)
class Equals:
    left: str
    right: str
    nesting = 0


@dataclass(frozen=True)
class TrueFormula:
    nesting = 0


@dataclass(frozen=True)
class FalseFormula:
    nesting = 0


@dataclass(frozen=True)
class Not:
    body: "Formula"
    nesting: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nesting", self.body.nesting + 1)


@dataclass(frozen=True)
class _Binary:
    left: "Formula"
    right: "Formula"
    nesting: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nesting",
                           max(self.left.nesting, self.right.nesting) + 1)


@dataclass(frozen=True)
class And(_Binary):
    pass


@dataclass(frozen=True)
class Or(_Binary):
    pass


@dataclass(frozen=True)
class Implies(_Binary):
    pass


@dataclass(frozen=True)
class Iff(_Binary):
    pass


@dataclass(frozen=True)
class _Quantifier:
    var: str
    body: "Formula"
    nesting: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nesting", self.body.nesting + 1)


@dataclass(frozen=True)
class Exists(_Quantifier):
    pass


@dataclass(frozen=True)
class Forall(_Quantifier):
    pass


Formula = Union[Atom, Equals, TrueFormula, FalseFormula, Not, And, Or,
                Implies, Iff, Exists, Forall]

TRUE = TrueFormula()
FALSE = FalseFormula()

_BINARY_OPS = {And: "&", Or: "|", Implies: "->", Iff: "<->"}


# --- tokenizer / parser ------------------------------------------------------

#: The deepest formula :func:`parse` accepts.  Neither the parentheses,
#: negations, quantifiers and right-nested ``->``/``<->`` open at any point
#: of the text, nor the depth of the parsed formula tree (a chain of ``&`` or
#: ``|`` nests to the left), may exceed it; deeper input is a
#: :class:`FormulaSyntaxError`.  It keeps the parser and every recursive pass
#: over a parsed formula well inside Python's default recursion limit.  The
#: public functions below that walk a formula reject a tree deeper than this
#: with the same error, so formulas built in code are bounded too.
MAX_NESTING = 100

_TOKEN_RE = re.compile(r"<->|->|<1|<2|[<=|&!().]|[A-Za-z_][A-Za-z0-9_]*")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Signature | None):
        self.text = text
        self.sig = sig
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def _peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def _pos(self) -> int:
        if self.i < len(self.tokens):
            return self.tokens[self.i][1]
        return len(self.text)

    def _next(self) -> str:
        if self.i >= len(self.tokens):
            raise FormulaSyntaxError("unexpected end of input", len(self.text))
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def _expect(self, tok: str) -> None:
        got = self._peek()
        if got != tok:
            raise FormulaSyntaxError(f"expected {tok!r}, found {got!r}", self._pos())
        self.i += 1

    def parse(self) -> Formula:
        f = self._formula()
        if self.i < len(self.tokens):
            raise FormulaSyntaxError(
                f"trailing input starting with {self._peek()!r}", self._pos())
        _check_nesting(f)
        return f

    def _nested(self, parse) -> Formula:
        """Run ``parse`` one nesting level deeper."""
        if self.depth == MAX_NESTING:
            raise FormulaSyntaxError(
                f"formula nests deeper than {MAX_NESTING} levels", self._pos())
        self.depth += 1
        f = parse()
        self.depth -= 1
        return f

    def _formula(self) -> Formula:
        if self._peek() in ("forall", "exists"):
            return self._quantified()
        return self._iff()

    def _quantified(self) -> Formula:
        kw = self._next()
        pos = self._pos()
        var = self._ident(pos)
        self._expect(".")
        body = self._nested(self._formula)
        return Forall(var, body) if kw == "forall" else Exists(var, body)

    def _ident(self, pos: int) -> str:
        tok = self._next()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            raise FormulaSyntaxError(f"expected a variable, found {tok!r}", pos)
        if tok in _RESERVED_WORDS:
            raise FormulaSyntaxError(
                f"{tok!r} is reserved and cannot name a variable", pos)
        return tok

    def _iff(self) -> Formula:
        left = self._implies()
        if self._peek() == "<->":
            self.i += 1
            return Iff(left, self._nested(self._iff))
        return left

    def _implies(self) -> Formula:
        left = self._or()
        if self._peek() == "->":
            self.i += 1
            return Implies(left, self._nested(self._implies))
        return left

    def _or(self) -> Formula:
        left = self._and()
        while self._peek() == "|":
            self.i += 1
            left = Or(left, self._and())
        return left

    def _and(self) -> Formula:
        left = self._unary()
        while self._peek() == "&":
            self.i += 1
            left = And(left, self._unary())
        return left

    def _unary(self) -> Formula:
        tok = self._peek()
        if tok == "!":
            self.i += 1
            return Not(self._nested(self._unary))
        if tok == "(":
            self.i += 1
            inner = self._nested(self._formula)
            self._expect(")")
            return inner
        if tok == "true":
            self.i += 1
            return TRUE
        if tok == "false":
            self.i += 1
            return FALSE
        if tok in ("forall", "exists"):
            return self._quantified()
        return self._atom()

    def _atom(self) -> Formula:
        pos = self._pos()
        left = self._ident(pos)
        rel_pos = self._pos()
        rel = self._next()
        if rel not in ATOM_RELS:
            raise FormulaSyntaxError(
                f"expected a relation symbol, found {rel!r}", rel_pos)
        right = self._ident(self._pos())
        if rel == "=":
            return Equals(left, right)
        if self.sig is not None and rel not in self.sig.relations:
            raise SignatureError(
                f"relation {rel!r} is not in the {self.sig.theory} signature "
                f"(at position {rel_pos})")
        return Atom(rel, left, right)


def _check_nesting(f: Formula) -> None:
    """Raise :class:`FormulaSyntaxError` if the formula tree is deeper than
    :data:`MAX_NESTING`."""
    if f.nesting > MAX_NESTING:
        raise FormulaSyntaxError(
            f"formula tree is deeper than {MAX_NESTING} levels", 0)


def parse(text: str, sig: Signature | None = None) -> Formula:
    """Parse formula text; with ``sig``, reject symbols outside the signature.

    Free variables are not an error here — check with
    :func:`free_variables` / :func:`ensure_sentence`.
    """
    return _Parser(text, sig).parse()


# --- printing ----------------------------------------------------------------

def format_formula(f: Formula) -> str:
    """Render in the canonical grammar.

    ``parse(format_formula(f)) == f`` holds whenever the printed text nests
    at most :data:`MAX_NESTING` levels.  Each level of the tree prints at
    most two (``!(``, or a parenthesized quantifier under a connective), so
    it holds for every tree at most ``MAX_NESTING // 2`` levels deep.  Deeper
    trees can print text that :func:`parse` rejects: ``exists x.`` over 50
    nested ``!`` prints 101 levels.
    """
    _check_nesting(f)
    return _format(f)


def _format(f: Formula) -> str:
    if isinstance(f, Atom):
        return f"{f.left} {f.symbol} {f.right}"
    if isinstance(f, Equals):
        return f"{f.left} = {f.right}"
    if isinstance(f, TrueFormula):
        return "true"
    if isinstance(f, FalseFormula):
        return "false"
    if isinstance(f, Not):
        body = _format(f.body)
        if isinstance(f.body, _Binary):
            return f"!{body}"  # binary nodes already carry parentheses
        return f"!({body})"
    if isinstance(f, _Binary):
        op = _BINARY_OPS[type(f)]
        return f"({_subterm(f.left)} {op} {_subterm(f.right)})"
    if isinstance(f, Exists):
        return f"exists {f.var}. {_format(f.body)}"
    if isinstance(f, Forall):
        return f"forall {f.var}. {_format(f.body)}"
    raise TypeError(f"not a formula: {f!r}")


def _subterm(f: Formula) -> str:
    # a quantifier directly under a binary connective must be parenthesized,
    # otherwise its body would swallow the rest of the chain
    if isinstance(f, (Exists, Forall)):
        return f"({_format(f)})"
    return _format(f)


# --- structural queries ------------------------------------------------------

def quantifier_depth(f: Formula) -> int:
    """Maximum nesting depth of quantifiers."""
    _check_nesting(f)
    return _quantifier_depth(f)


def _quantifier_depth(f: Formula) -> int:
    if isinstance(f, (Atom, Equals, TrueFormula, FalseFormula)):
        return 0
    if isinstance(f, Not):
        return _quantifier_depth(f.body)
    if isinstance(f, _Binary):
        return max(_quantifier_depth(f.left), _quantifier_depth(f.right))
    if isinstance(f, (Exists, Forall)):
        return 1 + _quantifier_depth(f.body)
    raise TypeError(f"not a formula: {f!r}")


def free_variables(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset({f.left, f.right})
    if isinstance(f, Equals):
        return frozenset({f.left, f.right})
    if isinstance(f, (TrueFormula, FalseFormula)):
        return frozenset()
    if isinstance(f, Not):
        return free_variables(f.body)
    if isinstance(f, _Binary):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, (Exists, Forall)):
        return free_variables(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def formula_symbols(f: Formula) -> frozenset[str]:
    """Relation symbols occurring in ``f`` (equality excluded)."""
    if isinstance(f, Atom):
        return frozenset({f.symbol})
    if isinstance(f, (Equals, TrueFormula, FalseFormula)):
        return frozenset()
    if isinstance(f, Not):
        return formula_symbols(f.body)
    if isinstance(f, _Binary):
        return formula_symbols(f.left) | formula_symbols(f.right)
    if isinstance(f, (Exists, Forall)):
        return formula_symbols(f.body)
    raise TypeError(f"not a formula: {f!r}")


def ensure_sentence(f: Formula) -> None:
    _check_nesting(f)
    fv = free_variables(f)
    if fv:
        raise EvaluationError(
            f"not a sentence: free variables {sorted(fv)}")


# --- satisfaction ------------------------------------------------------------

def evaluate(struct, f: Formula, env: dict[str, int] | None = None) -> bool:
    """Standard first-order satisfaction on a relational view.

    ``env`` must assign every free variable of ``f`` to a point of
    ``struct``; quantifiers range over all points.  Bound-variable shadowing
    uses the innermost binding.
    """
    _check_nesting(f)
    scope = dict(env) if env else {}
    missing = free_variables(f) - scope.keys()
    if missing:
        raise EvaluationError(f"unassigned free variables {sorted(missing)}")
    foreign = formula_symbols(f) - struct.signature
    if foreign:
        raise SignatureError(
            f"symbols {sorted(foreign)} not in the {struct.theory} signature")
    n = struct.size
    holds = struct.holds

    def rec(g: Formula) -> bool:
        if isinstance(g, Atom):
            return holds(g.symbol, scope[g.left], scope[g.right])
        if isinstance(g, Equals):
            return scope[g.left] == scope[g.right]
        if isinstance(g, TrueFormula):
            return True
        if isinstance(g, FalseFormula):
            return False
        if isinstance(g, Not):
            return not rec(g.body)
        if isinstance(g, And):
            return rec(g.left) and rec(g.right)
        if isinstance(g, Or):
            return rec(g.left) or rec(g.right)
        if isinstance(g, Implies):
            return (not rec(g.left)) or rec(g.right)
        if isinstance(g, Iff):
            return rec(g.left) == rec(g.right)
        if isinstance(g, (Exists, Forall)):
            saved = scope.get(g.var)
            want = isinstance(g, Exists)
            result = not want
            for p in range(1, n + 1):
                scope[g.var] = p
                if rec(g.body) == want:
                    result = want
                    break
            if saved is None:
                scope.pop(g.var, None)
            else:
                scope[g.var] = saved
            return result
        raise TypeError(f"not a formula: {g!r}")

    return rec(f)


# --- atomic rewritings between theories --------------------------------------

def _rewrite_atoms(f: Formula, table) -> Formula:
    if isinstance(f, Atom):
        return table(f)
    if isinstance(f, (Equals, TrueFormula, FalseFormula)):
        return f
    if isinstance(f, Not):
        return Not(_rewrite_atoms(f.body, table))
    if isinstance(f, _Binary):
        return type(f)(_rewrite_atoms(f.left, table),
                       _rewrite_atoms(f.right, table))
    if isinstance(f, Exists):
        return Exists(f.var, _rewrite_atoms(f.body, table))
    if isinstance(f, Forall):
        return Forall(f.var, _rewrite_atoms(f.body, table))
    raise TypeError(f"not a formula: {f!r}")


def translate_layered(f: Formula) -> Formula:
    """Rewrite a {<1, <2} formula into the {<, E} language.

    ``a <1 b`` becomes ``a < b``; ``a <2 b`` becomes
    ``(a E b & b < a) | (!(a E b) & a < b)``.  Quantifier depth is
    preserved — the replacements are quantifier-free.
    """
    def table(atom: Atom) -> Formula:
        a, b = atom.left, atom.right
        if atom.symbol == "<1":
            return Atom("<", a, b)
        if atom.symbol == "<2":
            return Or(And(Atom("E", a, b), Atom("<", b, a)),
                      And(Not(Atom("E", a, b)), Atom("<", a, b)))
        raise SignatureError(
            f"relation {atom.symbol!r} is not in the layered signature")

    _check_nesting(f)
    return _rewrite_atoms(f, table)


def translate_composition(f: Formula) -> Formula:
    """Rewrite a {E, p1} formula (p2 also accepted, for fractured-order
    input) into the {<, E} language.

    ``a p1 b`` becomes ``!(a E b) & a < b``; ``a p2 b`` becomes
    ``a E b & a < b``; ``E`` atoms are unchanged.
    """
    def table(atom: Atom) -> Formula:
        a, b = atom.left, atom.right
        if atom.symbol == "E":
            return atom
        if atom.symbol == "p1":
            return And(Not(Atom("E", a, b)), Atom("<", a, b))
        if atom.symbol == "p2":
            return And(Atom("E", a, b), Atom("<", a, b))
        raise SignatureError(
            f"relation {atom.symbol!r} is not in the composition/fractured "
            f"signature")

    _check_nesting(f)
    return _rewrite_atoms(f, table)


def translate_to_convex(theory: str, f: Formula) -> Formula:
    """Translate a sentence of any supported theory into the convex language."""
    if theory == "convex":
        _check_nesting(f)
        foreign = formula_symbols(f) - SIGNATURES["convex"].relations
        if foreign:
            raise SignatureError(
                f"symbols {sorted(foreign)} not in the convex signature")
        return f
    if theory == "layered":
        return translate_layered(f)
    if theory in ("composition", "fractured"):
        return translate_composition(f)
    raise ValueError(f"unknown theory {theory!r}")
