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

Every atom, equality included, is an :class:`Atom` whose ``symbol`` is its
REL; ``=`` is accepted under every signature.

The pretty-printer emits this same grammar and round-trips through
:func:`parse` up to whitespace and redundant parentheses, for every formula
at most ``MAX_NESTING // 2`` levels deep (see :func:`format_formula`).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .structures import RELATION_SYMBOLS, RELATIONS, _THEORY_RELATIONS


class FormulaSyntaxError(ValueError):
    """Raised on malformed formula text; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SignatureError(ValueError):
    """Raised when a formula uses a relation symbol foreign to a signature."""


class EvaluationError(ValueError):
    """Raised when evaluation hits an unassigned free variable."""


class BudgetExceededError(RuntimeError):
    """A search or an evaluation ran past its budget; ``nodes`` is the
    count (game nodes, classes, cells) that went over."""

    def __init__(self, message: str, nodes: int):
        super().__init__(message)
        self.nodes = nodes


@dataclass(frozen=True)
class Signature:
    theory: str
    relations: frozenset[str]


SIGNATURES: dict[str, Signature] = {
    theory: Signature(theory, frozenset(symbols))
    for theory, symbols in RELATION_SYMBOLS.items()
}

KEYWORDS = frozenset({"forall", "exists", "true", "false"})
_RESERVED_WORDS = KEYWORDS | {s for s in RELATIONS if s.isidentifier()}


# --- abstract syntax ---------------------------------------------------------
#
# Every node carries ``nesting``, the number of levels of the tree below it,
# ``depth``, its quantifier depth, ``free``, its free variables, and
# ``symbols``, its relation symbols (``=`` excluded), all set when the node
# is built, so checking a formula against MAX_NESTING or a signature, or
# asking for its depth or free variables, costs one attribute read however
# the formula was made.

_FACTS = dict(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Atom:
    symbol: str
    left: str
    right: str
    nesting = depth = 0
    free: frozenset[str] = field(**_FACTS)
    symbols: frozenset[str] = field(**_FACTS)

    def __post_init__(self) -> None:
        object.__setattr__(self, "free", frozenset((self.left, self.right)))
        object.__setattr__(self, "symbols", frozenset(
            () if self.symbol == "=" else (self.symbol,)))


@dataclass(frozen=True)
class TrueFormula:
    nesting = depth = 0
    free = symbols = frozenset()


@dataclass(frozen=True)
class FalseFormula:
    nesting = depth = 0
    free = symbols = frozenset()


@dataclass(frozen=True)
class Not:
    body: "Formula"
    nesting: int = field(**_FACTS)
    depth: int = field(**_FACTS)
    free: frozenset[str] = field(**_FACTS)
    symbols: frozenset[str] = field(**_FACTS)

    def __post_init__(self) -> None:
        body = self.body
        object.__setattr__(self, "nesting", body.nesting + 1)
        object.__setattr__(self, "depth", body.depth)
        object.__setattr__(self, "free", body.free)
        object.__setattr__(self, "symbols", body.symbols)


@dataclass(frozen=True)
class _Binary:
    left: "Formula"
    right: "Formula"
    nesting: int = field(**_FACTS)
    depth: int = field(**_FACTS)
    free: frozenset[str] = field(**_FACTS)
    symbols: frozenset[str] = field(**_FACTS)

    def __post_init__(self) -> None:
        left, right = self.left, self.right
        object.__setattr__(self, "nesting",
                           max(left.nesting, right.nesting) + 1)
        object.__setattr__(self, "depth", max(left.depth, right.depth))
        object.__setattr__(self, "free", left.free | right.free)
        object.__setattr__(self, "symbols", left.symbols | right.symbols)


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
    nesting: int = field(**_FACTS)
    depth: int = field(**_FACTS)
    free: frozenset[str] = field(**_FACTS)
    symbols: frozenset[str] = field(**_FACTS)

    def __post_init__(self) -> None:
        body = self.body
        object.__setattr__(self, "nesting", body.nesting + 1)
        object.__setattr__(self, "depth", body.depth + 1)
        object.__setattr__(self, "free", body.free - {self.var})
        object.__setattr__(self, "symbols", body.symbols)


@dataclass(frozen=True)
class Exists(_Quantifier):
    pass


@dataclass(frozen=True)
class Forall(_Quantifier):
    pass


Formula = Union[Atom, TrueFormula, FalseFormula, Not, And, Or,
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
        if rel not in RELATIONS:
            raise FormulaSyntaxError(
                f"expected a relation symbol, found {rel!r}", rel_pos)
        right = self._ident(self._pos())
        if (self.sig is not None and rel != "="
                and rel not in self.sig.relations):
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
    return f.depth


def free_variables(f: Formula) -> frozenset[str]:
    return f.free


def formula_symbols(f: Formula) -> frozenset[str]:
    """Relation symbols occurring in ``f`` (equality excluded)."""
    return f.symbols


def check_signature(f: Formula, theory: str) -> None:
    """Raise :class:`SignatureError` if ``f`` uses a relation symbol outside
    the theory's signature, and ``ValueError`` on an unknown theory."""
    if theory not in SIGNATURES:
        raise ValueError(f"unknown theory {theory!r}")
    foreign = f.symbols - SIGNATURES[theory].relations
    if foreign:
        raise SignatureError(
            f"symbols {sorted(foreign)} not in the {theory} signature")


def ensure_sentence(f: Formula) -> None:
    _check_nesting(f)
    fv = free_variables(f)
    if fv:
        raise EvaluationError(
            f"not a sentence: free variables {sorted(fv)}")


# --- miniscoping ---------------------------------------------------------------

def miniscope(f: Formula) -> Formula:
    """An equivalent formula with every quantifier pushed as far in as it
    goes, which narrows the set of variables free at once.

    ``exists x`` moves inside the conjuncts that do not mention ``x``,
    distributes over ``|`` and commutes with an ``exists`` below it when
    that lets it move further in; ``forall x`` does the dual (moves inside
    the disjuncts that do not mention ``x``, distributes over ``&``,
    commutes with ``forall``).  A quantifier whose variable is not free in
    its body is dropped: structures are never empty.  A result nesting
    deeper than :data:`MAX_NESTING` (flattening a balanced chain can deepen
    it) is not returned; ``f`` is returned instead.
    """
    _check_nesting(f)
    scoped = _miniscope(f)
    return scoped if scoped.nesting <= MAX_NESTING else f


def _miniscope(f: Formula) -> Formula:
    """Miniscoped ``f``; a subtree that does not change is returned as is."""
    kind = type(f)
    if kind is Not:
        body = _miniscope(f.body)
        return f if body is f.body else Not(body)
    if kind in _BINARY_OPS:
        left, right = _miniscope(f.left), _miniscope(f.right)
        if left is f.left and right is f.right:
            return f
        return kind(left, right)
    if kind is Exists or kind is Forall:
        body = _miniscope(f.body)
        moved = _moved(kind, f.var, body)
        if moved is not None:
            return moved
        return f if body is f.body else kind(f.var, body)
    return f


def _push(quantifier: type, var: str, body: Formula) -> Formula:
    """``quantifier(var, body)`` with the quantifier moved in; ``body`` is
    already miniscoped."""
    moved = _moved(quantifier, var, body)
    return quantifier(var, body) if moved is None else moved


def _moved(quantifier: type, var: str, body: Formula) -> Formula | None:
    """:func:`_push`, or None when the quantifier stays where it is."""
    if var not in body.free:
        return body
    spread, pulled = (Or, And) if quantifier is Exists else (And, Or)
    kind = type(body)
    if kind is spread:
        return spread(_push(quantifier, var, body.left),
                      _push(quantifier, var, body.right))
    if kind is pulled:
        parts = _operands(body, pulled)
        outside = [p for p in parts if var not in p.free]
        if outside:
            inside = _chain(pulled, [p for p in parts if var in p.free])
            return _chain(pulled, outside + [_push(quantifier, var, inside)])
    elif kind is quantifier:
        # swap the two quantifiers when the inner one can then move in
        inner = _moved(quantifier, var, body.body)
        if inner is not None:
            return _push(quantifier, body.var, inner)
    return None


def _operands(f: Formula, op: type) -> list[Formula]:
    """The operands of a chain of ``op`` nodes, left to right."""
    parts = []
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is op:
            stack += (g.right, g.left)
        else:
            parts.append(g)
    return parts


def _chain(op: type, parts: list[Formula]) -> Formula:
    """The left-nested ``op`` chain of ``parts``."""
    f = parts[0]
    for p in parts[1:]:
        f = op(f, p)
    return f


# --- satisfaction ------------------------------------------------------------
#
# The evaluator compiles a formula into a program of array operations, run
# on a value stack.  Each variable bound by a quantifier gets one boolean
# axis; the value of a node is an array that is ``size`` long along the
# axes of its free bound variables and 1 long along every other axis, so
# connectives are broadcasts and quantifiers are reductions.  A quantifier
# takes the lowest axis not held by a variable free at it, so a node costs
# ``size ** (its free bound variables)`` cells however many names the
# formula uses.  An atom is the relation over the points of its operands'
# axes, and a variable free in the whole formula is its point from
# ``env``: an atom on one axis is a row, a column or a diagonal, and only
# an atom on two axes is a matrix.  :func:`evaluate_classes` runs the same
# program on a batch of structures of one size with a leading batch axis
# in front of the variables' axes: an atom reads each structure's class
# row along it, a value that does not depend on the classes stays 1 long
# on it, and every reduction is along the variable's axis + 1.

#: The most cells :func:`evaluate` may allocate for one node, and
#: :func:`evaluate_classes` for one node, or the class rows, of all its
#: structures together.  A node with ``w`` free bound variables counts
#: ``max(size, 2) ** w`` cells per structure.  Past the bound, both raise
#: :class:`BudgetExceededError` before they allocate anything.  Counting at
#: least 2 per axis keeps the number of array axes at most 23, well inside
#: NumPy's limit, at every size.  The game solver of :mod:`limlaw.efgame`
#: reads the same bound for its pair-code table, ``size ** 2`` cells per
#: board: it refuses a structure of more than 2048 points the same way.
MAX_EVALUATION_CELLS = 1 << 22

_RELATION, _CONSTANT, _NOT, _AND, _OR, _IMPLIES, _IFF, _EXISTS, _FORALL = \
    range(9)
_OPCODES = {And: _AND, Or: _OR, Implies: _IMPLIES, Iff: _IFF,
            Exists: _EXISTS, Forall: _FORALL}
_ANY, _ALL = np.logical_or.reduce, np.logical_and.reduce


@dataclass(frozen=True)
class _Program:
    """A formula compiled for :func:`evaluate`.

    ``steps`` run in order; an operand of ``_RELATION`` is an axis (int) or
    the name of a free variable (str).  ``width`` is the most bound
    variables free at one node."""

    steps: tuple[tuple, ...]
    axes: int
    width: int


def _program(f: Formula) -> _Program:
    """The program of ``f``, compiled on first use and kept on the node."""
    program = vars(f).get("_program")
    if program is None:
        program = _compile_program(f)
        object.__setattr__(f, "_program", program)
    return program


def _compile_program(f: Formula) -> _Program:
    steps = []
    axes = width = 0
    # pre-order, right operand first; reversed, it is post-order
    work: list[tuple[Formula, dict[str, int]]] = [(f, {})]
    while work:
        g, scope = work.pop()
        kind = type(g)
        if kind is Atom:
            steps.append((_RELATION, g.symbol, scope.get(g.left, g.left),
                          scope.get(g.right, g.right)))
        elif kind is Not:
            steps.append((_NOT,))
            work.append((g.body, scope))
        elif kind in _BINARY_OPS:
            steps.append((_OPCODES[kind],))
            work += ((g.left, scope), (g.right, scope))
        elif kind is Exists or kind is Forall:
            held = {scope[v] for v in g.free if v in scope}
            axis = 0
            while axis in held:
                axis += 1
            axes = max(axes, axis + 1)
            # a node's free variables are among those of the body of the
            # innermost quantifier above it, so the bodies are the widest
            width = max(width, len(held) + (g.var in g.body.free))
            steps.append((_OPCODES[kind], axis))
            work.append((g.body, {**scope, g.var: axis}))
        elif kind is TrueFormula or kind is FalseFormula:
            steps.append((_CONSTANT, kind is TrueFormula))
        else:
            raise TypeError(f"not a formula: {g!r}")
    steps.reverse()
    return _Program(tuple(steps), axes, width)


def evaluation_cells(f: Formula, size: int) -> int:
    """Cells of the largest node :func:`evaluate` allocates for ``f`` on a
    structure of ``size`` points, as compared with
    :data:`MAX_EVALUATION_CELLS`."""
    _check_nesting(f)
    return max(size, 2) ** _program(f).width


def _check_cells(f: Formula, size: int) -> int:
    """:func:`evaluation_cells`, or :class:`BudgetExceededError` past the
    bound."""
    cells = evaluation_cells(f, size)
    if cells > MAX_EVALUATION_CELLS:
        raise BudgetExceededError(
            f"evaluating needs {cells} cells for one node on a structure of "
            f"size {size}, over the bound of {MAX_EVALUATION_CELLS}", cells)
    return cells


def evaluate(struct, f: Formula, env: dict[str, int] | None = None) -> bool:
    """Standard first-order satisfaction on a relational view.

    ``env`` must assign every free variable of ``f`` to a point of
    ``struct``; quantifiers range over all points.  Bound-variable shadowing
    uses the innermost binding.  Raises :class:`BudgetExceededError` if a
    node would hold more than :data:`MAX_EVALUATION_CELLS` cells (see
    :func:`evaluation_cells`).  The view's ``relation`` method supplies the
    atoms.
    """
    _check_nesting(f)
    program = _program(f)
    n = struct.size
    if f.free:
        env = env or {}
        missing = f.free - env.keys()
        if missing:
            raise EvaluationError(
                f"unassigned free variables {sorted(missing)}")
        for name in f.free:
            if not 1 <= env[name] <= n:
                raise EvaluationError(
                    f"{name} = {env[name]} is not a point of a structure of "
                    f"size {n}")
    check_signature(f, struct.theory)
    _check_cells(f, n)
    free = {name: env[name] for name in f.free}
    return bool(_run(program, n, struct.relation, free, batched=False))


def batch_rows(theory: str, f: Formula, size: int) -> int:
    """How many structures of ``size`` points :func:`evaluate_classes`
    takes at once for the sentence ``f``: as many as keep every node, and
    the class rows, within :data:`MAX_EVALUATION_CELLS` cells, and at
    least one.  A structure counts the cells of its largest node or the
    ``size + 1`` of its class row, whichever is more, so the class rows of
    a batch stay within the bound however narrow the sentence.

    Raises what :func:`evaluate_classes` raises on ``f`` whatever the
    batch: ``ValueError`` on an unknown theory, :class:`EvaluationError` if
    ``f`` has free variables, :class:`SignatureError` on a symbol outside
    the theory's signature, and :class:`BudgetExceededError` if not even
    one structure fits.
    """
    check_signature(f, theory)
    ensure_sentence(f)
    return max(1, MAX_EVALUATION_CELLS // _structure_cells(f, size))


def _structure_cells(f: Formula, size: int) -> int:
    """The cells :func:`batch_rows` counts for one structure."""
    return max(_check_cells(f, size), size + 1)


def evaluate_classes(theory: str, classes: np.ndarray, f: Formula
                     ) -> np.ndarray:
    """:func:`evaluate` of the sentence ``f`` on a batch of structures of
    the theory, all of one size: whether each satisfies ``f``.

    Row ``b`` of the integer array ``classes`` is the ``cls_of`` of
    structure ``b`` (see :class:`~limlaw.structures.StructureView`): entry
    ``p`` is the 0-based class index of point ``p``, and entry 0 is unused,
    so a batch of structures of ``size`` points has ``size + 1`` columns.
    The rows are trusted to be class rows.  Raises what :func:`batch_rows`
    raises, and :class:`BudgetExceededError` when there are more rows than
    :func:`batch_rows` allows, before allocating anything.
    """
    if classes.ndim != 2 or classes.shape[1] < 2:
        raise ValueError(
            f"class rows must be a 2-d array with a column per point and "
            f"column 0, not of shape {classes.shape}")
    size = classes.shape[1] - 1
    rows = batch_rows(theory, f, size)
    count = len(classes)
    if count > rows:
        cells = count * _structure_cells(f, size)
        raise BudgetExceededError(
            f"evaluating {count} structures of size {size} at once needs "
            f"{cells} cells, over the bound of {MAX_EVALUATION_CELLS}; at "
            f"most {rows} fit", cells)
    program = _program(f)
    rel = _THEORY_RELATIONS[theory]
    batch = np.arange(count).reshape((count,) + (1,) * program.axes)

    def relation(symbol: str, left: np.ndarray, right: np.ndarray
                 ) -> np.ndarray:
        return rel[symbol](left, right, classes[batch, left],
                           classes[batch, right])

    value = _run(program, size, relation, {}, batched=True)
    return np.broadcast_to(value.reshape(-1), count).copy()


def _run(program: _Program, size: int, relation, free: dict[str, int], *,
         batched: bool) -> np.ndarray:
    """The value of ``program`` on ``size`` points, an array 1 long along
    every variable's axis.

    ``relation(symbol, left, right)`` is an atom over broadcast arrays of
    points, and ``free`` gives the point of every free variable.  With
    ``batched`` every array has a leading batch axis, which only the
    arrays ``relation`` returns may make longer than 1.
    """
    lead = int(batched)
    # the points an atom operand stands for: an axis's range, or a point
    flat = [1] * (lead + program.axes)
    points = {name: np.full(flat, point) for name, point in free.items()}
    if program.axes:
        every = np.arange(1, size + 1)
        for axis in range(program.axes):
            flat[lead + axis] = size
            points[axis] = every.reshape(flat)
            flat[lead + axis] = 1
    atoms: dict[tuple, np.ndarray] = {}  # no step writes into an array
    stack: list[np.ndarray] = []
    push, pop = stack.append, stack.pop
    for step in program.steps:
        op = step[0]
        if op == _RELATION:
            value = atoms.get(step)
            if value is None:
                value = atoms[step] = relation(step[1], points[step[2]],
                                               points[step[3]])
            push(value)
        elif op == _CONSTANT:
            push(np.full(flat, step[1]))
        elif op == _NOT:
            push(~pop())
        elif op == _EXISTS:
            push(_ANY(pop(), axis=lead + step[1], keepdims=True))
        elif op == _FORALL:
            push(_ALL(pop(), axis=lead + step[1], keepdims=True))
        else:
            right, left = pop(), pop()
            if op == _AND:
                push(left & right)
            elif op == _OR:
                push(left | right)
            elif op == _IMPLIES:
                push(~left | right)
            else:
                push(left == right)
    return pop()


# --- translation into the convex language ------------------------------------

#: The definition in the convex language ``{<, E}`` of every relation
#: symbol outside it, as a formula over the atom's two names.  Each is
#: quantifier-free, so translating keeps quantifier depth, and each agrees
#: with the symbol's definition in :data:`~limlaw.structures.RELATIONS`
#: read on the convex view of the same shape.
_CONVEX_DEFINITIONS = {
    "<1": lambda a, b: Atom("<", a, b),
    # within a block <2 reverses <1; across blocks they agree
    "<2": lambda a, b: Or(And(Atom("E", a, b), Atom("<", b, a)),
                          And(Not(Atom("E", a, b)), Atom("<", a, b))),
    "p1": lambda a, b: And(Not(Atom("E", a, b)), Atom("<", a, b)),
    "p2": lambda a, b: And(Atom("E", a, b), Atom("<", a, b)),
}


def translate_to_convex(theory: str, f: Formula) -> Formula:
    """Rewrite a formula of the theory into the convex language: each atom
    on a symbol of :data:`_CONVEX_DEFINITIONS` becomes its definition.

    Raises :class:`SignatureError` if ``f`` uses a symbol outside the
    theory's signature.  A subtree with no such atom is returned as it is,
    so a convex formula comes back as the same object.
    """
    _check_nesting(f)
    check_signature(f, theory)
    return _to_convex(f)


def _to_convex(f: Formula) -> Formula:
    if f.symbols <= SIGNATURES["convex"].relations:
        return f
    kind = type(f)
    if kind is Atom:
        return _CONVEX_DEFINITIONS[f.symbol](f.left, f.right)
    if kind is Not:
        return Not(_to_convex(f.body))
    if kind in _BINARY_OPS:
        return kind(_to_convex(f.left), _to_convex(f.right))
    return kind(f.var, _to_convex(f.body))
