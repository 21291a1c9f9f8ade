"""The one canonical encoding of the four structure theories.

All four theories — convex linear orders, layered permutations, compositions,
and fractured orders — are determined up to isomorphism by the ordered
sequence of their class/block/part sizes, so a single :class:`PartSequence`
is the shared canonical form, and a structure of any theory is the view
``as_relational(theory, shape)``.  Points are numbered 1..n in <-order
(respectively <1-order).  Each relation symbol, equality included, has one
definition in :data:`RELATIONS`, a function of the two points and their
class indices that every view reads, point by point and over arrays.

Everything here is immutable.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import index as _as_int

import numpy as np

THEORIES = ("convex", "layered", "composition", "fractured")

#: Binary relation symbols of each theory's signature (equality is always
#: available and not listed).  ASCII spellings: "p1"/"p2" stand for the two
#: partial orders of compositions and fractured orders.
RELATION_SYMBOLS: dict[str, tuple[str, ...]] = {
    "convex": ("<", "E"),
    "layered": ("<1", "<2"),
    "composition": ("E", "p1"),
    "fractured": ("E", "p1", "p2"),
}

#: The one definition of every relation symbol, equality included: whether
#: ``i symbol j`` holds for points ``i`` and ``j`` in classes ``ci`` and
#: ``cj``.  The operators mean the same on ints and on int arrays, so
#: :meth:`StructureView.holds` and :meth:`StructureView.relation` both read
#: this table.
RELATIONS = {
    "=": lambda i, j, ci, cj: i == j,
    "<": lambda i, j, ci, cj: i < j,
    "<1": lambda i, j, ci, cj: i < j,
    # within a block <2 reverses <1; across blocks they agree
    "<2": lambda i, j, ci, cj: ((ci == cj) & (j < i)) | ((ci != cj) & (i < j)),
    "E": lambda i, j, ci, cj: ci == cj,
    "p1": lambda i, j, ci, cj: ci < cj,
    "p2": lambda i, j, ci, cj: (ci == cj) & (i < j),
}

#: Each theory's relations, ``=`` included, shared by all of its views.
_THEORY_RELATIONS = {
    theory: {symbol: RELATIONS[symbol] for symbol in ("=", *symbols)}
    for theory, symbols in RELATION_SYMBOLS.items()
}


@dataclass(frozen=True)
class PartSequence:
    """A non-empty sequence of positive integers (part sizes in order)."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            normalized = tuple(_as_int(p) for p in self.parts)
        except TypeError as exc:
            raise ValueError(f"parts must be integers: {self.parts!r}") from exc
        object.__setattr__(self, "parts", normalized)
        if not normalized:
            raise ValueError("part sequence must be non-empty")
        for p in normalized:
            if p < 1:
                raise ValueError(f"every part must be >= 1, got {p}")

    @property
    def size(self) -> int:
        """Number of points: the sum of the parts."""
        return sum(self.parts)

    @classmethod
    def from_text(cls, text: str) -> "PartSequence":
        """Parse the literal format: comma-separated positive integers.

        Whitespace is ignored; zeros, negatives and empty input are rejected.
        """
        items = [piece.strip() for piece in text.split(",")]
        if items == [""]:
            raise ValueError("empty structure literal")
        parts = []
        for piece in items:
            if not piece:
                raise ValueError(f"empty part in literal {text!r}")
            try:
                value = int(piece)
            except ValueError as exc:
                raise ValueError(f"bad part {piece!r} in literal {text!r}") from exc
            parts.append(value)
        return cls(tuple(parts))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]


@dataclass(frozen=True)
class ConvexLinearOrder:
    """A linear order whose equivalence classes are order-intervals.

    The classes are the consecutive blocks delimited by ``shape``.
    """

    shape: PartSequence

    @property
    def size(self) -> int:
        return self.shape.size


#: The one-point structure, base case of every construction.
BULLET = ConvexLinearOrder(PartSequence((1,)))


def oplus(left: ConvexLinearOrder, right: ConvexLinearOrder) -> ConvexLinearOrder:
    """Ordered sum: place ``right`` after ``left``; classes are never merged."""
    return ConvexLinearOrder(PartSequence(left.shape.parts + right.shape.parts))


def hat(c: ConvexLinearOrder) -> ConvexLinearOrder:
    """Add one point to the last class."""
    parts = c.shape.parts
    return ConvexLinearOrder(PartSequence(parts[:-1] + (parts[-1] + 1,)))


def decompose(c: ConvexLinearOrder) -> tuple[int, ...]:
    """The unique step bits rebuilding ``c`` from the one-point structure,
    which :func:`shape_from_bits` inverts: 1 grows the last class, 0 starts
    a new singleton class.  Always has length ``size - 1``."""
    bits: list[int] = []
    for part in c.shape:
        bits.append(0)
        bits.extend([1] * (part - 1))
    return tuple(bits[1:])


def shape_from_bits(bits) -> PartSequence:
    """The shape built from the one-point structure by one step per bit, in
    order: 1 grows the last class, 0 starts a new singleton class."""
    parts = [1]
    for bit in bits:
        if bit:
            parts[-1] += 1
        else:
            parts.append(1)
    return PartSequence(tuple(parts))


def enumerate_shapes(n: int) -> list[PartSequence]:
    """All 2^(n-1) part sequences of size ``n``, in step-bitmask order."""
    if n < 1:
        raise ValueError(f"size must be >= 1, got {n}")
    return [shape_from_bits((mask >> i) & 1 for i in range(n - 1))
            for mask in range(1 << (n - 1))]


class StructureView:
    """Uniform read-only relational view of a structure.

    Exposes ``size`` and an evaluator ``holds(symbol, i, j)`` for ``=`` and
    each binary relation symbol of the theory's signature, on points
    1..size, and the same relations over arrays of points (``relation``).
    Both read :data:`RELATIONS`.
    """

    __slots__ = ("theory", "shape", "size", "signature", "symbols",
                 "cls_of", "_rel", "_classes")

    def __init__(self, theory: str, shape: PartSequence):
        if theory not in THEORIES:
            raise ValueError(f"unknown theory {theory!r}")
        self.theory = theory
        self.shape = shape
        self.size = shape.size
        self.symbols = RELATION_SYMBOLS[theory]
        self.signature = frozenset(self.symbols)
        # cls_of[p] is the 0-based class index of point p (index 0 unused)
        cls_of = [0] * (self.size + 1)
        point = 1
        for idx, part in enumerate(shape):
            for _ in range(part):
                cls_of[point] = idx
                point += 1
        self.cls_of = tuple(cls_of)
        self._rel = _THEORY_RELATIONS[theory]
        self._classes: np.ndarray | None = None  # cls_of, for relation()

    def holds(self, symbol: str, i: int, j: int) -> bool:
        """Whether ``i symbol j`` holds; raises ``ValueError`` on a point
        outside 1..size."""
        try:
            rel = self._rel[symbol]
        except KeyError:
            raise ValueError(
                f"relation {symbol!r} not in the {self.theory} signature"
            ) from None
        size = self.size
        for point in (i, j):
            if not 0 < point <= size:
                raise ValueError(f"point {point!r} is not in 1..{size}")
        cls_of = self.cls_of
        return rel(i, j, cls_of[i], cls_of[j])

    def relation(self, symbol: str, left: np.ndarray, right: np.ndarray
                 ) -> np.ndarray:
        """``holds(symbol, i, j)`` over the broadcast integer arrays ``left``
        and ``right`` of points.  The work is that of the broadcast result:
        points on one axis give a row, a column or a diagonal, on two axes a
        matrix.  It trusts its arrays: being the evaluator's hot path, it
        does not check that every point is in 1..size."""
        try:
            rel = self._rel[symbol]
        except KeyError:
            raise ValueError(
                f"relation {symbol!r} not in the {self.theory} signature"
            ) from None
        if self._classes is None:
            self._classes = np.array(self.cls_of)
        classes = self._classes
        return rel(left, right, classes[left], classes[right])

    def points(self) -> range:
        return range(1, self.size + 1)

    def __repr__(self) -> str:
        return f"StructureView({self.theory!r}, {str(self.shape)!r})"


def as_relational(theory: str, shape: PartSequence) -> StructureView:
    """Relational view factory; raises ``ValueError`` on an unknown theory tag."""
    return StructureView(theory, shape)


def structure_view(structure) -> StructureView:
    """A view as it is, or the convex view of a :class:`ConvexLinearOrder`."""
    if isinstance(structure, StructureView):
        return structure
    if isinstance(structure, ConvexLinearOrder):
        return StructureView("convex", structure.shape)
    raise ValueError(f"cannot build a relational view of {structure!r}")
