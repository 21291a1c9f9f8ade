"""Back-and-forth game deciders.

Two routes to the same relation, kept deliberately independent so each can
cross-check the other:

* :class:`GameSolver` / :func:`equiv_k` — a memoized game-tree search over
  any pair of relational views.  A position with three or more rounds
  left is memoized under its exact description: rounds remaining and, for
  each side, the theory, the parts and the played points.  Nothing
  coarser would share more on convex views: a marked convex linear order
  is isomorphic only to itself, since a finite linear order has no
  automorphism but the identity.  The solver
  reads each structure once, through the view's ``relation`` (the same
  definitions ``holds`` reads), into a pair-code table: one small int per
  ordered pair of points, packing every symbol of the signature in both
  directions.  A structure whose table would pass
  ``logic.MAX_EVALUATION_CELLS`` cells is refused with
  :class:`BudgetExceededError` before the table is built.
  Consistency of a reply, the one-point extension types and the
  partial-isomorphism check all compare codes.

  :meth:`GameSolver.type_id` reads the same codes from one side only: a
  structure's depth-k game type, the set of (atomic type, depth k-1 type)
  over its points, interned to an id (two structures are k-equivalent iff
  their types are equal, by the Ehrenfeucht-Fraisse/Hintikka-type
  theorem).  Telling N structures apart then takes N types, not N(N-1)/2
  games, which is how the class chain is verified: on the depth-2 chain,
  396 types in 4-6 ms against 13,353 search nodes in 45-76 ms (2-core
  host, Python 3.11).  ``equiv`` is a hybrid of the two routes.  With
  three or more rounds left it searches pairs, and stops at Spoiler's
  first winning move, where a type enumerates every move of its side to
  full depth.  A position with two or fewer rounds left is decided by
  comparing the two sides' types over their played points, each computed
  once however many pairings share it, with no memo entry of its own.
  Linear orders of 20 and 40 points at k = 5 take 6,575 nodes in 0.07 s;
  the search alone took 33,831 nodes in 0.14 s and typing both sides to
  full depth takes 108,287 types in 1.6 s.

* :func:`fast_equiv_convex` — a compositional decider for convex linear
  orders that splits the board at the chosen point and solves the two
  marked sub-segments independently.

Both deciders are pure functions of their inputs.  The segment decider keeps
two module-level caches keyed by immutable values: ``_type_memo`` maps
(depth, segment) to a type id and ``_type_intern`` maps each type to its id.
They are process-global and unsynchronised: every caller in the process
shares them, they grow until :func:`clear_fast_memo` empties them, and
nothing here coordinates concurrent callers.  A :class:`GameSolver` instance
owns its memo, the pair-code table of every structure it has met (keyed by
theory and parts), its reply orders, and its game types and their ids; it
is meant to be confined to one sweep.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import logic
from .logic import BudgetExceededError, SignatureError
from .structures import (
    ConvexLinearOrder,
    PartSequence,
    StructureView,
    structure_view,
)


@dataclass(frozen=True)
class MarkedSegment:
    """A gap of a convex linear order between two played boundary points.

    ``left_attached`` means the first block belongs to the class of the
    boundary point on the left (symmetrically ``right_attached``).  A whole
    structure is the segment with both flags off; an empty gap has no parts
    and no flags.
    """

    parts: tuple[int, ...] = ()
    left_attached: bool = False
    right_attached: bool = False

    def __post_init__(self) -> None:
        for p in self.parts:
            if p < 1:
                raise ValueError(f"segment parts must be >= 1, got {p}")
        if not self.parts and (self.left_attached or self.right_attached):
            raise ValueError("an empty segment cannot be attached")


# Inside the decider a segment is the plain tuple (parts, left_attached,
# right_attached); the empty gap is ((), False, False).
_type_memo: dict[tuple, int] = {}
_type_intern: dict[tuple, int] = {}


def _choices(seg):
    """Every way to play a point of the segment: pick block i and split it
    into l points left of the chosen point and the rest right of it.  Yields
    (boundary type bits of the chosen point, left piece, right piece)."""
    parts, la, ra = seg
    last = len(parts) - 1
    for i, size in enumerate(parts):
        bits = (la and i == 0, ra and i == last)
        for l in range(size):
            r = size - 1 - l
            left = parts[:i] + ((l,) if l else ())
            right = ((r,) if r else ()) + parts[i + 1:]
            yield (bits, (left, la and bool(left), l > 0),
                   (right, r > 0, ra and bool(right)))


class _OverBudget(Exception):
    """A miss in ``_type_id`` with no room left under its limit."""


def _type_id(seg, k: int, limit: int | None = None) -> int:
    # ``limit``: B - K, where B bounds the memo's size and K is the depth of
    # the outermost call.  A call at depth k has K - k pending ancestors,
    # each of which will add its own entry, so a miss raises once the memo
    # holds limit + k = B - (K - k) entries
    if k <= 0:
        return 0
    key = (k, seg)
    hit = _type_memo.get(key)
    if hit is not None:
        return hit
    if limit is not None and len(_type_memo) >= limit + k:
        raise _OverBudget
    if k == 1:
        # both pieces are typed 0, so every split of a block gives the same
        # item: one pass over the blocks, not over the points
        parts, la, ra = seg
        last = len(parts) - 1
        items = frozenset(((la and i == 0, ra and i == last), 0, 0)
                          for i in range(len(parts)))
    else:
        items = frozenset((bits, _type_id(left, k - 1, limit),
                           _type_id(right, k - 1, limit))
                          for bits, left, right in _choices(seg))
    tid = _type_intern.setdefault((k, items), len(_type_intern) + 1)
    _type_memo[key] = tid
    return tid


def segment_type_id(seg: MarkedSegment, k: int) -> int:
    """Canonical depth-k type of a marked segment, interned to a small id.

    The type is the set of (boundary bits, left type, right type) triples
    over all choices, with depth 0 collapsing everything; by induction two
    segments are k-round equivalent exactly when their types coincide.
    Interning keeps the memo linear in the number of distinct segments.
    """
    return _type_id((seg.parts, seg.left_attached, seg.right_attached), k)


def fast_equiv_convex(s: MarkedSegment, t: MarkedSegment, k: int) -> bool:
    """Duplicator's win status for the k-round game on two marked segments.

    Attachment flags contribute to the atomic type: a point in an attached
    boundary block is E-related to that boundary, so matched choices must
    carry equal boundary bits; the residual games on the left and right
    pieces are then decided independently at k-1.  Decided by comparing
    canonical types, which restate that recursion: the types are equal iff
    every choice on either side has a matching choice on the other.
    """
    if k <= 0 or s == t:
        return True
    return segment_type_id(s, k) == segment_type_id(t, k)


def fast_equiv_shapes(a: PartSequence, b: PartSequence, k: int,
                      budget: int | None = None) -> bool:
    """Are the two convex shapes k-equivalent, by their segment types?
    ``budget`` bounds the memo entries the whole query adds, as in
    :func:`shape_type_id`."""
    if a == b:
        return True
    limit = None if budget is None else len(_type_memo) + budget
    return _shape_type(a, k, limit) == _shape_type(b, k, limit)


def shape_type_id(shape: PartSequence, k: int,
                  budget: int | None = None) -> int:
    """Depth-k type of a whole structure (both boundary flags off).

    With a ``budget``, a call that would add more than ``budget`` entries
    to the memo raises :class:`BudgetExceededError` instead, and adds none
    past it; each entry costs one pass over the choices of its segment.
    """
    limit = None if budget is None else len(_type_memo) + budget
    return _shape_type(shape, k, limit)


def _shape_type(shape: PartSequence, k: int, limit: int | None) -> int:
    """:func:`shape_type_id` with ``limit``, when given, bounding the size
    of the memo."""
    try:
        return _type_id((shape.parts, False, False), k,
                        None if limit is None else limit - k)
    except _OverBudget:
        raise BudgetExceededError(
            f"segment budget exhausted: the memo would pass {limit} entries "
            f"typing a shape of {shape.size} points at depth {k}",
            limit) from None


def fast_memo_size() -> int:
    """Number of (segment, depth) subproblems solved so far."""
    return len(_type_memo)


def clear_fast_memo() -> None:
    _type_memo.clear()
    _type_intern.clear()


def reduce_representative(c: ConvexLinearOrder, k: int) -> ConvexLinearOrder:
    """Cap parts at 2^k - 1 and runs of identical parts at 2^k - 1 copies.

    The result is k-equivalent to ``c`` by the composition theorem for
    ordered sums (Feferman–Vaught 1959; Rosenstein, *Linear Orderings*,
    1982): replacing a class by a k-equivalent one keeps the depth-k type,
    a class of m >= 2^k - 1 points is k-equivalent to one of 2^k - 1, and
    so is a run of m >= 2^k - 1 equal consecutive classes to a run of
    2^k - 1 copies, as linear orders of those lengths are k-equivalent."""
    cap = max(1, (1 << k) - 1)
    reduced: list[int] = []
    run = 0
    for part in c.shape:
        part = min(part, cap)
        if reduced and reduced[-1] == part:
            run += 1
        else:
            run = 1
        if run <= cap:
            reduced.append(part)
    candidate = PartSequence(tuple(reduced))
    return c if candidate == c.shape else ConvexLinearOrder(candidate)


# --- the generic game-tree solver ---------------------------------------------


class GameSolver:
    """Memoized search for Duplicator's winning status.

    A single solver may be reused across many queries; the memo table is
    keyed by exact positions with three or more rounds left, and the game
    types that decide the last two rounds are keyed by one side's played
    points, so sweeps over many structure pairs share work.  Each structure
    the solver meets is read once, into a :class:`_Board` kept by theory
    and parts.  ``nodes`` counts the positions searched and the types
    computed, and ``budget`` bounds their sum.
    """

    def __init__(self, budget: int | None = None):
        self.budget = budget
        self.nodes = 0
        self._memo: dict = {}
        self._boards: dict = {}
        self._orders: dict = {}
        self._type_memo: dict = {}
        self._type_intern: dict = {}

    def equiv(self, a, b, k: int, pairs=()) -> bool:
        """Does Duplicator win the k remaining rounds on ``a`` and ``b``
        from the position where the point pairs ``pairs`` are played?

        ``pairs`` must be a partial isomorphism (``ValueError`` otherwise);
        with none played this is k-equivalence of the two structures.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        left, right = structure_view(a), structure_view(b)
        if left.signature != right.signature:
            raise SignatureError(
                f"signature mismatch: {left.theory} vs {right.theory}")
        A, B = self._board(left), self._board(right)
        pairs = tuple(sorted(pairs))
        _check_partial_isomorphism(A, B, pairs)
        return self._win(A, B, pairs, k)

    def type_id(self, structure, k: int) -> int:
        """The structure's depth-k game type, read from its own side only,
        as an id interned by this solver: two structures are k-equivalent
        iff their ids at the same k are equal.

        ``T_0`` is 0.  ``T_r(S)``, over a set ``S`` of played points, is the
        set of (atomic type of p over ``S``, ``T_{r-1}(S + p)``) over the
        unplayed points p; ``T_1(S)`` is the set of extension types.  Each
        type computed, not found in the memo, is one node under
        ``budget``.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        return self._type(self._board(structure_view(structure)), (), k)

    # internal ---------------------------------------------------------------

    def _board(self, view: StructureView) -> _Board:
        key = (view.theory, view.shape.parts)
        board = self._boards.get(key)
        if board is None:
            board = self._boards[key] = _Board(view)
        return board

    def _win(self, A: _Board, B: _Board, pairs, r: int) -> bool:
        """Duplicator's win status with ``r`` rounds left from ``pairs``,
        a partial isomorphism sorted by its left points.

        With r <= 2 the position is won iff the two sides' depth-r types
        over their played points are equal (Hintikka types; the played
        tuples follow the pairs' order, sorted on both sides under
        ``convex``).  Each side's type is computed once however many
        positions share it, and costs a node only when computed.  With
        r >= 3 the pair search runs, one node per position visited, and
        stops at Spoiler's first winning move.
        """
        if r <= 2:
            xs, ys = zip(*pairs) if pairs else ((), ())
            return self._type(A, xs, r) == self._type(B, ys, r)
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExceededError(
                f"game budget exhausted after {self.nodes} nodes on "
                f"{A.view.theory} {A.view.shape} vs "
                f"{B.view.theory} {B.view.shape}", self.nodes)
        sa = (A.view.theory, A.view.shape.parts, tuple(x for x, _ in pairs))
        sb = (B.view.theory, B.view.shape.parts, tuple(y for _, y in pairs))
        key = (r, sa, sb) if sa <= sb else (r, sb, sa)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        value = self._search(A, B, pairs, r)
        self._memo[key] = value
        return value

    def _type(self, V: _Board, played: tuple, r: int) -> int:
        if r <= 0:
            return 0
        view = V.view
        # ``<`` is atomic in the convex signature, so every partial
        # isomorphism preserves order and the played points may be kept as
        # a sorted set; elsewhere play order is kept (a composition orders
        # no class by an atomic relation).
        ordered = view.theory == "convex"
        key = (r, view.theory, view.shape.parts, played)
        tid = self._type_memo.get(key)
        if tid is not None:
            return tid
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExceededError(
                f"game budget exhausted after {self.nodes} nodes typing "
                f"{view.theory} {view.shape} at depth {r}", self.nodes)
        if r == 1:
            items = V.extension_types(played)
        else:
            type_of = itemgetter(0, *played)
            codes = V.codes
            items = frozenset(
                (type_of(codes[p]),
                 self._type(V, tuple(sorted((*played, p))) if ordered
                            else (*played, p), r - 1))
                for p in range(1, V.size + 1) if p not in played)
        intern = self._type_intern
        tid = self._type_memo[key] = intern.setdefault(items, len(intern) + 1)
        return tid

    def _search(self, A, B, pairs, r) -> bool:
        xs, ys = zip(*pairs) if pairs else ((), ())
        # a point's atomic type over the played points of its side
        type_x, type_y = itemgetter(0, *xs), itemgetter(0, *ys)
        for side, p in _spoiler_moves(A.size, B.size, xs, ys):
            if side == 0:
                V, W, played_w, type_w = A, B, ys, type_y
                want = type_x(A.codes[p])
            else:
                V, W, played_w, type_w = B, A, xs, type_x
                want = type_y(B.codes[p])
            codes_w = W.codes
            found = False
            for q in self._replies(W.size, V.size, p):
                # pairing p with q keeps a partial isomorphism iff their
                # types agree
                if q in played_w or type_w(codes_w[q]) != want:
                    continue
                # left coordinates are distinct, so this sorts by them
                pair = (p, q) if side == 0 else (q, p)
                if self._win(A, B, tuple(sorted((*pairs, pair))), r - 1):
                    found = True
                    break
            if not found:
                return False
        return True

    def _replies(self, n: int, m: int, p: int) -> tuple[int, ...]:
        """Duplicator's candidate replies on an n-point side to point p of
        an m-point side, ordered by similarity of relative position."""
        key = (n, m, p)
        order = self._orders.get(key)
        if order is None:
            rel = p / (m + 1)
            order = self._orders[key] = tuple(
                sorted(range(1, n + 1), key=lambda q: abs(q / (n + 1) - rel)))
        return order


class _Board:
    """One structure as the solver reads it: the view and its pair-code
    table."""

    __slots__ = ("view", "size", "codes")

    def __init__(self, view: StructureView):
        cells = view.size * view.size
        if cells > logic.MAX_EVALUATION_CELLS:
            raise BudgetExceededError(
                f"a game board of {view.size} points needs {cells} pair "
                f"codes, over the bound of {logic.MAX_EVALUATION_CELLS}",
                cells)
        self.view = view
        self.size = view.size
        self.codes = _pair_codes(view)

    def extension_types(self, played: tuple) -> frozenset:
        """The atomic types over ``played`` that the unplayed points
        realize."""
        type_of = itemgetter(0, *played)
        codes = self.codes
        types = set()
        lo = 1
        for a in sorted(played):
            types.update(map(type_of, codes[lo:a]))
            lo = a + 1
        types.update(map(type_of, codes[lo:]))
        return frozenset(types)


def _pair_codes(V: StructureView) -> tuple[tuple[int, ...], ...]:
    """The view's pair-code table, read from ``relation``.

    ``table[p][a]`` packs ``holds(s_i, p, a)`` at bit 2i and
    ``holds(s_i, a, p)`` at bit 2i+1 for the i-th symbol of ``V.symbols``,
    so ``table[p][p]`` is the one-point type of p.  Row 0 is unused, and
    ``table[p][0]`` repeats ``table[p][p]``: ``itemgetter(0, *played)``
    then reads p's whole atomic type over the played points.

    A signature has at most three symbols, so a code fits in a byte: the
    table is built as one ``uint8`` array, diagonal in column 0, and turned
    into tuples a row at a time, so building it costs one byte per cell
    beyond the tuples it returns.
    """
    points = np.arange(1, V.size + 1)
    codes = np.zeros((V.size, V.size + 1), dtype=np.uint8)
    pairs = codes[:, 1:]
    for i, sym in enumerate(V.symbols):
        forward = V.relation(sym, points[:, None], points).astype(np.uint8)
        pairs |= forward << 2 * i
        pairs |= forward.T << 2 * i + 1
    codes[:, 0] = pairs.diagonal()
    return ((), *(tuple(row.tolist()) for row in codes))


def _spoiler_moves(size_a: int, size_b: int, xs, ys):
    """All unplayed points of both sides, farthest-from-anything-played
    first (gap midpoints make the strongest Spoiler moves)."""
    moves = []
    for side, n, played in ((0, size_a, xs), (1, size_b, ys)):
        bounds = [0, *sorted(played), n + 1]
        for lo, hi in zip(bounds, bounds[1:]):
            for p in range(lo + 1, hi):
                moves.append((min(p - lo, hi - p), side, p))
    # stable: equally far moves keep side, then point, order
    moves.sort(key=itemgetter(0), reverse=True)
    return [(side, p) for _, side, p in moves]


def _check_partial_isomorphism(A: _Board, B: _Board, pairs) -> None:
    for i, (x, y) in enumerate(pairs):
        if not (1 <= x <= A.size and 1 <= y <= B.size):
            raise ValueError(f"pair {(x, y)} out of range")
        for x2, y2 in pairs[i:]:
            if (x == x2) != (y == y2):
                raise ValueError(
                    f"pairs {(x, y)} and {(x2, y2)} break injectivity")
            diff = A.codes[x][x2] ^ B.codes[y][y2]
            if diff:
                # the lowest differing bit names the symbol
                sym = A.view.symbols[((diff & -diff).bit_length() - 1) // 2]
                raise ValueError(
                    f"pairs {(x, y)} and {(x2, y2)} disagree on {sym!r}")


# --- public convenience wrapper -----------------------------------------------

def equiv_k(a, b, k: int, *, budget: int | None = None) -> bool:
    """Do the two structures agree on all sentences of quantifier depth <= k?

    Decided as Duplicator's win status for the length-k game from the empty
    position.  Accepts relational views or convex linear orders.
    """
    return GameSolver(budget=budget).equiv(a, b, k)
