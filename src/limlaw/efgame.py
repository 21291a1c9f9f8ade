"""Back-and-forth game deciders.

Two routes to the same relation, kept deliberately independent so each can
cross-check the other:

* :class:`GameSolver` / :func:`equiv_k` — a memoized game-tree search over
  any pair of relational views.  Positions reached with the same remaining
  rounds and isomorphic marked remainders have the same value, so for convex
  views the memo key is the canonical gap decomposition around the played
  points; for everything else it is the exact point tuples.  Either key is a
  pure isomorphism invariant of the position — correctness never depends on
  which one is used, only speed does.

* :func:`fast_equiv_convex` — a compositional decider for convex linear
  orders that splits the board at the chosen point and solves the two
  marked sub-segments independently.

Both deciders are pure functions of their inputs.  The segment decider keeps
two module-level caches keyed by immutable values: ``_type_memo`` maps
(depth, segment) to a type id and ``_type_intern`` maps each type to its id.
They are process-global and unsynchronised: every caller in the process
shares them, they grow until :func:`clear_fast_memo` empties them, and
nothing here coordinates concurrent callers.  A :class:`GameSolver` instance
owns its own memo and is meant to be confined to one sweep.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def _type_id(seg, k: int) -> int:
    if k <= 0:
        return 0
    key = (k, seg)
    hit = _type_memo.get(key)
    if hit is not None:
        return hit
    items = frozenset((bits, _type_id(left, k - 1), _type_id(right, k - 1))
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


def fast_equiv_shapes(a: PartSequence, b: PartSequence, k: int) -> bool:
    return a == b or shape_type_id(a, k) == shape_type_id(b, k)


def shape_type_id(shape: PartSequence, k: int) -> int:
    """Depth-k type of a whole structure (both boundary flags off)."""
    return _type_id((shape.parts, False, False), k)


def fast_memo_size() -> int:
    """Number of (segment, depth) subproblems solved so far."""
    return len(_type_memo)


def clear_fast_memo() -> None:
    _type_memo.clear()
    _type_intern.clear()


def reduce_representative(c: ConvexLinearOrder, k: int) -> ConvexLinearOrder:
    """Cap parts at 2^k - 1 and runs of identical parts at 2^k - 1 copies,
    but only if an equivalence check confirms the reduction; otherwise the
    input is returned unchanged."""
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
    if candidate == c.shape:
        return c
    if fast_equiv_shapes(candidate, c.shape, k):
        return ConvexLinearOrder(candidate)
    return c


# --- the generic game-tree solver ---------------------------------------------


@dataclass(frozen=True)
class GameConfig:
    """A position: two views, the played point pairs, and rounds remaining."""

    left: StructureView
    right: StructureView
    pairs: tuple[tuple[int, int], ...]
    rounds_left: int

    def __post_init__(self) -> None:
        if self.rounds_left < 0:
            raise ValueError("rounds_left must be >= 0")


class GameSolver:
    """Memoized search for Duplicator's winning status.

    A single solver may be reused across many queries; the memo table is
    keyed by isomorphism-invariant position descriptions, so sweeps over
    many structure pairs share work.  ``canonical_keys=False`` falls back to
    exact point tuples (slower, with fewer shared assumptions — the mode the
    cross-validation tests run in).
    """

    def __init__(self, budget: int | None = None, canonical_keys: bool = True):
        self.budget = budget
        self.canonical_keys = canonical_keys
        self.nodes = 0
        self._memo: dict = {}

    def equiv(self, a, b, k: int) -> bool:
        left, right = structure_view(a), structure_view(b)
        if left.signature != right.signature:
            raise SignatureError(
                f"signature mismatch: {left.theory} vs {right.theory}")
        return self._win(left, right, (), k)

    def config_value(self, cfg: GameConfig) -> bool:
        left, right = cfg.left, cfg.right
        if left.signature != right.signature:
            raise SignatureError(
                f"signature mismatch: {left.theory} vs {right.theory}")
        pairs = tuple(sorted(cfg.pairs))
        _check_partial_isomorphism(left, right, pairs)
        return self._win(left, right, pairs, cfg.rounds_left)

    # internal ---------------------------------------------------------------

    def _win(self, A: StructureView, B: StructureView, pairs, r: int) -> bool:
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExceededError(
                f"game budget exhausted after {self.nodes} nodes on "
                f"{A.theory} {A.shape} vs {B.theory} {B.shape}", self.nodes)
        if r <= 0:
            return True
        key = self._key(A, B, pairs, r)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if r == 1:
            value = _one_round_value(A, B, pairs)
        else:
            value = self._search(A, B, pairs, r)
        self._memo[key] = value
        return value

    def _search(self, A, B, pairs, r) -> bool:
        xs = [x for x, _ in pairs]
        ys = [y for _, y in pairs]
        for side, p in _spoiler_moves(A, B, xs, ys):
            if side == 0:
                V, W, played_v, played_w = A, B, xs, ys
            else:
                V, W, played_v, played_w = B, A, ys, xs
            found = False
            for q in _responses(W, played_w, p, V.size):
                if not _consistent(V, W, played_v, played_w, p, q):
                    continue
                # left coordinates are distinct, so this sorts by them
                pair = (p, q) if side == 0 else (q, p)
                if self._win(A, B, tuple(sorted((*pairs, pair))), r - 1):
                    found = True
                    break
            if not found:
                return False
        return True

    def _key(self, A, B, pairs, r):
        if self.canonical_keys and A.theory == "convex" and B.theory == "convex":
            ka = _convex_side_key(A, tuple(x for x, _ in pairs))
            kb = _convex_side_key(B, tuple(y for _, y in pairs))
            return ("c", r) + ((ka, kb) if ka <= kb else (kb, ka))
        sa = (A.theory, A.shape.parts, tuple(x for x, _ in pairs))
        sb = (B.theory, B.shape.parts, tuple(y for _, y in pairs))
        return ("x", r) + ((sa, sb) if sa <= sb else (sb, sa))


def _consistent(V: StructureView, W: StructureView, played_v, played_w,
                p: int, q: int) -> bool:
    """Would pairing fresh points p (in V) and q (in W) keep a partial iso?"""
    for sym in V.symbols:
        if V.holds(sym, p, p) != W.holds(sym, q, q):
            return False
    for a, b in zip(played_v, played_w):
        for sym in V.symbols:
            if V.holds(sym, p, a) != W.holds(sym, q, b):
                return False
            if V.holds(sym, a, p) != W.holds(sym, b, q):
                return False
    return True


def _one_round_value(A, B, pairs) -> bool:
    # with one round left, Duplicator wins iff both sides realize the same
    # set of one-point extension types over the played tuples
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    return _extension_types(A, xs) == _extension_types(B, ys)


def _extension_types(V: StructureView, played) -> frozenset:
    played_set = set(played)
    syms = V.symbols
    types = set()
    for p in range(1, V.size + 1):
        if p in played_set:
            continue
        bits = [V.holds(s, p, p) for s in syms]
        for a in played:
            for s in syms:
                bits.append(V.holds(s, p, a))
                bits.append(V.holds(s, a, p))
        types.add(tuple(bits))
    return frozenset(types)


def _spoiler_moves(A, B, xs, ys):
    """All unplayed points of both sides, farthest-from-anything-played
    first (gap midpoints make the strongest Spoiler moves)."""
    moves = []
    for side, view, played in ((0, A, xs), (1, B, ys)):
        anchors = [0, view.size + 1] + played
        played_set = set(played)
        for p in range(1, view.size + 1):
            if p in played_set:
                continue
            dist = min(abs(p - a) for a in anchors)
            moves.append((dist, side, p))
    moves.sort(key=lambda m: -m[0])
    return [(side, p) for _, side, p in moves]


def _responses(W: StructureView, played_w, p: int, opposite_size: int):
    """Candidate replies ordered by similarity of relative position."""
    played_set = set(played_w)
    rel = p / (opposite_size + 1)
    cands = [q for q in range(1, W.size + 1) if q not in played_set]
    cands.sort(key=lambda q: abs(q / (W.size + 1) - rel))
    return cands


def _check_partial_isomorphism(A, B, pairs) -> None:
    points = list(pairs)
    for i, (x, y) in enumerate(points):
        if not (1 <= x <= A.size and 1 <= y <= B.size):
            raise ValueError(f"pair {(x, y)} out of range")
        for x2, y2 in points[i:]:
            if (x == x2) != (y == y2):
                raise ValueError(
                    f"pairs {(x, y)} and {(x2, y2)} break injectivity")
            for sym in A.symbols:
                if (A.holds(sym, x, x2) != B.holds(sym, y, y2)
                        or A.holds(sym, x2, x) != B.holds(sym, y2, y)):
                    raise ValueError(
                        f"pairs {(x, y)} and {(x2, y2)} disagree on {sym!r}")


def _convex_side_key(V: StructureView, played: tuple[int, ...]):
    """Canonical description of (structure, played tuple) up to isomorphism:
    the E-pattern of consecutive played points plus the marked segment of
    every gap between them."""
    cls_of = V.cls_of
    parts = V.shape.parts
    starts = V.class_starts
    n = V.size
    ebits = tuple(cls_of[played[i]] == cls_of[played[i + 1]]
                  for i in range(len(played) - 1))
    bounds = (0,) + played + (n + 1,)
    gaps = []
    for g in range(len(bounds) - 1):
        lo, hi = bounds[g], bounds[g + 1]
        first, last = lo + 1, hi - 1
        if first > last:
            gaps.append(((), False, False))
            continue
        c_first, c_last = cls_of[first], cls_of[last]
        sizes = []
        for c in range(c_first, c_last + 1):
            start = starts[c]
            end = start + parts[c] - 1
            sizes.append(min(end, last) - max(start, first) + 1)
        la = lo >= 1 and cls_of[lo] == c_first
        ra = hi <= n and cls_of[hi] == c_last
        gaps.append((tuple(sizes), la, ra))
    return (ebits, tuple(gaps))


# --- public convenience wrappers ----------------------------------------------

def duplicator_wins(cfg: GameConfig, *, budget: int | None = None,
                    solver: GameSolver | None = None) -> bool:
    """Does Duplicator have a strategy winning the remaining rounds?"""
    s = solver if solver is not None else GameSolver(budget=budget)
    return s.config_value(cfg)


def equiv_k(a, b, k: int, *, budget: int | None = None,
            solver: GameSolver | None = None) -> bool:
    """Do the two structures agree on all sentences of quantifier depth <= k?

    Decided as Duplicator's win status for the length-k game from the empty
    position.  Accepts relational views or the typed structure wrappers.
    """
    s = solver if solver is not None else GameSolver(budget=budget)
    return s.equiv(a, b, k)
