"""Compile convex-language sentences into automata over construction steps.

A structure of size n is determined by its n-1 construction steps.  Reading
the steps as a word whose positions are the points (with an end marker for
the last point), point order is position order and two points are
class-equivalent exactly when every step strictly between them grows the
last class.  Every sentence therefore defines a regular language of step
strings: quantifier-free subformulas over at most two names compile to a
table entry, other connectives to products and complements, quantifiers
to projection followed by subset construction, with eager minimization
throughout.

Letters are integers over k tracks, one per free variable of the
subformula, numbered by the sorted names ``v_0 < v_1 < ... < v_{k-1}``; an
automaton knows its tracks by position only.  Letter ``l`` has step bit
``l >> k`` (0 starts a new class after this point, 1 grows the last class,
2 marks the last point) and marks ``v_i`` at this point when bit ``i`` of
``l`` is set; the alphabet is ``range(3 << k)``.  Most letters act alike:
a two-name subformula reads only the step bit and its own two tracks, so
its ``3 << k`` letters show at most 12 behaviours.  An
automaton therefore stores columns: ``column`` maps each letter to a
column, numbered in order of its first letter, and the transition table is
a tuple of rows, one per state, each a tuple of successors indexed by
column.  Products pair columns: a product reads each operand through a
letter map, from its own letters onto that operand's columns, and builds no
relabelled copy of either.  Projection pairs a letter's unmarked and marked
columns, and minimization merges columns that act alike, so the work of a
stage grows with the distinct behaviours of its letters, not with the
alphabet.

Every stage numbers its states breadth-first from the start (``_explore``)
and merges equivalent ones (``_minimize``).  Because columns are numbered by
first letter, exploring column by column finds the states in the same order
as exploring letter by letter would.  Sinks, states that loop to themselves
on every column, are collapsed while exploring: a product state with a sink
component whose acceptance decides the connective is that connective's
constant, and a projected state drops its placed runs in a dead sink and is
the accepting constant once one is in an accepting sink.  Both keep the
language on every word, so the minimal automaton is the same.

A quantifier-free formula over two names a < b is decided by the type of
the pair of points they name: a before b in one class or in two, a = b, b
before a in one class or in two.  Its mask, the set of types at which it
holds, is computed in one pass over its connectives (an atom's mask comes
from the relation's definition, ``!`` complements it, ``&`` intersects,
and so on), and its automaton is the entry for that mask in a table of
the 30 masks that are not constant, built once at import and minimized.

Any reading of a word that marks a name twice or never is sound: every
quantifier places its mark exactly once and only the closed automaton is
read, so each stage need only be right on words that mark each of its
free names once.  The table picks, per mask, the reading that keeps
products small.  A class-local mask, one that holds at both types across
classes, takes the every-pair reading: it rejects once some a-mark and
b-mark in one class have a type outside the mask, so its only state is
which names are marked in the current class, and each new class sends it
back to the start or to the dead sink.  Every other mask takes the
first-mark reading: the type of the first a-mark and the first b-mark,
settled to the accepting or the rejecting sink as soon as every way to
mark the names still unmarked gives a type inside the mask, or every way
gives one outside.  Neither reading remembers a name once its mark has
decided, so a product over many names does not track which are placed.

A sentence compiles each shape of subformula once.  Two subformulas have
one shape when an order-preserving renaming of their free variables takes
one to the other, as when a translation or miniscoping repeats a
subformula under new names.  Sharing is sound because a minimal automaton
numbered this way depends only on its language over the sorted tracks, and
an order-preserving renaming keeps the order of the tracks: the automaton
of a shape's first node is the one every other node of the shape would
compile to, so a memo hit shares the stored automaton itself.  The memo of
shapes belongs to one ``compile_sentence`` call and is dropped when it
returns.

The resulting minimal automaton, read with fair-coin transitions, is a
quotient of the class chain for the sentence's quantifier depth:
equivalent construction prefixes always reach the same state (appending
equal steps preserves equivalence, so equivalent prefixes accept the same
suffixes), per-state acceptance is well-defined, and the limiting
accepting mass equals the sentence's asymptotic probability.  This is what
makes exact limits computable for sentences whose class count is far too
large to materialize.
"""
from __future__ import annotations

from dataclasses import dataclass

from .logic import (
    And,
    Atom,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    SignatureError,
    TrueFormula,
    check_signature,
    ensure_sentence,
)
from .structures import RELATION_SYMBOLS, RELATIONS

@dataclass(frozen=True)
class _DFA:
    """Complete DFA over k tracks; ``trans[q][column[l]]`` is the successor
    of state ``q`` on letter ``l`` of ``range(3 << k)``.  Columns are
    numbered in order of their first letter."""

    start: int
    accept: frozenset[int]
    trans: tuple[tuple[int, ...], ...]
    column: tuple[int, ...]


def _refine(classes: list[int], successors) -> list[int]:
    """Moore partition refinement: the coarsest refinement of ``classes``
    (a class id per state) in which states of one class have successors in
    the same classes, column by column.  Classes are numbered in order of
    their first state.  Once every class is one state, nothing can split
    further, so no round confirms it."""
    count = len(set(classes))
    while True:
        sigs: dict = {}
        lookup = classes.__getitem__
        classes = [sigs.setdefault((c, *map(lookup, succ)), len(sigs))
                   for c, succ in zip(classes, successors)]
        if len(sigs) == count or len(sigs) == len(classes):
            return classes
        count = len(sigs)


def _minimize(dfa: _DFA) -> _DFA:
    """Merge equivalent states, then columns that are equal after the
    quotient.  A breadth-first numbered input gives a breadth-first numbered
    output, with pairwise distinct columns numbered by first letter."""
    cls = _refine([q in dfa.accept for q in range(len(dfa.trans))], dfa.trans)
    if cls[-1] == len(cls) - 1:
        # no state merges: classes are numbered by first state, so ``cls``
        # is the identity
        rows, accept = dfa.trans, dfa.accept
    else:
        reps = {}
        for q, c in enumerate(cls):
            reps.setdefault(c, q)
        rows = [tuple(map(cls.__getitem__, dfa.trans[q]))
                for q in reps.values()]
        accept = frozenset(c for c, q in reps.items() if q in dfa.accept)
    merged: dict = {}
    renumber = [merged.setdefault(col, len(merged)) for col in zip(*rows)]
    trans = tuple(zip(*merged)) if len(merged) < len(renumber) else tuple(rows)
    return _DFA(cls[dfa.start], accept, trans,
                tuple(map(renumber.__getitem__, dfa.column)))


def _explore(start, successors, canonical=None
             ) -> tuple[list, tuple[tuple[int, ...], ...]]:
    """Breadth-first numbering of the states reachable from ``start``, where
    ``successors(state)`` lists a state's successors column by column.  A
    state seen for the first time is replaced by ``canonical(state)`` when
    that is given, and both then share one number.  Returns the states in
    order and the numbered transition rows."""
    order = [start]
    index = {start: 0}
    trans = []
    for state in order:
        row = []
        for succ in successors(state):
            s = index.get(succ)
            if s is None:
                key = succ if canonical is None else canonical(succ)
                s = index.get(key)
                if s is None:
                    s = index[key] = len(order)
                    order.append(key)
                index[succ] = s
            row.append(s)
        trans.append(tuple(row))
    return order, tuple(trans)


def _sinks(dfa: _DFA) -> list[int]:
    """The states that loop to themselves on every column."""
    return [q for q, row in enumerate(dfa.trans) if row.count(q) == len(row)]


def _const(k: int, value: bool) -> _DFA:
    return _DFA(0, frozenset({0} if value else ()), ((0,),), (0,) * (3 << k))


# A quantifier-free formula over two names a < b holds or fails on a pair of
# points according to the pair's type, one of five, and bit t of its mask is
# set when it holds at type t.  Each type is given by the (point, class) of
# a and of b in one pair of that type, so an atom's mask is read from the
# relation's definition.
_PAIR_TYPES = (
    {"a": (1, 0), "b": (2, 0)},  # a before b in one class
    {"a": (1, 0), "b": (2, 1)},  # a before b in two classes
    {"a": (1, 0), "b": (1, 0)},  # a = b
    {"a": (2, 0), "b": (1, 0)},  # b before a in one class
    {"a": (2, 1), "b": (1, 0)},  # b before a in two classes
)
_FULL = (1 << len(_PAIR_TYPES)) - 1

#: (symbol, x < y, x == y) -> the mask of the atom ``x symbol y``; an atom
#: of one name holds at every type or at none
_ATOM_MASKS = {
    (symbol, x < y, x == y): sum(
        bool(RELATIONS[symbol](t[x][0], t[y][0], t[x][1], t[y][1])) << bit
        for bit, t in enumerate(_PAIR_TYPES))
    for symbol in ("=", *RELATION_SYMBOLS["convex"])
    for x, y in ("ab", "ba", "aa")
}


def _mask(f: Formula) -> int:
    """The mask of a quantifier-free formula over at most two names."""
    kind = type(f)
    if kind is Atom:
        x, y = f.left, f.right
        return _ATOM_MASKS[f.symbol, x < y, x == y]
    if kind is Not:
        return _FULL ^ _mask(f.body)
    if kind is TrueFormula:
        return _FULL
    if kind is FalseFormula:
        return 0
    left, right = _mask(f.left), _mask(f.right)
    if kind is And:
        return left & right
    if kind is Or:
        return left | right
    if kind is Implies:
        return (_FULL ^ left) | right
    if kind is Iff:
        return _FULL ^ left ^ right
    raise TypeError(f"not a formula: {f!r}")


#: the two types across classes: a mask that holds at both is class-local
_CROSS = 0b10010


def _every_pair_step(mask: int, state: int, bit: int, a: bool, b: bool
                     ) -> int:
    """The every-pair reader's move.  Its state is the set of names marked
    in the current class (bit 0 for a, bit 1 for b), or -1, the dead sink,
    once an a-mark and a b-mark in one class have a type outside ``mask``;
    a step bit other than 1 closes the class."""
    # the types of the pairs this letter's marks make in the class: a = b,
    # an earlier a before this b, an earlier b before this a
    made = (a and b) << 2 | (b and state & 1) | (a and state & 2) << 2
    if state < 0 or made & ~mask:
        return -1
    return state | a | b << 1 if bit == 1 else 0


def _first_mark_step(mask: int, state, bit: int, a: bool, b: bool):
    """The first-mark reader's move.  Its state is None before either mark
    and, after the first, the name marked while its class is still open
    (every step since the mark grew it).  It becomes the sink True or False
    as soon as every way to mark each name once gives a type inside
    ``mask``, or every way gives one outside."""
    if type(state) is bool:
        return state
    if state is None:
        if a and b:
            return bool(mask >> 2 & 1)
        if not (a or b):
            return None
        first = "a" if a else "b"
    else:
        first = state
        if b if first == "a" else a:
            # the second mark, in the still open class of the first
            return bool(mask >> (0 if first == "a" else 3) & 1)
    # the types the second mark can still give: in this class or a later
    # one while the class is open, only a later one once it is closed
    later = 0b00011 if first == "a" else 0b11000
    if bit != 1:
        later &= _CROSS
    if later & mask == later:
        return True
    if not later & mask:
        return False
    return first


def _pair(mask: int) -> _DFA:
    """The automaton over the tracks of a < b that accepts a word marking
    each name once when the type of the marked pair is in ``mask``.

    What it does on a word that marks a name twice or never is a choice,
    and any choice is sound, since no stage reads such words.  A
    class-local mask, one that holds at both types across classes, takes
    the every-pair reading: the word is rejected once an a-mark and a
    b-mark in one class have a type outside the mask, so the automaton
    forgets everything at each class boundary.  Every other mask takes the
    first-mark reading, settled to a sink at the first mark that decides
    it.  Either way a product over many names need not track which of them
    are placed."""
    if mask & _CROSS == _CROSS:
        start, step = 0, _every_pair_step
    else:
        start, step = None, _first_mark_step
    states, rows = _explore(start, lambda state: [
        step(mask, state, l >> 2, bool(l & 1), bool(l & 2))
        for l in range(12)])
    # every-pair states are ints, -1 the dead sink; first-mark states
    # accept only in the sink True, which is a bool, not an int
    accept = frozenset(s for s, state in enumerate(states) if state is True
                       or type(state) is int and state >= 0)
    return _minimize(_DFA(0, accept, rows, tuple(range(12))))


#: mask -> the automaton of the masks that are not constant, built once
#: over the two tracks of a < b
_PAIRS = {mask: _pair(mask) for mask in range(1, _FULL)}


def _letters(places: tuple[int, ...], k: int):
    """For each letter over k tracks, the letter that an operand whose
    track i is track ``places[i]`` reads: the step bit and the marks on its
    own tracks, the others ignored."""
    own = len(places)
    if own == k:
        return range(3 << k)
    return [(l >> k << own) | sum((l >> j & 1) << i
                                  for i, j in enumerate(places))
            for l in range(3 << k)]


def _product(a: _DFA, places_a: tuple[int, ...], b: _DFA,
             places_b: tuple[int, ...], op, k: int) -> _DFA:
    """The automaton of ``op`` applied to the acceptance of ``a`` and ``b``,
    over k tracks, where the tracks of ``a`` and ``b`` sit at ``places_a``
    and ``places_b``.  Each operand reads every letter through
    ``_letters`` onto its own columns, as it is stored.  A pair with a sink
    component whose acceptance alone decides ``op`` becomes the canonical
    sink ``True`` or ``False``, the value decided."""
    pairs: dict = {}
    column = tuple(
        pairs.setdefault((a.column[x], b.column[y]), len(pairs))
        for x, y in zip(_letters(places_a, k), _letters(places_b, k)))
    ca, cb = zip(*pairs)
    # sink -> the value of op that its acceptance decides
    decide_a = {q: op(v, False) for q in _sinks(a) for v in [q in a.accept]
                if op(v, False) == op(v, True)}
    decide_b = {q: op(False, v) for q in _sinks(b) for v in [q in b.accept]
                if op(False, v) == op(True, v)}

    def canonical(pair):
        value = decide_a.get(pair[0])
        if value is None:
            value = decide_b.get(pair[1])
        return pair if value is None else value

    def successors(pair):
        if isinstance(pair, bool):
            return (pair,) * len(ca)
        ra, rb = a.trans[pair[0]], b.trans[pair[1]]
        return zip(map(ra.__getitem__, ca), map(rb.__getitem__, cb))

    order, trans = _explore(canonical((a.start, b.start)), successors,
                            canonical if decide_a or decide_b else None)
    accept = frozenset(i for i, p in enumerate(order) if (
        p if isinstance(p, bool) else op(p[0] in a.accept, p[1] in b.accept)))
    return _minimize(_DFA(0, accept, trans, column))


def _complement(dfa: _DFA) -> _DFA:
    accept = frozenset(range(len(dfa.trans))) - dfa.accept
    return _DFA(dfa.start, accept, dfa.trans, dfa.column)


def _exists(i: int, body: _DFA, k: int) -> _DFA:
    """Project track i of ``body`` away, leaving k tracks: some placement of
    its single mark leads to acceptance.

    A subset state is the body's run with the mark not yet placed, which is
    a single state, and the set of its runs with the mark placed.  Placed
    runs in a dead sink are dropped, and a placed run in an accepting sink
    makes the state the canonical accepting sink ``True``."""
    low = (1 << i) - 1
    # the body's columns of each remaining letter with the variable's bit
    # inserted at position i, unmarked and marked
    pairs: dict = {}
    column = tuple(
        pairs.setdefault((body.column[u], body.column[u | 1 << i]), len(pairs))
        for u in ((l >> i << i + 1) | (l & low)
                  for l in range(3 << k)))
    letters = list(pairs)
    trans = body.trans
    sinks = _sinks(body)
    dead = frozenset(q for q in sinks if q not in body.accept)
    accepting = frozenset(sinks) - dead

    def canonical(state):
        q, placed = state
        if not accepting.isdisjoint(placed):
            return True
        return state if dead.isdisjoint(placed) else (q, placed - dead)

    def successors(state):
        if state is True:
            return (True,) * len(letters)
        q, placed = state
        row = trans[q]
        if not placed:
            return [(row[u], frozenset((row[m],))) for u, m in letters]
        by_column = list(zip(*map(trans.__getitem__, placed)))
        return [(row[u], frozenset((row[m], *by_column[u])))
                for u, m in letters]

    order, rows = _explore((body.start, frozenset()), successors,
                           canonical if sinks else None)
    accept = frozenset(s for s, state in enumerate(order) if state is True
                       or not state[1].isdisjoint(body.accept))
    return _minimize(_DFA(0, accept, rows, column))


#: the connectives that compile to a product, each as the value it takes
#: on its operands' acceptance
_OPS = {
    And: lambda p, q: p and q,
    Or: lambda p, q: p or q,
    Implies: lambda p, q: (not p) or q,
    Iff: lambda p, q: p == q,
}


def _compile(f: Formula, memo: dict) -> tuple[int, _DFA]:
    """The shape id and the automaton of ``f``, whose tracks are its sorted
    free variables.

    A quantifier-free node over at most two names is keyed by its mask and
    its number of tracks.  Any other node's key is its kind, its children's
    shape ids and where their tracks sit among its own.  Nodes with equal
    keys have one shape.  ``memo`` maps each key to its shape id and the
    automaton of the first node that had it, and a later node of the shape
    returns that entry itself."""
    kind = type(f)
    pair = f.depth == 0 and len(f.free) <= 2
    if pair:
        mask = _mask(f)
        # the track count keeps a one-name constant from a two-name one
        key = (mask, len(f.free))
    elif kind is Not:
        body_id, body = _compile(f.body, memo)
        key = (Not, body_id)
    elif kind is Exists or kind is Forall:
        body_id, body = _compile(f.body, memo)
        # None, not False, for a vacuous quantifier: False == 0 would
        # collide with a quantifier over the first track
        i = sorted(f.body.free).index(f.var) if f.var in f.body.free else None
        key = (kind, body_id, i)
    elif kind in _OPS:
        left_id, a = _compile(f.left, memo)
        right_id, b = _compile(f.right, memo)
        place = sorted(f.free).index
        places_a = tuple(map(place, sorted(f.left.free)))
        places_b = tuple(map(place, sorted(f.right.free)))
        key = (kind, left_id, right_id, places_a, places_b)
    else:
        raise TypeError(f"not a formula: {f!r}")
    hit = memo.get(key)
    if hit is not None:
        return hit
    k = len(f.free)
    if pair:
        dfa = _PAIRS[mask] if 0 < mask < _FULL else _const(k, mask == _FULL)
    elif kind is Not:
        dfa = _complement(body)
    elif kind is Exists or kind is Forall:
        if i is None:
            # structures are never empty, so a vacuous quantifier is the
            # identity
            dfa = body
        elif kind is Exists:
            dfa = _exists(i, body, k)
        else:
            dfa = _complement(_exists(i, _complement(body), k))
    else:
        dfa = _product(a, places_a, b, places_b, _OPS[kind], k)
    entry = memo[key] = (len(memo), dfa)
    return entry


@dataclass(frozen=True)
class StepAutomaton:
    """Minimal DFA over the two construction steps; per-state acceptance is
    satisfaction of the compiled sentence on every structure whose
    construction reaches the state."""

    n_states: int
    start: int
    step_new: tuple[int, ...]   # successor when a new singleton class starts
    step_grow: tuple[int, ...]  # successor when the last class grows
    accepting: tuple[bool, ...]


def compile_sentence(f: Formula) -> StepAutomaton:
    """Compile a closed convex-language sentence to its step automaton."""
    ensure_sentence(f)
    check_signature(f, "convex")
    _, dfa = _compile(f, {})
    if len(dfa.column) != 3:
        raise SignatureError("sentence compiled with leftover free tracks")
    # a word ends with the end marker at the last point; acceptance of a bit
    # prefix is acceptance after that final letter, and the step automaton
    # reads the two step letters only.  With no tracks, letter l is step bit
    # l: 0 starts a new class, 1 grows the last, 2 is the end marker.
    new, grow, end = dfa.column
    rows = dfa.trans
    order, trans = _explore(dfa.start,
                            lambda q: (rows[q][new], rows[q][grow]))
    steps = _minimize(_DFA(
        0, frozenset(s for s, q in enumerate(order)
                     if rows[q][end] in dfa.accept), trans, (0, 1)))
    new, grow = steps.column
    return StepAutomaton(
        n_states=len(steps.trans),
        start=0,
        step_new=tuple(row[new] for row in steps.trans),
        step_grow=tuple(row[grow] for row in steps.trans),
        accepting=tuple(q in steps.accept for q in range(len(steps.trans))),
    )
