"""Compile convex-language sentences into automata over construction steps.

A structure of size n is determined by its n-1 construction steps.  Reading
the steps as a word whose positions are the points (with an end marker for
the last point), point order is position order and two points are
class-equivalent exactly when every step strictly between them grows the
last class.  Every sentence therefore defines a regular language of step
strings: atoms compile to two-track automata of at most four states
(built once per symbol and order of the two names), connectives to
products and complements, quantifiers to projection followed by subset
construction, with eager minimization throughout.

Letters are integers.  Over the sorted free variables ``v_0 < v_1 < ...``,
letter ``l`` has step bit ``l >> len(variables)`` (0 starts a new class
after this point, 1 grows the last class, 2 marks the last point) and
marks ``v_i`` at this point when bit ``i`` of ``l`` is set; the alphabet is
``range(3 << len(variables))``.  A transition table is a tuple of rows, one
per state, each a tuple of successors indexed by letter.  Every stage
numbers its states breadth-first from the start (``_explore``) and merges
equivalent ones (``_minimize``).

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
    SIGNATURES,
    SignatureError,
    TrueFormula,
    ensure_sentence,
    formula_symbols,
)

_END = 2  # step bit of the end marker; 0 starts a new class, 1 grows the last


@dataclass(frozen=True)
class _DFA:
    """Complete DFA; ``trans[q][l]`` is the successor of state ``q`` on
    letter ``l`` of ``range(3 << len(variables))`` (only the two step
    letters in the final automaton of ``compile_sentence``)."""

    variables: tuple[str, ...]
    start: int
    accept: frozenset[int]
    trans: tuple[tuple[int, ...], ...]


def _refine(classes: list[int], successors) -> list[int]:
    """Moore partition refinement: the coarsest refinement of ``classes``
    (a class id per state) in which states of one class have successors in
    the same classes, letter by letter.  Classes are numbered in order of
    their first state."""
    count = len(set(classes))
    while True:
        sigs: dict = {}
        lookup = classes.__getitem__
        classes = [sigs.setdefault((c, *map(lookup, succ)), len(sigs))
                   for c, succ in zip(classes, successors)]
        if len(sigs) == count:
            return classes
        count = len(sigs)


def _minimize(dfa: _DFA) -> _DFA:
    """Merge equivalent states.  A breadth-first numbered input gives a
    breadth-first numbered output."""
    cls = _refine([q in dfa.accept for q in range(len(dfa.trans))], dfa.trans)
    reps = {}
    for q, c in enumerate(cls):
        reps.setdefault(c, q)
    trans = tuple(tuple(map(cls.__getitem__, dfa.trans[q]))
                  for q in reps.values())
    accept = frozenset(c for c, q in reps.items() if q in dfa.accept)
    return _DFA(dfa.variables, cls[dfa.start], accept, trans)


def _explore(start, successors) -> tuple[list, tuple[tuple[int, ...], ...]]:
    """Breadth-first numbering of the states reachable from ``start``, where
    ``successors(state)`` lists a state's successors letter by letter.
    Returns the states in order and the numbered transition rows."""
    order = [start]
    index = {start: 0}
    trans = []
    for state in order:
        row = []
        for succ in successors(state):
            s = index.get(succ)
            if s is None:
                s = index[succ] = len(order)
                order.append(succ)
            row.append(s)
        trans.append(tuple(row))
    return order, tuple(trans)


def _reachable(dfa: _DFA) -> _DFA:
    """The part of ``dfa`` reachable from its start, numbered breadth-first
    in letter order."""
    order, trans = _explore(dfa.start, dfa.trans.__getitem__)
    accept = frozenset(s for s, q in enumerate(order) if q in dfa.accept)
    return _DFA(dfa.variables, 0, accept, trans)


def _const(variables: tuple[str, ...], value: bool) -> _DFA:
    return _DFA(variables, 0, frozenset({0} if value else ()),
                ((0,) * (3 << len(variables)),))


# Two-track atoms run from NONE (no point marked yet) through MID (the
# first of two distinct points marked) to the absorbing ACC or DEAD.  A step
# rule maps (state, step bit, x marked, y marked) to the next state for
# NONE and MID.
_NONE, _MID, _ACC, _DEAD = range(4)


def _lt_step(q: int, bit: int, x: bool, y: bool) -> int:
    if q == _MID:
        return _ACC if y else _MID
    return _DEAD if y else _MID if x else _NONE


def _eq_step(q: int, bit: int, x: bool, y: bool) -> int:
    return _ACC if x and y else _DEAD if x or y else _NONE


def _same_class_step(q: int, bit: int, x: bool, y: bool) -> int:
    # equal positions, or an unbroken run of grow steps from the first mark
    # up to (excluding) the second
    if x and y or q == _MID and (x or y):
        return _ACC
    if q == _NONE and not (x or y):
        return _NONE
    return _MID if bit == 1 else _DEAD


#: symbol -> (step rule, value of the atom when both names are equal)
_STEP_RULES = {
    "<": (_lt_step, False),
    "E": (_same_class_step, True),
    "=": (_eq_step, True),
}


def _two_track(x: str, y: str, step) -> _DFA:
    """The atom of distinct variables x and y whose step rule is ``step``,
    over the 12 letters of two tracks."""
    variables = tuple(sorted((x, y)))
    xbit, ybit = 1 << variables.index(x), 1 << variables.index(y)
    rows = tuple(tuple(step(q, l >> 2, bool(l & xbit), bool(l & ybit))
                       for l in range(12)) for q in (_NONE, _MID))
    trans = rows + ((_ACC,) * 12, (_DEAD,) * 12)
    return _minimize(_reachable(
        _DFA(variables, _NONE, frozenset({_ACC}), trans)))


#: (symbol, whether the left name sorts first) -> the atom's automaton,
#: built once over the tracks of the placeholder names ("a", "b")
_ATOMS = {(symbol, x < y): _two_track(x, y, step)
          for symbol, (step, _) in _STEP_RULES.items()
          for x, y in ("ab", "ba")}


def _atom(f: Atom) -> _DFA:
    """The automaton of an atom of the convex language."""
    x, y = f.left, f.right
    if x == y:
        return _const((x,), _STEP_RULES[f.symbol][1])
    dfa = _ATOMS[f.symbol, x < y]
    return _DFA((x, y) if x < y else (y, x), dfa.start, dfa.accept, dfa.trans)


def _lift(dfa: _DFA, variables: tuple[str, ...]) -> _DFA:
    """Reinterpret over a larger sorted variable set, ignoring the new
    marks: each letter is projected onto ``dfa``'s tracks."""
    if dfa.variables == variables:
        return dfa
    k, own = len(variables), len(dfa.variables)
    moves = [(variables.index(v), i) for i, v in enumerate(dfa.variables)]
    project = [(l >> k << own) | sum((l >> j & 1) << i for j, i in moves)
               for l in range(3 << k)]
    trans = tuple(tuple(map(row.__getitem__, project)) for row in dfa.trans)
    return _DFA(variables, dfa.start, dfa.accept, trans)


def _product(a: _DFA, b: _DFA, op) -> _DFA:
    variables = tuple(sorted(set(a.variables) | set(b.variables)))
    a = _lift(a, variables)
    b = _lift(b, variables)
    order, trans = _explore((a.start, b.start),
                            lambda p: zip(a.trans[p[0]], b.trans[p[1]]))
    accept = frozenset(i for i, (qa, qb) in enumerate(order)
                       if op(qa in a.accept, qb in b.accept))
    return _minimize(_DFA(variables, 0, accept, trans))


def _complement(dfa: _DFA) -> _DFA:
    accept = frozenset(range(len(dfa.trans))) - dfa.accept
    return _DFA(dfa.variables, dfa.start, accept, dfa.trans)


def _exists(var: str, body: _DFA) -> _DFA:
    """Project the variable's track: some placement of its single mark leads
    to acceptance.  Structures are never empty, so a vacuous quantifier is
    the identity.

    A subset state is the body's run with the mark not yet placed, which is
    a single state, and the set of its runs with the mark placed."""
    if var not in body.variables:
        return body
    i = body.variables.index(var)
    variables = body.variables[:i] + body.variables[i + 1:]
    low = (1 << i) - 1
    # each remaining letter with the variable's bit inserted at position i,
    # unmarked and marked
    letters = [(u, u | 1 << i)
               for u in ((l >> i << i + 1) | (l & low)
                         for l in range(3 << len(variables)))]
    trans = body.trans

    def successors(state):
        q, placed = state
        row, placed_rows = trans[q], [trans[p] for p in placed]
        return [(row[u], frozenset([row[m], *(r[u] for r in placed_rows)]))
                for u, m in letters]

    order, rows = _explore((body.start, frozenset()), successors)
    accept = frozenset(s for s, (q, placed) in enumerate(order)
                       if not placed.isdisjoint(body.accept))
    return _minimize(_DFA(variables, 0, accept, rows))


def _compile(f: Formula) -> _DFA:
    if isinstance(f, TrueFormula):
        return _const((), True)
    if isinstance(f, FalseFormula):
        return _const((), False)
    if isinstance(f, Atom):
        return _atom(f)
    if isinstance(f, Not):
        return _complement(_compile(f.body))
    if isinstance(f, And):
        return _product(_compile(f.left), _compile(f.right),
                        lambda p, q: p and q)
    if isinstance(f, Or):
        return _product(_compile(f.left), _compile(f.right),
                        lambda p, q: p or q)
    if isinstance(f, Implies):
        return _product(_compile(f.left), _compile(f.right),
                        lambda p, q: (not p) or q)
    if isinstance(f, Iff):
        return _product(_compile(f.left), _compile(f.right),
                        lambda p, q: p == q)
    if isinstance(f, Exists):
        return _exists(f.var, _compile(f.body))
    if isinstance(f, Forall):
        return _complement(_exists(f.var, _complement(_compile(f.body))))
    raise TypeError(f"not a formula: {f!r}")


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
    foreign = formula_symbols(f) - SIGNATURES["convex"].relations
    if foreign:
        raise SignatureError(
            f"symbols {sorted(foreign)} not in the convex signature")
    dfa = _compile(f)
    if dfa.variables:
        raise SignatureError("sentence compiled with leftover free tracks")
    # a word ends with the end marker at the last point; acceptance of a bit
    # prefix is acceptance after that final letter, and the step automaton
    # reads the two step letters only
    steps = _minimize(_reachable(_DFA(
        (), dfa.start,
        frozenset(q for q, row in enumerate(dfa.trans)
                  if row[_END] in dfa.accept),
        tuple(row[:_END] for row in dfa.trans))))
    return StepAutomaton(
        n_states=len(steps.trans),
        start=0,
        step_new=tuple(row[0] for row in steps.trans),
        step_grow=tuple(row[1] for row in steps.trans),
        accepting=tuple(q in steps.accept for q in range(len(steps.trans))),
    )
