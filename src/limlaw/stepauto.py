"""Compile convex-language sentences into automata over construction steps.

A structure of size n is determined by its n-1 construction steps.  Reading
the steps as a word whose positions are the points (with an end marker for
the last point), point order is position order and two points are
class-equivalent exactly when every step strictly between them grows the
last class.  Every sentence therefore defines a regular language of step
strings: atoms compile to four-state track automata, connectives to
products and complements, quantifiers to projection followed by subset
construction, with eager minimization throughout.

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
from itertools import combinations

from .logic import (
    And,
    Atom,
    Equals,
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

_BITS = (0, 1, 2)  # 0: new singleton class, 1: grow last class, 2: end marker
_END = 2


def _subsets(variables: tuple[str, ...]):
    out = [frozenset()]
    for r in range(1, len(variables) + 1):
        out.extend(frozenset(c) for c in combinations(variables, r))
    return tuple(out)


def _alphabet(variables: tuple[str, ...]):
    return tuple((b, m) for b in _BITS for m in _subsets(variables))


@dataclass(frozen=True)
class _DFA:
    """Complete DFA over (step bit, marked variables) letters."""

    variables: tuple[str, ...]
    n_states: int
    start: int
    accept: frozenset[int]
    trans: tuple[dict, ...]  # per state: letter -> state


def _refine(classes: list[int], successors: list[tuple[int, ...]]
            ) -> list[int]:
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
    letters = _alphabet(dfa.variables)
    cls = _refine([q in dfa.accept for q in range(dfa.n_states)],
                  [tuple(row[l] for l in letters) for row in dfa.trans])
    n = len(set(cls))
    rep_of = {}
    for q in range(dfa.n_states):
        rep_of.setdefault(cls[q], q)
    trans = tuple(
        {l: cls[dfa.trans[rep_of[c]][l]] for l in letters} for c in range(n)
    )
    accept = frozenset(c for c, q in rep_of.items() if q in dfa.accept)
    return _DFA(dfa.variables, n, cls[dfa.start], accept, trans)


def _reachable(dfa: _DFA) -> _DFA:
    letters = _alphabet(dfa.variables)
    order = [dfa.start]
    index = {dfa.start: 0}
    for q in order:
        for l in letters:
            s = dfa.trans[q][l]
            if s not in index:
                index[s] = len(order)
                order.append(s)
    trans = tuple({l: index[dfa.trans[q][l]] for l in letters} for q in order)
    accept = frozenset(index[q] for q in dfa.accept if q in index)
    return _DFA(dfa.variables, len(order), 0, accept, trans)


def _tidy(dfa: _DFA) -> _DFA:
    return _minimize(_reachable(dfa))


def _const(variables: tuple[str, ...], value: bool) -> _DFA:
    letters = _alphabet(variables)
    return _DFA(variables, 1, 0, frozenset({0} if value else ()),
                ({l: 0 for l in letters},))


def _atom_lt(x: str, y: str) -> _DFA:
    variables = tuple(sorted({x, y}))
    letters = _alphabet(variables)
    NONE, XSEEN, ACC, DEAD = 0, 1, 2, 3
    trans = []
    for q in range(4):
        row = {}
        for bit, marks in letters:
            if q == NONE:
                if x in marks and y in marks:
                    nxt = DEAD
                elif x in marks:
                    nxt = XSEEN
                elif y in marks:
                    nxt = DEAD
                else:
                    nxt = NONE
            elif q == XSEEN:
                nxt = ACC if y in marks else XSEEN
            else:
                nxt = q
            row[(bit, marks)] = nxt
        trans.append(row)
    return _DFA(variables, 4, NONE, frozenset({ACC}), tuple(trans))


def _atom_eq(x: str, y: str) -> _DFA:
    variables = tuple(sorted({x, y}))
    letters = _alphabet(variables)
    NONE, ACC, DEAD = 0, 1, 2
    trans = []
    for q in range(3):
        row = {}
        for bit, marks in letters:
            if q == NONE:
                if x in marks and y in marks:
                    nxt = ACC
                elif x in marks or y in marks:
                    nxt = DEAD
                else:
                    nxt = NONE
            else:
                nxt = q
            row[(bit, marks)] = nxt
        trans.append(row)
    return _DFA(variables, 3, NONE, frozenset({ACC}), tuple(trans))


def _atom_same_class(x: str, y: str) -> _DFA:
    # class equivalence: equal positions, or an unbroken run of grow-steps
    # from the first mark up to (excluding) the second
    variables = tuple(sorted({x, y}))
    letters = _alphabet(variables)
    NONE, WAIT, ACC, DEAD = 0, 1, 2, 3
    trans = []
    for q in range(4):
        row = {}
        for bit, marks in letters:
            marked = (x in marks) or (y in marks)
            if q == NONE:
                if x in marks and y in marks:
                    nxt = ACC
                elif marked:
                    nxt = WAIT if bit == 1 else DEAD
                else:
                    nxt = NONE
            elif q == WAIT:
                if marked:
                    nxt = ACC
                else:
                    nxt = WAIT if bit == 1 else DEAD
            else:
                nxt = q
            row[(bit, marks)] = nxt
        trans.append(row)
    return _DFA(variables, 4, NONE, frozenset({ACC}), tuple(trans))


def _lift(dfa: _DFA, variables: tuple[str, ...]) -> _DFA:
    """Reinterpret over a larger variable set, ignoring the new marks."""
    if dfa.variables == variables:
        return dfa
    letters = _alphabet(variables)
    own = frozenset(dfa.variables)
    trans = tuple(
        {(b, m): dfa.trans[q][(b, m & own)] for b, m in letters}
        for q in range(dfa.n_states)
    )
    return _DFA(variables, dfa.n_states, dfa.start, dfa.accept, trans)


def _product(a: _DFA, b: _DFA, op) -> _DFA:
    variables = tuple(sorted(set(a.variables) | set(b.variables)))
    a = _lift(a, variables)
    b = _lift(b, variables)
    letters = _alphabet(variables)
    index = {}
    order = []

    def state_id(pair):
        if pair not in index:
            index[pair] = len(order)
            order.append(pair)
        return index[pair]

    state_id((a.start, b.start))
    trans = []
    for qa, qb in order:
        trans.append({l: state_id((a.trans[qa][l], b.trans[qb][l]))
                      for l in letters})
    accept = frozenset(
        i for i, (qa, qb) in enumerate(order)
        if op(qa in a.accept, qb in b.accept)
    )
    return _tidy(_DFA(variables, len(order), 0, accept, tuple(trans)))


def _complement(dfa: _DFA) -> _DFA:
    accept = frozenset(q for q in range(dfa.n_states) if q not in dfa.accept)
    return _DFA(dfa.variables, dfa.n_states, dfa.start, accept, dfa.trans)


def _exists(var: str, body: _DFA) -> _DFA:
    """Project the variable's track: some placement of its single mark leads
    to acceptance.  Structures are never empty, so a vacuous quantifier is
    the identity."""
    if var not in body.variables:
        return body
    variables = tuple(v for v in body.variables if v != var)
    letters = _alphabet(variables)
    start = frozenset({(body.start, False)})
    index = {start: 0}
    order = [start]
    trans = []
    for subset in order:
        row = {}
        for bit, marks in letters:
            nxt = set()
            for q, placed in subset:
                nxt.add((body.trans[q][(bit, marks)], placed))
                if not placed:
                    nxt.add((body.trans[q][(bit, marks | {var})], True))
            key = frozenset(nxt)
            if key not in index:
                index[key] = len(order)
                order.append(key)
            row[(bit, marks)] = index[key]
        trans.append(row)
    accept = frozenset(
        i for i, subset in enumerate(order)
        if any(placed and q in body.accept for q, placed in subset)
    )
    return _tidy(_DFA(variables, len(order), 0, accept, tuple(trans)))


def _compile(f: Formula) -> _DFA:
    if isinstance(f, TrueFormula):
        return _const((), True)
    if isinstance(f, FalseFormula):
        return _const((), False)
    if isinstance(f, Equals):
        if f.left == f.right:
            return _const((f.left,), True)
        return _atom_eq(f.left, f.right)
    if isinstance(f, Atom):
        if f.symbol == "<":
            if f.left == f.right:
                return _const((f.left,), False)
            return _atom_lt(f.left, f.right)
        if f.symbol == "E":
            if f.left == f.right:
                return _const((f.left,), True)
            return _atom_same_class(f.left, f.right)
        raise SignatureError(
            f"relation {f.symbol!r} is not in the convex signature")
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
    dfa = _tidy(_compile(f))
    if dfa.variables:
        raise SignatureError("sentence compiled with leftover free tracks")
    empty = frozenset()
    # a word ends with the end marker at the last point; acceptance of a bit
    # prefix is acceptance after that final letter
    accept_bit = [dfa.trans[q][(_END, empty)] in dfa.accept
                  for q in range(dfa.n_states)]
    # minimize the bit automaton against the derived acceptance
    cls = _refine(accept_bit, [(row[(0, empty)], row[(1, empty)])
                               for row in dfa.trans])
    rep_of = {}
    for q in range(dfa.n_states):
        rep_of.setdefault(cls[q], q)
    # restrict to states reachable by bit letters from the start
    order = [cls[dfa.start]]
    index = {cls[dfa.start]: 0}
    new_t = []
    grow_t = []
    acc = []
    for c in order:
        q = rep_of[c]
        for target_list, bit in ((new_t, 0), (grow_t, 1)):
            t = cls[dfa.trans[q][(bit, empty)]]
            if t not in index:
                index[t] = len(order)
                order.append(t)
            target_list.append(index[t])
        acc.append(accept_bit[q])
    return StepAutomaton(
        n_states=len(order),
        start=0,
        step_new=tuple(new_t),
        step_grow=tuple(grow_t),
        accepting=tuple(acc),
    )
