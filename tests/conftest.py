"""Shared oracles and helpers for the test suite.

The relation oracles here rebuild every relation from first principles
(explicit point loops, block reversal for the permutation values), entirely
independent of the library's prefix-sum views, so view/oracle agreement is a
real check rather than a tautology.  :func:`recursive_evaluate` is the model
checker oracle: plain recursion over the formula, one point at a time through
``holds``, against which the library's array evaluator is tested.
:func:`chain_walk` is the walk oracle: one step at a time through a chain,
against which the sampler's byte-at-a-time walk is tested.
:func:`chain_from_json` reads back a chain written by
``limitchain.chain_to_json``, for the round-trip test.
:class:`PairSearch` is the game oracle: the solver's pair search run down to
the last round, against which the solver's type comparison over the last two
rounds is tested.  :func:`dense_limiting_distribution` is the limit oracle:
dense Gaussian elimination over ``Fraction`` on classes found by plain
reachability, against which the solver's one pass over the components is
tested.
"""
from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

from limlaw.efgame import GameSolver
from limlaw.limitchain import (
    Chain,
    ChainState,
    Distribution,
    PeriodicChainError,
)
from limlaw.logic import (
    And,
    Atom,
    Exists,
    FALSE,
    FalseFormula,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    TRUE,
    TrueFormula,
)
from limlaw.structures import (
    ConvexLinearOrder,
    PartSequence,
    decompose,
    enumerate_shapes,
)


def recursive_evaluate(struct, f, env=None) -> bool:
    """First-order satisfaction by direct recursion: quantifiers loop over
    the points, atoms call ``struct.holds``.  ``env`` assigns the free
    variables; shadowing uses the innermost binding."""
    scope = dict(env) if env else {}
    points = range(1, struct.size + 1)

    def rec(g) -> bool:
        if isinstance(g, Atom):
            if g.symbol == "=":
                return scope[g.left] == scope[g.right]
            return struct.holds(g.symbol, scope[g.left], scope[g.right])
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
            for p in points:
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


def chain_walk(chain, shape: PartSequence) -> int:
    """State reached by running the shape's construction steps through the
    chain from its start, one step at a time."""
    state = chain.start
    for bit in decompose(ConvexLinearOrder(shape)):
        s = chain.states[state]
        state = s.succ_hat if bit else s.succ_plus
    return state


def chain_from_json(doc: dict) -> Chain:
    """The chain written by :func:`limitchain.chain_to_json`, read back."""
    states = tuple(
        ChainState(
            id=entry["id"],
            representative=ConvexLinearOrder(
                PartSequence.from_text(entry["representative"])),
            accepting=entry["accepting"],
            succ_plus=entry["succ_plus"],
            succ_hat=entry["succ_hat"],
        )
        for entry in doc["states"]
    )
    return Chain(k=doc["k"], states=states, start=doc["start"])


def reachable(chain) -> list[set[int]]:
    """The states each state reaches in zero or more steps."""
    reach = []
    for u in range(len(chain)):
        seen = {u}
        todo = [u]
        while todo:
            s = chain.states[todo.pop()]
            for v in (s.succ_plus, s.succ_hat):
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        reach.append(seen)
    return reach


def closed_classes(chain) -> list[tuple[frozenset[int], int]]:
    """Each closed class with its period.  A state lies in one if it is
    reached back from every state it reaches, and the class is then all it
    reaches; the period is the gcd of ``level[u] + 1 - level[v]`` over the
    class's steps, with levels from a search out of its least state."""
    reach = reachable(chain)
    classes = []
    for u in range(len(chain)):
        members = frozenset(reach[u])
        if u != min(members) or any(u not in reach[v] for v in members):
            continue
        level = {u: 0}
        todo = [u]
        for w in todo:
            s = chain.states[w]
            for v in (s.succ_plus, s.succ_hat):
                if v not in level:
                    level[v] = level[w] + 1
                    todo.append(v)
        period = 0
        for w in members:
            s = chain.states[w]
            for v in (s.succ_plus, s.succ_hat):
                period = gcd(period, level[w] + 1 - level[v])
        classes.append((members, period))
    return classes


def _gauss_solve(matrix, rhs):
    """Gaussian elimination over the rationals; ``rhs`` holds one column per
    right-hand side."""
    n = len(matrix)
    a = [row[:] + r[:] for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def dense_limiting_distribution(chain) -> Distribution:
    """The chain's limit, solved densely: each closed class's stationary
    distribution by its own elimination, weighted by the chance of being
    absorbed into it, which one elimination over all transient states
    gives for every class at once."""
    classes = closed_classes(chain)
    for members, period in classes:
        if period != 1:
            raise PeriodicChainError(min(members), period)
    n = len(chain)
    class_of = {u: ci for ci, (members, _) in enumerate(classes)
                for u in members}
    half = Fraction(1, 2)

    def weight(u, v):
        s = chain.states[u]
        return half * ((s.succ_plus == v) + (s.succ_hat == v))

    probs = [Fraction(0)] * n
    transient = [u for u in range(n) if u not in class_of]
    if chain.start in class_of:
        absorb = [Fraction(int(ci == class_of[chain.start]))
                  for ci in range(len(classes))]
    else:
        t_pos = {u: i for i, u in enumerate(transient)}
        rows, rhs = [], []
        for u in transient:
            row = [Fraction(0)] * len(transient)
            row[t_pos[u]] += 1
            hit = [Fraction(0)] * len(classes)
            for v in {chain.states[u].succ_plus, chain.states[u].succ_hat}:
                if v in t_pos:
                    row[t_pos[v]] -= weight(u, v)
                else:
                    hit[class_of[v]] += weight(u, v)
            rows.append(row)
            rhs.append(hit)
        absorb = _gauss_solve(rows, rhs)[t_pos[chain.start]]
    assert sum(absorb) == 1
    for (members, _), mass in zip(classes, absorb):
        comp = sorted(members)
        m = len(comp)
        rows = [[weight(comp[i], comp[j]) - (i == j) for i in range(m)]
                for j in range(m - 1)] + [[Fraction(1)] * m]
        rhs = [[Fraction(0)]] * (m - 1) + [[Fraction(1)]]
        for u, (p,) in zip(comp, _gauss_solve(rows, rhs)):
            probs[u] = mass * p
    return Distribution(tuple(probs))


class PairSearch(GameSolver):
    """The game solver with no type leaf: every position with one or more
    rounds left is searched move by move, Spoiler's moves against the
    consistent replies, and memoized under its exact played points.
    Only ``equiv`` is meant to be called; ``nodes`` and ``budget`` are not
    kept."""

    def _win(self, A, B, pairs, r):
        if r <= 0:
            return True
        key = (r, A.view.theory, A.view.shape.parts, B.view.shape.parts, pairs)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = self._search(A, B, pairs, r)
        return value


ALL_SYMBOLS = ("<", "E", "<1", "<2", "p1", "p2")


def random_formula(rng, variables, depth, symbols=ALL_SYMBOLS, fresh=0.0):
    """A random formula at most ``depth`` levels deep whose atoms name only
    the variables bound above it (``variables``), so it is closed when
    ``variables`` is empty.  Quantifiers may shadow a bound name or bind a
    name their body does not use.  ``fresh`` is the chance that a level
    above the last is a quantifier over a name not bound above it; at 0
    the draw takes no extra random numbers."""
    if fresh and depth > 0 and rng.random() < fresh:
        var = f"v{len(variables)}"
        quant = Exists if rng.random() < 0.5 else Forall
        return quant(var, random_formula(rng, variables + [var], depth - 1,
                                         symbols, fresh))
    kind = rng.randrange(10 if depth > 0 else 4)
    bound = [v for v in variables if v is not None]
    if kind == 0:
        return TRUE if rng.random() < 0.5 else FALSE
    if kind in (1, 2) and len(bound) >= 1:
        a, b = rng.choice(bound), rng.choice(bound)
        return Atom(rng.choice(symbols), a, b)
    if kind == 3 and bound:
        return Atom("=", rng.choice(bound), rng.choice(bound))
    if kind == 4:
        return Not(random_formula(rng, variables, depth - 1, symbols, fresh))
    if kind in (5, 6, 7):
        op = {5: And, 6: Or, 7: Implies}[kind]
        return op(random_formula(rng, variables, depth - 1, symbols, fresh),
                  random_formula(rng, variables, depth - 1, symbols, fresh))
    if kind == 8:
        return Iff(random_formula(rng, variables, depth - 1, symbols, fresh),
                   random_formula(rng, variables, depth - 1, symbols, fresh))
    var = rng.choice(["x", "y", "z", "w"])  # shadowing allowed
    quant = Exists if rng.random() < 0.5 else Forall
    return quant(var, random_formula(rng, variables + [var], depth - 1,
                                     symbols, fresh))


def _load_closed_form_sentences():
    """``perfbench/sentences.py``: ladders and families written out as text
    with their limits derived by hand."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "sentences.py"
    spec = importlib.util.spec_from_file_location("closed_form_sentences", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


closed_form = _load_closed_form_sentences()


def class_assignment(parts) -> list[int]:
    """Point -> class index (1-based points), by explicit enumeration."""
    assign = [None]
    for idx, part in enumerate(parts):
        assign.extend([idx] * part)
    return assign


def permutation_values(parts) -> list[int]:
    """One-line values of the layered permutation with the given blocks,
    built by writing each block's value interval in reverse."""
    values = [None]
    lo = 1
    for part in parts:
        hi = lo + part - 1
        values.extend(range(hi, lo - 1, -1))
        lo = hi + 1
    return values


def naive_relations(theory: str, parts) -> dict[str, set[tuple[int, int]]]:
    """Relation tables built pointwise from the definitions."""
    n = sum(parts)
    cls = class_assignment(parts)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    if theory == "convex":
        return {
            "<": {(i, j) for i, j in pairs if i < j},
            "E": {(i, j) for i, j in pairs if cls[i] == cls[j]},
        }
    if theory == "layered":
        val = permutation_values(parts)
        return {
            "<1": {(i, j) for i, j in pairs if i < j},
            "<2": {(i, j) for i, j in pairs if val[i] < val[j]},
        }
    if theory == "composition":
        return {
            "E": {(i, j) for i, j in pairs if cls[i] == cls[j]},
            "p1": {(i, j) for i, j in pairs if cls[i] < cls[j]},
        }
    if theory == "fractured":
        rel = naive_relations("composition", parts)
        rel["p2"] = {(i, j) for i, j in pairs if cls[i] == cls[j] and i < j}
        return rel
    raise ValueError(theory)


def shapes_up_to(max_n: int) -> list[PartSequence]:
    return [s for n in range(1, max_n + 1) for s in enumerate_shapes(n)]


def random_shape(rng: random.Random, max_n: int) -> PartSequence:
    n = rng.randint(1, max_n)
    parts = [1]
    for _ in range(n - 1):
        if rng.random() < 0.5:
            parts[-1] += 1
        else:
            parts.append(1)
    return PartSequence(tuple(parts))


def partition_by(shapes, equiv) -> list[list]:
    """Partition into classes using the given pairwise decision."""
    reps: list = []
    classes: list[list] = []
    for s in shapes:
        for idx, r in enumerate(reps):
            if equiv(s, r):
                classes[idx].append(s)
                break
        else:
            reps.append(s)
            classes.append([s])
    return classes


def max_norm_distance(p, q):
    """Largest coordinate gap between two distributions."""
    return max(abs(a - b) for a, b in zip(p.probabilities, q.probabilities))
