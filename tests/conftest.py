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
rounds is tested.
"""
from __future__ import annotations

import importlib.util
import random
from pathlib import Path

from limlaw.efgame import GameSolver
from limlaw.limitchain import Chain, ChainState
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
