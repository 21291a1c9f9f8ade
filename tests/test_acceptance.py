"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values are either re-derived here by independent enumeration
oracles (counts, closed-form finite-n probabilities, brute-force
partitioning) or verified boolean identities; nothing is asserted that is
not computed from first principles in this module or pinned from the
problem statement's closed forms.
"""
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

from conftest import chain_walk, max_norm_distance, partition_by, \
    shapes_up_to
from limlaw.battery import BATTERY
from limlaw.efgame import GameSolver, fast_equiv_shapes
from limlaw.limitchain import (
    analyze_limit,
    check_fully_aperiodic,
    distribution_after,
    estimate_probability,
    limiting_distribution,
)
from limlaw.limitchain import Chain, ChainState
from limlaw.logic import SIGNATURES, evaluate, parse, translate_to_convex
from limlaw.structures import (
    ConvexLinearOrder,
    PartSequence,
    as_relational,
    decompose,
    enumerate_shapes,
    shape_from_bits,
)


def _report(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok


@lru_cache(maxsize=None)
def _battery_analyses():
    return tuple(analyze_limit(e.theory, e.text) for e in BATTERY)


@lru_cache(maxsize=None)
def _shared_solver():
    return GameSolver()


#: Per theory, the atom ``(p + left) symbol (p + right)`` that holds exactly
#: when points p and p+1 lie in one class (block, part).
_SAME_BLOCK = (("convex", "E", 0, 1),
               ("layered", "<2", 1, 0),
               ("composition", "E", 0, 1),
               ("fractured", "p2", 0, 1))


def test_criterion_01_counting():
    ok = True
    for n in range(1, 15):
        shapes = enumerate_shapes(n)
        distinct = set(shapes)
        ok &= len(distinct) == 2 ** (n - 1)
        # the step decomposition is a bijection onto {0,1}^(n-1)
        steps = {decompose(ConvexLinearOrder(s)) for s in distinct}
        ok &= len(steps) == 2 ** (n - 1)
        ok &= all(shape_from_bits(decompose(ConvexLinearOrder(s))) == s
                  for s in distinct)
        # each theory's view gives back its shape's step bits (whether
        # points p and p+1 share a block), so the structures of every theory
        # are equinumerous with the shapes
        points = np.arange(1, n)
        for theory, symbol, left, right in _SAME_BLOCK:
            ok &= {shape_from_bits(as_relational(theory, s).relation(
                       symbol, points + left, points + right))
                   for s in distinct} == distinct
    _report(1, "2^(n-1) structures of each theory for n <= 14", ok)


def test_criterion_02_linear_order_threshold():
    solver = _shared_solver()
    views = {n: as_relational("convex", PartSequence((1,) * n))
             for n in range(1, 21)}
    ok = True
    for k in range(0, 5):
        for n in range(1, 21):
            for m in range(n, 21):
                want = (n == m) or (n >= 2 ** k - 1 and m >= 2 ** k - 1)
                if solver.equiv(views[n], views[m], k) != want:
                    ok = False
    _report(2, "equiv_k on linear orders matches the 2^k-1 threshold "
               "(n,m <= 20, k <= 4)", ok)


def test_criterion_03_oracle_equivalence():
    shapes = shapes_up_to(7)
    assert len(shapes) == 127
    views = [as_relational("convex", s) for s in shapes]
    solver = GameSolver()
    disagreements = 0
    checked = 0
    for k in (1, 2, 3):
        for i in range(len(shapes)):
            for j in range(i, len(shapes)):
                checked += 1
                if fast_equiv_shapes(shapes[i], shapes[j], k) != \
                        solver.equiv(views[i], views[j], k):
                    disagreements += 1
    ok = disagreements == 0 and checked == 3 * 8128
    _report(3, f"segment decider agrees with the game solver on all "
               f"{checked} size<=7 pair checks", ok)


def test_criterion_04_congruences():
    from limlaw.structures import hat, oplus

    rng = random.Random(1234)
    solver = _shared_solver()
    shapes = shapes_up_to(6)
    violations = 0
    for operation in ("oplus", "hat"):
        done = 0
        while done < 200:
            k = rng.randint(1, 3)
            classes = _partition_cache(k)
            cls1 = rng.choice(classes)
            m, n = rng.choice(cls1), rng.choice(cls1)
            if operation == "oplus":
                cls2 = rng.choice(classes)
                m2, n2 = rng.choice(cls2), rng.choice(cls2)
                left = oplus(ConvexLinearOrder(m), ConvexLinearOrder(m2))
                right = oplus(ConvexLinearOrder(n), ConvexLinearOrder(n2))
            else:
                left = hat(ConvexLinearOrder(m))
                right = hat(ConvexLinearOrder(n))
            if not solver.equiv(left, right, k):
                violations += 1
            done += 1
    _report(4, "200 sampled instances each of the sum and grow congruences, "
               "zero violations", violations == 0)


@lru_cache(maxsize=None)
def _partition_cache(k: int):
    classes = partition_by(shapes_up_to(6),
                           lambda a, b: fast_equiv_shapes(a, b, k))
    return tuple(tuple(cls) for cls in classes)


def _two_cycle_chain() -> Chain:
    rep = ConvexLinearOrder(PartSequence((1,)))
    return Chain(k=0, states=(
        ChainState(0, rep, None, 1, 1),
        ChainState(1, rep, None, 0, 0),
    ), start=0)


def test_criterion_05_full_aperiodicity():
    ok = all(check_fully_aperiodic(a.chain) for a in _battery_analyses())
    ok &= not check_fully_aperiodic(_two_cycle_chain())
    _report(5, "every battery chain is fully aperiodic; the hand-built "
               "2-cycle is not", ok)


def test_criterion_06_pushforward_exactness():
    from limlaw.limitchain import build_chain

    ok = True
    # depth <= 2: the class chains, with every shape classified by the
    # game solver against the representatives (the walk only orders the
    # candidate representatives; membership is decided by the solver)
    solver = _shared_solver()
    for k in (0, 1, 2):
        chain = build_chain(k)
        rep_views = [as_relational("convex", s.representative.shape)
                     for s in chain.states]
        for n in range(1, 13):
            counts = [0] * len(chain)
            for shape in enumerate_shapes(n):
                view = as_relational("convex", shape)
                hint = chain_walk(chain, shape)
                if solver.equiv(view, rep_views[hint], k):
                    counts[hint] += 1
                    continue
                for idx, rv in enumerate(rep_views):
                    if idx != hint and solver.equiv(view, rv, k):
                        counts[idx] += 1
                        break
                else:
                    ok = False
            dist = distribution_after(chain, n - 1)
            denom = 1 << (n - 1)
            if any(Fraction(c, denom) != dist[i]
                   for i, c in enumerate(counts)):
                ok = False
    # every battery chain is a step automaton, a quotient of the class
    # chain (which cannot be materialized at depth 3): the identity still
    # holds exactly on each of them
    for analysis in _battery_analyses():
        chain = analysis.chain
        for n in range(1, 13):
            counts = [0] * len(chain)
            for shape in enumerate_shapes(n):
                counts[chain_walk(chain, shape)] += 1
            dist = distribution_after(chain, n - 1)
            denom = 1 << (n - 1)
            if any(Fraction(c, denom) != dist[i]
                   for i, c in enumerate(counts)):
                ok = False
    _report(6, "step distributions equal the exact classification of the "
               "uniform measure (k <= 3, n <= 12)", ok)


# the five pinned limits with their shape predicates and closed-form counts
CRITERION7 = [
    ("exists x. x = x", "convex",
     lambda parts: True,
     lambda n: 2 ** (n - 1),
     Fraction(1)),
    ("exists x. exists y. (x E y & !(x = y))", "convex",
     lambda parts: any(p >= 2 for p in parts),
     lambda n: 2 ** (n - 1) - 1,
     Fraction(1)),
    (BATTERY[2].text, "convex",
     lambda parts: parts[0] >= 2,
     lambda n: 2 ** (n - 2) if n >= 2 else 0,
     Fraction(1, 2)),
    (BATTERY[3].text, "convex",
     lambda parts: len(parts) >= 2 and parts[0] == 1 and parts[1] == 1,
     lambda n: 2 ** (n - 3) if n >= 3 else (1 if n == 2 else 0),
     Fraction(1, 4)),
    ("exists x. exists y. (x <1 y & y <2 x)", "layered",
     lambda parts: any(p >= 2 for p in parts),
     lambda n: 2 ** (n - 1) - 1,
     Fraction(1)),
]


def test_criterion_07_exact_limits():
    ok = True
    for text, theory, predicate, count_formula, want in CRITERION7:
        sentence = parse(text, SIGNATURES[theory])
        # semantic tie: the shape predicate is exactly the sentence, n <= 9
        for n in range(1, 10):
            for shape in enumerate_shapes(n):
                if evaluate(as_relational(theory, shape), sentence) != \
                        predicate(shape.parts):
                    ok = False
        # enumeration for n <= 14 matches the closed-form counts
        for n in range(1, 15):
            count = sum(1 for shape in enumerate_shapes(n)
                        if predicate(shape.parts))
            if count != count_formula(n):
                ok = False
        # the closed forms converge to the pinned limit and the chain
        # reproduces it exactly
        if limit_probability_cached(theory, text) != want:
            ok = False
    _report(7, "exact limits 1, 1, 1/2, 1/4, 1 cross-checked against "
               "enumeration to n = 14", ok)


@lru_cache(maxsize=None)
def limit_probability_cached(theory, text):
    for entry, analysis in zip(BATTERY, _battery_analyses()):
        if entry.theory == theory and entry.text == text:
            return analysis.probability
    return analyze_limit(theory, text).probability


def test_criterion_08_exact_vs_iterative():
    tolerance = Fraction(1, 10 ** 9)
    ok = True
    seen = {}
    for analysis in _battery_analyses():
        chain = analysis.chain
        key = (chain.start, tuple((s.succ_plus, s.succ_hat)
                                  for s in chain.states))
        if key not in seen:
            seen[key] = distribution_after(chain, 10 ** 4)
        iterated = seen[key]
        exact = limiting_distribution(chain)
        if max_norm_distance(exact, iterated) >= tolerance:
            ok = False
    _report(8, "exact limiting distributions within 1e-9 of the 10^4-step "
               "distributions for every battery chain", ok)


def test_criterion_09_transfer_property():
    ok = True
    checked = 0
    for entry in BATTERY:
        if entry.theory == "convex":
            continue
        sentence = parse(entry.text, SIGNATURES[entry.theory])
        translated = translate_to_convex(entry.theory, sentence)
        for shape in shapes_up_to(8):
            source = as_relational(entry.theory, shape)
            target = as_relational("convex", shape)
            checked += 1
            if evaluate(source, sentence) != evaluate(target, translated):
                ok = False
    _report(9, f"satisfaction transfers to the convex view of the same "
               f"shape ({checked} exhaustive checks, size <= 8)", ok)


def test_criterion_10_monte_carlo():
    ok = True
    for entry, analysis in zip(BATTERY, _battery_analyses()):
        result = estimate_probability(entry.theory, entry.text,
                                      n=2000, samples=200_000, seed=20240)
        gap = abs(result.estimate - analysis.probability)
        if gap >= Fraction(1, 100):
            ok = False
    _report(10, "Monte Carlo estimates at n=2000 within 0.01 of every "
                "exact limit", ok)
