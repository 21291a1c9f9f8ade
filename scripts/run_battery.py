#!/usr/bin/env python3
"""Exact limits and Monte Carlo estimates for the standing sentence battery.

For every battery sentence this prints the quantifier depth, the number of
states of its step-automaton chain, the exact limiting probability, the exact
probability at a chosen finite n, and a sampling estimate with its 99%
half-width.  Discrepancies beyond what the half-widths allow would indicate
a bug somewhere in the pipeline.
"""
import argparse
import sys
import time
from fractions import Fraction

from limlaw.battery import BATTERY
from limlaw.limitchain import (
    analyze_limit,
    distribution_after,
    estimate_probability,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2000,
                        help="structure size for the finite-n column")
    parser.add_argument("--samples", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=20240)
    args = parser.parse_args(argv)

    header = (f"{'sentence':34} {'theory':12} k st "
              f"{'limit':>8} {'Pr_n exact':>12} {'estimate':>10} "
              f"{'half99':>8} {'gap':>9}")
    print(header)
    print("-" * len(header))
    worst = 0.0
    for entry in BATTERY:
        t0 = time.time()
        analysis = analyze_limit(entry.theory, entry.text)
        exact_n = sum(
            (distribution_after(analysis.chain, args.n - 1)[s.id]
             for s in analysis.chain.states if s.accepting),
            Fraction(0))
        result = estimate_probability(entry.theory, entry.text,
                                      n=args.n, samples=args.samples,
                                      seed=args.seed)
        gap = abs(float(result.estimate) - float(analysis.probability))
        worst = max(worst, gap)
        limit = analysis.probability
        print(f"{entry.name:34} {entry.theory:12} {analysis.k} "
              f"{len(analysis.chain):2d} "
              f"{f'{limit.numerator}/{limit.denominator}':>8} "
              f"{float(exact_n):>12.8f} {float(result.estimate):>10.6f} "
              f"{result.half_width:>8.5f} {gap:>9.6f}"
              f"   ({time.time() - t0:.1f}s)")
        if entry.expected_limit is not None:
            assert limit == entry.expected_limit, entry.name
    print(f"\nworst |estimate - limit| = {worst:.6f} "
          f"({args.samples} samples at n = {args.n})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
