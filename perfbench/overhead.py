#!/usr/bin/env python3
"""The traced run's overhead on one workload, measured two ways.  Untraced
and traced passes alternate in one process, so that the host's drift falls
on both alike, and the overhead is the median of the traced-over-untraced
ratios of neighbouring passes.  And the wrapped calls of a traced pass,
times the cost of one wrapper call on a function that does nothing, give
the overhead without the host's noise.

    python3 perfbench/overhead.py --workload deep-limits --seed 501 --seconds 60
"""
from __future__ import annotations

import argparse
import gc
import statistics
import sys
import timeit
from time import perf_counter

import run


def _timed_pass(ops, tracer=None) -> float:
    gc.collect()
    restore = tracer.install() if tracer else None
    try:
        return sum(run._run_pass(ops, tracer)[0])
    finally:
        if restore:
            restore()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args(argv)
    workloads = run._load()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    import tracing

    ops = workloads.build(args.workload, args.seed)
    tracer = tracing.Tracer()
    plain, traced = [], []
    begin = perf_counter()
    while not plain or perf_counter() - begin < args.seconds:
        # which side goes first alternates, so a steady drift favours neither
        if len(plain) % 2:
            traced.append(_timed_pass(ops, tracer))
            plain.append(_timed_pass(ops))
        else:
            plain.append(_timed_pass(ops))
            traced.append(_timed_pass(ops, tracer))
    ratios = [t / p for p, t in zip(plain, traced)]
    calls = tracer.calls / len(traced)

    def noop():
        return None
    wrapped = tracing.Tracer().wrap("noop", noop)
    per_call = (min(timeit.repeat(wrapped, number=20_000, repeat=5))
                - min(timeit.repeat(noop, number=20_000, repeat=5))) / 20_000
    print(f"{args.workload}: {len(ratios)} pairs, untraced pass "
          f"{statistics.median(plain):.3f} s, traced pass "
          f"{statistics.median(traced):.3f} s, overhead "
          f"{100 * (statistics.median(ratios) - 1):+.1f}% "
          f"(pairs {100 * (min(ratios) - 1):+.1f}% to {100 * (max(ratios) - 1):+.1f}%); "
          f"{calls:.0f} wrapped calls per pass at {1e6 * per_call:.2f} us, "
          f"{100 * calls * per_call / statistics.median(plain):.2f}% of the pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
