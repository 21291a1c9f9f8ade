#!/usr/bin/env python3
"""Run one workload untraced on several seeds, one run after another, and
print each end-to-end metric's median and spread (interquartile range over
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles).

    python3 perfbench/spread.py --workload sampling --seeds 401-410 --seconds 25
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", default="25")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        shares.add((result["correct"], result["failed"] / result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(seed, json.dumps(result), flush=True)

    print(f"correct and failed share: {sorted(shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) < 2 or not med:
            print(f"{name:36} median {med:12.4f}")
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:36} median {med:12.4f}  spread {(q3 - q1) / med:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
