#!/usr/bin/env python3
"""limlaw's benchmark: one workload per process, on one thread.

    python3 perfbench/run.py --workload shallow-limits --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

A run times whole passes over the workload's operations until ``--seconds``
have gone by, then checks every output against its reference.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run; the last line of standard output is one
JSON object.  ``--smoke`` runs each workload's checks once at small sizes.
See README.md for the workloads and the design.
"""
from __future__ import annotations

import os

# one thread, whatever numpy is linked against
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: child processes that each import limlaw and build the inputs; setup_s is
#: the median of their times from start to ready.  They are spread over the
#: run, between passes, so that the median sees the host's speed over the
#: whole run and not over one second of it
SETUP_PROBES = 10


def _load():
    """Import limlaw from this checkout's ``src`` and the workload module."""
    if not (SRC / "limlaw" / "__init__.py").is_file():
        sys.exit(f"run.py: no limlaw sources under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    return workloads


def _setup_time(workload: str, seed: int) -> float:
    """One set-up probe: a child's time from start to ready."""
    t0 = perf_counter()
    with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - t0
        child.stdout.read()
        code = child.wait()
    if code != 0 or line.strip() != "ready":
        sys.exit(f"run.py: set-up probe failed with exit code {code}")
    return elapsed


def _run_pass(ops, tracer=None):
    """One pass; returns (op times, outputs, {op index: failure}, efgame types)."""
    from limlaw import efgame
    times, outputs, failures, types = [], [], {}, 0
    for i, op in enumerate(ops):
        # each operation starts from empty efgame caches, as a fresh
        # `limlaw` process does, so its time does not depend on the order
        efgame.clear_fast_memo()
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = None
            failures[i] = f"{op.label}: {type(exc).__name__}: {exc}"[:300]
        times.append(perf_counter() - t0)
        outputs.append(out)
        if tracer is not None:
            types += efgame.fast_memo_size()
    return times, outputs, failures, types


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, probes: int = 0) -> dict:
    """Timed passes for ``seconds``, not counting the ``probes`` set-up
    probes run between them, then the checks."""
    workloads = _load()
    import tracing

    ops = workloads.build(workload, seed, smoke)
    tracer = tracing.Tracer() if trace else None
    restore = tracer.install() if tracer else None
    pass_times, op_times, per_layer, bounds = [], [], [], []
    failures: dict[int, str] = {}
    failed_ops = 0
    first = None
    mismatched = set()
    setup_times = []
    probing = 0.0
    begin = perf_counter()
    try:
        while not pass_times or perf_counter() - begin - probing < seconds:
            gc.collect()
            lo = len(tracer.spans) if tracer else 0
            times, outputs, failed, types = _run_pass(ops, tracer)
            pass_times.append(sum(times))
            op_times.extend(times)
            failed_ops += len(failed)
            if tracer:
                hi = len(tracer.spans)
                bounds.append((lo, hi))
                per_layer.append(tracing.layer_values(tracer.spans, lo, hi, types))
            if first is None:
                first, failures = outputs, failed
            else:
                mismatched.update(i for i, (a, b) in enumerate(zip(first, outputs))
                                  if a != b)
            while (len(setup_times) < probes and perf_counter() - begin - probing
                   >= len(setup_times) * seconds / probes):
                t0 = perf_counter()
                setup_times.append(_setup_time(workload, seed))
                probing += perf_counter() - t0
    finally:
        if restore:
            restore()

    while len(setup_times) < probes:
        setup_times.append(_setup_time(workload, seed))

    problems = [f"{ops[i].label}: output differs between passes"
                for i in sorted(mismatched)]
    for i, (op, out) in enumerate(zip(ops, first)):
        if i not in failures:
            message = op.check(out)
            if message:
                problems.append(f"{op.label}: {message}")

    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "passes": len(pass_times), "ops_per_pass": len(ops),
        "pass_s": pass_times,
        "failures": list(failures.values()),
        "problems": problems, "correct": not problems,
        "attempted": len(pass_times) * len(ops), "failed": failed_ops,
        "setup_probes_s": setup_times,
        "setup_s": statistics.median(setup_times) if setup_times else None,
    }
    if tracer:
        record["per_layer"] = tracing.median_values(per_layer)
        record["spans"] = (tracer, bounds)
    else:
        record["pass_median_s"] = statistics.median(pass_times)
        record["op_p50_ms"] = 1e3 * statistics.median(op_times)
        record["op_median_ms"] = [
            [op.label, 1e3 * statistics.median(op_times[i::len(ops)])]
            for i, op in enumerate(ops)]
        record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return record


def _save(record: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans", None)
    if spans:
        tracer, bounds = spans
        tracer.dump(RESULTS / f"{stem}-spans.json", bounds)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")


def _result(record: dict) -> dict:
    """The JSON object a run prints last."""
    if record["trace"]:
        import tracing
        metrics = {name: {"value": record["per_layer"][name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": record["setup_s"], "unit": "s"},
            "pass_s": {"value": record["pass_median_s"], "unit": "s"},
            "op_p50_ms": {"value": record["op_p50_ms"], "unit": "ms"},
            "peak_rss_mib": {"value": record["peak_rss_mib"], "unit": "MiB"},
        }
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def _declared() -> dict[int, dict[str, str]]:
    """Metric names and units declared in BENCHMARK.json, by trace flag."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {trace: {m["name"]: m["unit"] for m in doc[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def smoke() -> int:
    """Every workload's checks at small sizes, untraced and traced, and the
    reported metrics against BENCHMARK.json."""
    workloads = _load()
    declared = _declared()
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            t0 = perf_counter()
            record = measure(name, 0, 0.0, bool(trace), smoke=True,
                             probes=1 - trace)
            metrics = _result(record)["metrics"]
            problems = list(record["problems"])
            if {k: v["unit"] for k, v in metrics.items()} != declared[trace]:
                problems.append("metric names or units differ from BENCHMARK.json")
            expected_failed = record["passes"] if name == "shallow-limits" else 0
            good = not problems and record["failed"] == expected_failed
            ok &= good
            print(f"{name:15} trace={trace} {'ok' if good else 'FAIL'} "
                  f"{record['ops_per_pass']} ops, {record['failed']} failed, "
                  f"{perf_counter() - t0:.1f} s")
            for line in record["failures"] + problems:
                print(f"    {line}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload's checks at small sizes")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.smoke:
        return smoke()
    workloads = _load()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.probe:
        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     probes=0 if args.trace else SETUP_PROBES)
    for line in record["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    for line in record["problems"]:
        print(f"wrong: {line}", file=sys.stderr)
    print(f"{record['passes']} passes of {record['ops_per_pass']} operations, "
          f"pass times {', '.join(f'{t:.3f}' for t in record['pass_s'])} s")
    result = _result(record)
    _save(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
