"""Run one workload in this process and print one JSON line.

Started by ``run.py`` in a fresh process per run.  Only the standard
library is imported before ``latgreen``, so the measured set-up time
covers the program's own import (numpy included), building the inputs
and one untimed warm-up operation.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def timed_loop(wl, seconds: float, tracer=None):
    """Operations 0, 1, 2, ... until ``seconds`` have passed.

    Returns (durations, values per operation, failed, records, untraced).
    An operation that raises counts as failed and contributes no values.
    With a tracer, each operation runs twice in a row, traced and
    untraced; ``untraced`` holds the durations of the untraced runs, so
    that the tracing overhead is measured on pairs made close in time.
    """
    durations, counts, records, untraced = [], [], [], []
    failed = i = 0
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        inputs = wl.make(i)
        # with a tracer the untraced run comes first on even operations and
        # last on odd ones, so neither side gains from running second
        if tracer is not None and i % 2 == 0:
            untraced.append(_timed(wl, inputs)[0])
        if tracer is not None:
            tracer.install()
        try:
            dt, n, output = _timed(wl, inputs)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.fold()
        if tracer is not None and i % 2 == 1:
            untraced.append(_timed(wl, inputs)[0])
        durations.append(dt)
        counts.append(n)
        if output is None:
            failed += 1
            print(f"op {i} failed", file=sys.stderr)
        else:
            records.append((inputs, output))
        i += 1
    return durations, counts, failed, records, untraced


def _timed(wl, inputs):
    t0 = time.perf_counter()
    try:
        n, output = wl.run(inputs)
    except Exception:  # counted as failed by the caller; the run goes on
        traceback.print_exc()
        n, output = 0, None
    return time.perf_counter() - t0, n, output


def throughput(durations, counts, slices: int = 10) -> float:
    """Median over consecutive slices of the run of values per second.

    A slice is at least one operation; the median keeps one stall of the
    machine from moving the figure, as it does for op_p50_ms.
    """
    n = len(durations)
    k = max(1, min(slices, n))
    bounds = [round(j * n / k) for j in range(k + 1)]
    return statistics.median(
        sum(counts[a:b]) / sum(durations[a:b]) for a, b in zip(bounds, bounds[1:]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="directory for output files")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import latgreen

    src = ROOT / "src"
    if src not in Path(latgreen.__file__).resolve().parents:
        print(f"latgreen was imported from {latgreen.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.tmp))
    wl.run(wl.make(0))
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tr = None
    if args.trace:
        import tracer

        tr = tracer.Tracer()
    durations, counts, failed, records, untraced = timed_loop(wl, args.seconds, tr)
    if tr is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "values_per_s": (throughput(durations, counts), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(durations), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        p50, plain_p50 = statistics.median(durations), statistics.median(untraced)
        metrics = tracer.layer_metrics(
            tr, len(durations), sum(counts), 100.0 * (p50 - plain_p50) / plain_p50)

    errors = wl.check(records)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": len(durations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "layers": tr.totals if tr else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
