"""latgreen benchmark: one workload per call, each run in fresh processes.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload tables --seed 1 --seconds 15 --trace 0

Workloads: tables, points, theta, verify (see bench/README.md).  With
``--trace 0`` it reports the end-to-end metrics; set-up is measured in
several processes and reported as their median.  With ``--trace 1`` it
reports the per-layer metrics of a traced run.  The last line of standard
output is one JSON object; the full result, with per-layer span totals,
is also written under ``.bench_results/``.  Exits 0 only when the run
completed and every output check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tables", "points", "theta", "verify")
# set-up is short and noisy, so it is sampled in this many processes
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    # GREEN_NODES changes the CLI's default node count, and so the work
    env = {k: v for k, v in os.environ.items() if k not in ("GREEN_NODES", "PYTHONPATH")}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
    })
    return env


def run_worker(args, tmp: Path, extra=()) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "latgreen" / "__init__.py").is_file():
        print(f"no latgreen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(run_worker(args, tmp, ["--setup-only"])["setup_s"])
        result = run_worker(args, tmp)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if not args.trace:
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
        result["setup_samples_s"] = setup
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=2) + "\n")

    for name, m in result["metrics"].items():
        print(f"{args.workload:8s} {name:42s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:8s} attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
