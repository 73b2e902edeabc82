"""qroutes benchmark: one closed-loop client, three workloads.

    python3 bench/run.py --workload cli-builtins --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory, never from an installed copy. The run writes seeded
input files under ``.bench_work/``, then, with ``--trace 0``:

1. launches a fresh interpreter SETUP_SAMPLES times, one at a time, and
   times each from launch to the end of its first op (``setup_s`` is the
   median);
2. launches one worker (``worker.py``) that runs whole passes of the
   workload's ops for ``--seconds`` and checks every output.

With ``--trace 1`` it skips step 1 and the worker traces every other pass,
giving the per-module metrics. Both set BLAS to one thread. The last line
of stdout is the JSON result; the lines before it repeat each metric with
the details that do not fit there (tail percentile and sample count,
failure fraction, environment and seed, tracer self-check).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# At dimension <= 1024 a second BLAS thread gains nothing and adds jitter.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {  # by metric-name suffix
    ".calls": "calls/op",
    ".self_ms": "ms/op",
    ".work_n3": "n3/op",
    ".bytes": "B/op",
    ".total_dim_max": "dim",
    ".raised": "count",
    ".overhead_frac": "frac",
}


def _worker(run_dir: Path, *extra: str) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), str(ROOT), str(run_dir), *extra]


def setup_sample(run_dir: Path) -> tuple[float, str, str]:
    """Seconds from launching a fresh worker to the end of its first op."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        _worker(run_dir, "--setup-probe"), stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(120.0, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    status, digest = (line.split() + ["", ""])[:2] if line else ("no output", "")
    return elapsed, status, digest


def per_layer_unit(name: str) -> str:
    return next(unit for suffix, unit in PER_LAYER_UNITS.items() if name.endswith(suffix))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qroutes" / "__init__.py").is_file():
        print(f"bench: no qroutes package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED)  # before numpy loads, here and in every child
    sys.path.insert(0, str(ROOT / "src"))
    import qroutes
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    work = ROOT / ".bench_work"
    run_dir = work / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    spans = work / f"spans-{args.workload}.jsonl"
    try:
        ops = workloads.build(args.workload, args.seed, run_dir, qroutes)
        (run_dir / "ops.json").write_text(json.dumps(ops))
        setups = [] if args.trace else [setup_sample(run_dir) for _ in range(SETUP_SAMPLES)]
        extra = ["--seconds", str(args.seconds)] + (["--trace", str(spans)] if args.trace else [])
        subprocess.run(_worker(run_dir, *extra), check=True, stdout=sys.stderr, timeout=args.seconds + 120)
        result = json.loads((run_dir / "result.json").read_text())
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed, problems = result["attempted"], result["failed"], result["problems"]
    for seconds, status, digest in setups:
        attempted += 1
        if status != "0" or digest != result["reference_digest"]:
            failed += 1
            problems.append(f"setup sample: status {status}, output digest {digest[:12]}")
    for problem in problems:
        print(f"bench: FAILED {problem}", file=sys.stderr)

    env = dict(result["env"], workload=args.workload, seed=args.seed, seconds=args.seconds)
    print("env " + json.dumps(env))
    metrics = result["metrics"]
    if args.trace:
        units = {name: per_layer_unit(name) for name in metrics}
        if result["missing"]:
            print("tracer: not found, reads 0: " + ", ".join(result["missing"]))
        check = result["self_check"]
        verdict = "as at seed" if check["counted"] == check["seed"] else "DIFFERS from seed"
        print(f"tracer self-check, linalg.eig calls: {json.dumps(check['counted'])} ({verdict})")
    else:
        metrics["setup_s"] = statistics.median(s for s, _, _ in setups)
        units = END_TO_END_UNITS
        tail = result["tail"]
        print(f"setup samples s: {json.dumps([round(s, 4) for s, _, _ in setups])}")
        print(
            f"op_tail_ms is p{tail['percentile']:g}, median over {tail['blocks']} block(s)"
            f" of {tail['samples']} samples"
        )
        print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
