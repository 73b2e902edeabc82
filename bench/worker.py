"""One benchmark worker: a single closed-loop client in one process.

Each op calls ``qroutes.cli.main(argv)`` in-process with stdout captured;
the next op starts only when the previous one has returned. A pass runs
the workload's whole op list once, and a run repeats whole passes until
the time is up, so every run holds the same set of ops.

The first pass is a warm-up: its outputs are the references. Each of them
is checked against the numpy reference (``check.py``); every later output
of the same op must equal its reference byte for byte. Text reports are
compared without their ``completed in ... s`` line.

With ``--trace`` passes alternate between untraced and traced, so the
tracing overhead is measured under the same conditions as the spans.

    python3 bench/worker.py ROOT WORKDIR --seconds S [--trace SPANS] [--setup-probe]

``run.py`` starts it with BLAS pinned to one thread; ROOT is the checkout
whose ``src/qroutes`` is measured, WORKDIR holds ``ops.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from check import Reference, check_output
from tracer import Tracer

# Capped at p90: above it, slow spells of a shared machine rather than the
# program set the value (p99 of cli-builtins spread 21% between runs).
TAIL_PERCENTILES = (90.0, 75.0, 50.0)
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# The tail is read per block of consecutive ops and the median block is
# reported, so one slow spell on a shared machine moves it less. A block
# needs 100 samples to leave 10 beyond a p90.
TAIL_BLOCKS = 3
TAIL_BLOCK_MIN = 100
# A run goes on past --seconds until it holds this many timed ops, so a slow
# spell cannot push the tail below p75; GRACE_S caps that.
MIN_SAMPLES = 4 * TAIL_BEYOND
GRACE_S = 90.0
SELF_CHECK = (  # ops whose eigendecomposition count at the seed is known
    (["run", "two-qubit-rafasala"], 8),
    (["run", "qutrit-paper"], 12),
    (["run", "qutrit-paper", "--probe"], 20),
)


def import_cli(root: Path):
    """``qroutes.cli`` from ROOT/src, refusing any other installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import qroutes.cli

    if not Path(qroutes.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"qroutes imported from {qroutes.cli.__file__}, not {src}")
    return qroutes.cli


def call(cli, argv: list[str]) -> tuple[object, str]:
    """Run one op; return its exit status and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an op that crashes is a failed op, not a crashed run
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def normalize(text: str) -> str:
    return "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("completed in ")
    )


def digest(text: str) -> str:
    return hashlib.sha256(normalize(text).encode()).hexdigest()


def tail(latencies_ms: list[float]) -> tuple[float, int, float]:
    """(percentile, blocks, value) of the op latency tail.

    The timed ops are cut in order into TAIL_BLOCKS blocks when each block
    holds TAIL_BLOCK_MIN of them, else left as one. In each block the tail is the
    highest of TAIL_PERCENTILES leaving TAIL_BEYOND samples beyond it; the
    value is the median over blocks.
    """
    n = len(latencies_ms)
    blocks = TAIL_BLOCKS if n // TAIL_BLOCKS >= TAIL_BLOCK_MIN else 1
    size = n // blocks
    p = next(
        (p for p in TAIL_PERCENTILES if size * (100.0 - p) / 100.0 >= TAIL_BEYOND),
        TAIL_PERCENTILES[-1],
    )
    values = [np.percentile(latencies_ms[k * size : (k + 1) * size], p) for k in range(blocks)]
    return p, blocks, float(statistics.median(values))


def environment() -> dict:
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(ctypes.CDLL(lib), sym, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def self_check(cli) -> dict[str, int]:
    """Eigendecompositions the tracer counts in three built-in runs."""
    counts = {}
    for argv, _ in SELF_CHECK:
        tracer = Tracer()
        tracer.install()
        try:
            call(cli, argv)
        finally:
            tracer.uninstall()
        counts[" ".join(argv)] = sum(1 for span in tracer.spans if span[0] == "linalg.eig")
    return counts


def measure(cli, ops: list[dict], seconds: float, spans_path: str | None) -> dict:
    references, problems = [], []
    cache: dict = {}
    for op in ops:
        rc, out = call(cli, op["argv"])
        if rc != 0:
            found = [f"exit status {rc!r}"]
        elif op.get("validate"):
            found = check_output(op, out, None)
        else:
            key = (op["scenario"], op["ref"])
            if key not in cache:
                cache[key] = Reference(*key)
            found = check_output(op, out, cache[key])
        problems += [f"{' '.join(op['argv'])}: {p}" for p in found]
        references.append((normalize(out), bool(found)))

    tracer = Tracer() if spans_path else None
    latencies: list[float] = []
    elapsed = {False: 0, True: 0}  # traced? -> ns
    done = {False: 0, True: 0}  # traced? -> ops
    attempted = failed = passes = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        pass_start = time.perf_counter_ns()
        for op, (want, bad) in zip(ops, references):
            t0 = time.perf_counter_ns()
            if traced:
                rc, out = tracer.run_op(attempted, call, cli, op["argv"])
            else:
                rc, out = call(cli, op["argv"])
            t1 = time.perf_counter_ns()
            if not traced:
                latencies.append((t1 - t0) / 1e6)
            attempted += 1
            if rc != 0 or bad or normalize(out) != want:
                failed += 1
                if not bad and len(problems) < 20:
                    problems.append(f"{' '.join(op['argv'])}: output differs from its first run")
        elapsed[traced] += time.perf_counter_ns() - pass_start
        done[traced] += len(ops)
        if traced:
            tracer.uninstall()
        passes += 1
        run_s = time.perf_counter() - start
        enough = passes >= 2 if tracer else len(latencies) >= MIN_SAMPLES
        if run_s >= seconds + GRACE_S or (run_s >= seconds and enough):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "reference_digest": digest(references[0][0]),
        "env": environment(),
    }
    untraced_ops_per_s = done[False] / (elapsed[False] / 1e9)
    if tracer is None:
        percentile, blocks, tail_ms = tail(latencies)
        result["tail"] = {"percentile": percentile, "blocks": blocks, "samples": len(latencies)}
        result["metrics"] = {
            "ops_per_s": untraced_ops_per_s,
            "op_p50_ms": statistics.median(latencies),
            "op_tail_ms": tail_ms,
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        traced_ops_per_s = done[True] / (elapsed[True] / 1e9)
        result["metrics"] = tracer.summary(done[True])
        result["metrics"]["trace.overhead_frac"] = untraced_ops_per_s / traced_ops_per_s - 1.0
        result["missing"] = tracer.missing
        result["self_check"] = {
            "counted": self_check(cli),
            "seed": {" ".join(argv): n for argv, n in SELF_CHECK},
        }
        tracer.write(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--seconds", type=float, help="how long to measure")
    parser.add_argument("--trace", metavar="SPANS", help="trace alternate passes; write spans here")
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="run only the first op, print its status and output digest, exit",
    )
    args = parser.parse_args(argv)
    cli = import_cli(args.root)
    ops = json.loads((args.workdir / "ops.json").read_text())
    if args.setup_probe:
        rc, out = call(cli, ops[0]["argv"])
        sys.stdout.write(f"{rc} {digest(out)}\n")
        sys.stdout.flush()
        return 0
    result = measure(cli, ops, args.seconds, args.trace)
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
