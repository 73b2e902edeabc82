"""Outside-in tracer: wraps qroutes functions without touching the package.

``install`` rebinds each traced function in every ``qroutes`` module that
holds it, under whatever name it is held (so ``cli._compare_routes`` is
caught as well as ``routes.compare_routes``), and replaces the two
validating ``__post_init__`` methods on their classes. ``uninstall`` puts
the originals back. Spans stay in memory; ``summary`` turns them into
per-op counts and self times, a span's self time being its duration minus
that of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import numpy as np

# span name -> the functions it covers, as (module, attribute path)
TRACED = {
    "linalg.eig": [("linalg", "hermitian_eigendecomposition")],
    "linalg.density": [("linalg", "DensityMatrix.__post_init__")],
    "linalg.trace_distance": [("linalg", "trace_distance")],
    "linalg.partial_trace": [("linalg", "partial_trace")],
    "measurement.spectral_decompose": [("measurement", "spectral_decompose")],
    "measurement.observable_check": [("measurement", "Observable.__post_init__")],
    "measurement.luders": [("measurement", "luders_update")],
    "measurement.von_neumann": [("measurement", "von_neumann_update")],
    "measurement.selective_outcome": [("measurement", "selective_outcome")],
    "routes.compare": [("routes", "compare_routes")],
    "routes.run_route": [("routes", "run_route")],
    "probe.interact": [("probe", "interact")],
    "probe.reduced": [("probe", "reduced_system_state")],
    "probe.signals": [("probe", "probe_signal_distribution")],
    "scenarios.load": [("scenarios", "parse_scenario"), ("scenarios", "builtin")],
    "scenarios.serialize": [("scenarios", "serialize_scenario")],
    "cli.main": [("cli", "main")],
    "cli.run_scenario": [("cli", "run_scenario")],
    "cli.render": [("cli", "render_text"), ("cli", "render_machine")],
}
MODULES = tuple(dict.fromkeys(name.split(".")[0] for name in TRACED))


# Quantities computed from a traced call's arguments or result, not timed.
def _eig_work(sums, args, result):
    sums["linalg.eig.work_n3"] += len(args[0]) ** 3


def _partial_trace_bytes(sums, args, result):
    sums["linalg.partial_trace.bytes"] += np.asarray(args[0]).nbytes


def _total_dim(sums, args, result):
    sums["probe.total_dim_max"] = max(sums["probe.total_dim_max"], result.vector.size)


_COMPUTED = {
    "linalg.eig": _eig_work,
    "linalg.partial_trace": _partial_trace_bytes,
    "probe.interact": _total_dim,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, parent index, op, start ns, end ns)
        self.sums: Counter = Counter()
        self.raised: Counter = Counter()
        self.missing: list[str] = []
        self._stack = [-1]
        self._op = -1
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        module = name.split(".")[0]
        computed = _COMPUTED.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[module] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, tracer._op, start, end)
            if computed is not None:
                computed(tracer.sums, args, result)
            return result

        return traced

    def install(self) -> None:
        self.missing = []
        modules = [m for n, m in sys.modules.items() if n == "qroutes" or n.startswith("qroutes.")]
        for name, targets in TRACED.items():
            for module_name, path in targets:
                owner = sys.modules.get(f"qroutes.{module_name}")
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                wrapper = self._wrap(name, original)
                holders = [owner] if cls_path else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, key, original))
                            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def run_op(self, op_index: int, fn, *args):
        """Call ``fn(*args)`` as the root span of op ``op_index``."""
        self._op = op_index
        return self._wrap("op", fn)(*args)

    def summary(self, ops: int) -> dict[str, float]:
        """Per-op calls and self ms of every span name, plus computed counters."""
        child_ns = [0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for (name, _, _, start, end), children in zip(self.spans, child_ns):
            calls[name] += 1
            self_ns[name] += end - start - children
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.self_ms"] = self_ns[name] / 1e6 / ops
        out["linalg.eig.work_n3"] = self.sums["linalg.eig.work_n3"] / ops
        out["linalg.partial_trace.bytes"] = self.sums["linalg.partial_trace.bytes"] / ops
        out["probe.total_dim_max"] = self.sums["probe.total_dim_max"]
        for module in MODULES:
            out[f"{module}.raised"] = self.raised[module]
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line: name, parent, op, start, end."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
