"""Correctness check of one op's output against a numpy-only reference.

Lueders ops: trace distances and target statistics must match a reference
built from exact projectors: the generator's own eigenbasis for generated
scenarios, ``numpy.linalg.eigh`` for the built-ins. Von Neumann ops: the
final state depends on the basis the solver picks inside a degenerate
eigenspace, so only basis-independent invariants are checked: unit trace
and commutation with the route's last observable. Probe ops: every entry is
consistent and its signals sum to 1. Text reports print 6 decimals, so
they are checked to that precision instead of 1e-8.
"""

from __future__ import annotations

import json
import re

import numpy as np

JSON_TOL = 1e-8
TEXT_TOL = 1e-6  # one unit in the 6th printed decimal, plus rounding
TEXT_STATE_TOL = 1e-4  # products and sums of rounded 6-decimal entries

_CELL = re.compile(r"([+-]\d+\.\d+)([+-]\d+\.\d+)j")
_NUMBER_AFTER_EQ = re.compile(r"= (-?\d+\.\d+)")
_DISTANCE = re.compile(r"trace distance = (\d+\.\d+)")


def _complex(node) -> np.ndarray:
    a = np.asarray(node, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _groups(values: np.ndarray, vectors: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """(eigenvalue, projector) per distinct eigenvalue, descending.

    Every input here has eigenvalue gaps of order 1, so a 1e-6 split is safe.
    """
    order = np.argsort(-values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    out, start = [], 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i - 1] - values[i] > 1e-6:
            cols = vectors[:, start:i]
            out.append((float(values[start:i].mean()), cols @ cols.conj().T))
            start = i
    return out


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


class Reference:
    """Lueders final states of every route of one scenario file."""

    def __init__(self, scenario_path: str, ref_path: str | None):
        with open(scenario_path) as fh:
            doc = json.load(fh)
        state = doc["initial_state"]
        if "vector" in state:
            v = _complex(state["vector"])
            rho = np.outer(v, v.conj())
        else:
            rho = _complex(state["density_matrix"])
        self.observables = {k: _complex(m) for k, m in doc["observables"].items()}
        self.route_steps = [r["steps"] for r in doc["routes"]]
        if ref_path is None:
            groups = {k: _groups(*np.linalg.eigh(m)) for k, m in self.observables.items()}
        else:
            with np.load(ref_path) as spec:
                basis = spec["basis"]
                groups = {k: _groups(spec[f"spectrum_{k}"], basis) for k in self.observables}
        finals = []
        for steps in self.route_steps:
            state = rho
            for label in steps:
                state = sum(p @ state @ p for _, p in groups[label])
            finals.append(state)
        n = len(finals)
        self.distances = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                self.distances[i, j] = self.distances[j, i] = _trace_distance(finals[i], finals[j])
        target = groups[doc["target"]]
        self.target_eigenvalues = [val for val, _ in target]
        self.stats = [[float(np.trace(p @ f).real) for _, p in target] for f in finals]


def _parse_json(text: str) -> dict:
    doc = json.loads(text)
    return {
        "states": [_complex(r["final_state"]) for r in doc["routes"]],
        "stats": [r["target_statistics"] for r in doc["routes"]],
        "distances": np.asarray(doc["comparison"]["pairwise_trace_distance"]),
        "target_eigenvalues": doc["target_eigenvalues"],
        "probe": doc["probe"],
    }


def _parse_text(text: str) -> dict:
    states, stats, pairs = [], [], []
    for line in text.splitlines():
        if line.startswith("route ") and line.endswith(": final state"):
            states.append([])
        elif line.startswith("    [") and states:
            states[-1].append([complex(float(r), float(i)) for r, i in _CELL.findall(line)])
        elif " outcome distribution: " in line:
            stats.append([float(x) for x in _NUMBER_AFTER_EQ.findall(line)])
        elif match := _DISTANCE.search(line):
            pairs.append(float(match.group(1)))
    n = len(states)
    distances = np.zeros((n, n))
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if len(pairs) != len(upper):
        raise ValueError(f"{len(pairs)} pairwise lines for {n} routes")
    for (i, j), d in zip(upper, pairs):
        distances[i, j] = distances[j, i] = d
    return {
        "states": [np.array(s) for s in states],
        "stats": stats,
        "distances": distances,
        "target_eigenvalues": None,
        "probe": None,
    }


def _close(got, want, tol: float) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol))


def check_output(op: dict, text: str, ref: Reference | None) -> list[str]:
    """Problems found in one op's output; empty when it is correct."""
    if op.get("validate"):
        return [] if text == "OK\n" else [f"validate printed {text[:80]!r}"]
    try:
        report = _parse_json(text) if op["fmt"] == "json" else _parse_text(text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable {op['fmt']} report: {exc}"]
    if len(report["states"]) != len(ref.route_steps):
        return [f"{len(report['states'])} final states for {len(ref.route_steps)} routes"]
    text_report = op["fmt"] == "text"
    tol = TEXT_TOL if text_report else JSON_TOL
    problems = []
    if op["rule"] == "luders":
        if not _close(report["distances"], ref.distances, tol):
            problems.append("trace distances differ from the reference")
        if not _close(report["stats"], ref.stats, tol):
            problems.append("target statistics differ from the reference")
        if report["target_eigenvalues"] is not None and not _close(
            report["target_eigenvalues"], ref.target_eigenvalues, tol
        ):
            problems.append("target eigenvalues differ from the reference")
    else:
        state_tol = TEXT_STATE_TOL if text_report else JSON_TOL
        for k, (state, steps) in enumerate(zip(report["states"], ref.route_steps)):
            last = ref.observables[steps[-1]]
            if abs(np.trace(state) - 1.0) > state_tol:
                problems.append(f"route {k}: final state trace is {np.trace(state):.3e}")
            if np.max(np.abs(state @ last - last @ state)) > state_tol:
                problems.append(f"route {k}: final state does not commute with {steps[-1]}")
    if op["probe"]:
        entries = report["probe"] or []
        if len(entries) != len(ref.route_steps):
            problems.append(f"{len(entries)} probe entries for {len(ref.route_steps)} routes")
        for entry in entries:
            if entry["consistent"] is not True:
                problems.append(f"probe entry {entry['route']} is not consistent")
            if abs(sum(entry["signals"].values()) - 1.0) > JSON_TOL:
                problems.append(f"probe signals of {entry['route']} do not sum to 1")
    return problems
