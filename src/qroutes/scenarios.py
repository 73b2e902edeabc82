"""Built-in measurement-route scenarios and a scenario file format.

A scenario bundles an initial state, a registry of labelled observables,
the routes to compare, and the comparison target; ``run_scenario`` runs
its routes and returns a ``RunReport``. Files are JSON with
complex numbers written as [re, im] pairs and matrices as row-major
nested arrays. This module owns that format: ``write_json`` writes scenario
files and run reports alike, byte for byte as ``json.dumps(indent=2)``
would, so floats round-trip exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import reprlib
import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import CapacityError, DimensionError, HermiticityError, InvariantError, NumericalError
from .errors import ParseError, UnknownScenarioError, ValidationError
from .linalg import DISTANCE_TOL, MAX_DIM, UNIT_TOL, DensityMatrix, as_numbers
from .measurement import Observable, ProjectionRule, spectral_decompose
from .probe import init_total, interact, probe_signal_distribution, reduced_system_state, stage_labels_for
from .routes import ComparisonReport, Route, _tolerance_problem, compare_routes, run_route

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


@dataclass(frozen=True, eq=False)
class Scenario:
    """An immutable, fully validated route-comparison problem.

    Construction is the one judge of a scenario's values, a parsed file's
    too, and names every problem in one ``ValidationError``. ``observables``
    maps each label, the observable's only name, to its ``Observable``,
    read-only: each raw matrix filed there is decomposed once, and an
    ``Observable`` is kept as it is, so ``dataclasses.replace`` overrides any
    field without decomposing again. A vector ``initial_state`` is checked
    once, by ``DensityMatrix.pure``, and ``initial_density()`` returns that
    checked state to every run. A tolerance is kept as a ``float``.
    """

    name: str
    system_dim: int
    initial_state: np.ndarray | DensityMatrix
    observables: Mapping[str, Observable]
    routes: tuple[Route, ...]
    target: str
    tolerance: float = DISTANCE_TOL
    _initial_density: DensityMatrix = field(init=False, repr=False)

    def __post_init__(self):
        problems = []
        try:
            registry = dict(self.observables)
        except (TypeError, ValueError):
            problems.append(f"observables: expected a mapping, got {reprlib.repr(self.observables)}")
        try:
            object.__setattr__(self, "routes", tuple(self.routes))
        except TypeError:
            problems.append(f"routes: expected a sequence, got {reprlib.repr(self.routes)}")
        if not isinstance(self.initial_state, DensityMatrix):
            try:
                v = as_numbers(self.initial_state).flatten()  # a copy; the caller's stays writable
            except (TypeError, OverflowError) as exc:
                problems.append(f"initial_state.vector: {exc}")
            else:
                v.setflags(write=False)
                object.__setattr__(self, "initial_state", v)
        if problems:  # the checks below read these three fields
            raise ValidationError(problems)
        problems = self._violations(registry)
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "observables", MappingProxyType(registry))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    def _violations(self, registry: dict) -> list[str]:
        # Decomposes the registry's matrices in place and keeps the initial density.
        # The checks that need a valid system_dim come last.
        out = []
        for key in ("name", "target"):
            if not isinstance(getattr(self, key), str):
                out.append(f"{key}: expected str, got {type(getattr(self, key)).__name__}")
        for label in registry:
            if not isinstance(label, str):
                out.append(f"observables: expected str labels, got {reprlib.repr(label)}")
        if len(self.routes) < 2:
            out.append("routes: at least two routes required")
        for i, route in enumerate(self.routes):
            if not isinstance(route, Route):
                out.append(f"routes[{i}]: expected a Route, got {reprlib.repr(route)}")
                continue
            for step in route.steps:
                if step not in registry:
                    out.append(f"routes[{i}]: unresolved label {step!r}")
        if isinstance(self.target, str) and self.target not in registry:
            out.append(f"target: unresolved label {self.target!r}")
        if problem := _tolerance_problem(self.tolerance):
            out.append(problem)
        if not isinstance(self.system_dim, int) or isinstance(self.system_dim, bool):
            out.append(f"system_dim: expected int, got {type(self.system_dim).__name__}")
            return out
        if self.system_dim < 1:
            out.append(f"system_dim: must be positive, got {reprlib.repr(self.system_dim)}")
            return out
        if self.system_dim > MAX_DIM:
            out.append(f"system_dim: {reprlib.repr(self.system_dim)} exceeds the {MAX_DIM} limit")
            return out
        if isinstance(self.initial_state, DensityMatrix):
            object.__setattr__(self, "_initial_density", self.initial_state)
            if self.initial_state.dim != self.system_dim:
                out.append(
                    f"initial_state: dimension {self.initial_state.dim} "
                    f"!= system_dim {self.system_dim}"
                )
        else:
            v = self.initial_state
            if v.size != self.system_dim:
                out.append(
                    f"initial_state.vector: length {v.size} != system_dim {self.system_dim}"
                )
            elif not np.all(np.isfinite(v)):
                out.append("initial_state.vector: non-finite amplitude")
            else:
                try:
                    object.__setattr__(self, "_initial_density", DensityMatrix.pure(v))
                except NumericalError as exc:
                    out.append(f"initial_state.vector: {exc}")
        for label, m in registry.items():
            kept = isinstance(m, Observable)  # decomposed already
            try:
                a = m.matrix if kept else as_numbers(m)
            except (TypeError, OverflowError) as exc:
                out.append(f"observables.{label}: {exc}")
                continue
            if a.shape != (self.system_dim, self.system_dim):
                out.append(
                    f"observables.{label}: shape {a.shape} != "
                    f"({self.system_dim}, {self.system_dim})"
                )
            elif not kept:
                try:
                    registry[label] = spectral_decompose(a)
                except HermiticityError as exc:
                    out.append(f"observables.{label}: not Hermitian ({exc})")
                except NumericalError as exc:
                    out.append(f"observables.{label}: {exc}")
        return out

    def initial_density(self) -> DensityMatrix:
        """The initial state as construction checked it; the same object on every call."""
        return self._initial_density

    def with_rule(self, rule: ProjectionRule) -> "Scenario":
        """This scenario with every route's rule replaced by ``rule``."""
        routes = tuple(dataclasses.replace(r, rule=rule) for r in self.routes)
        return dataclasses.replace(self, routes=routes)


@dataclass(frozen=True, eq=False)
class RunReport:
    """Everything one scenario execution produced."""

    scenario: Scenario
    comparison: ComparisonReport
    target_outcome_labels: tuple[str, ...]
    probe_results: tuple[dict, ...] | None
    duration_seconds: float

    @property
    def probe_consistent(self) -> bool:
        if not self.probe_results:
            return True
        return all(r["consistent"] for r in self.probe_results)


def run_scenario(scenario: Scenario, probe: bool = False) -> RunReport:
    """Execute every route of the scenario and compare the final states."""
    start = time.perf_counter()
    if probe and not isinstance(scenario.initial_state, np.ndarray):
        raise ValidationError(
            ["initial_state: the probe cross-check needs a vector initial state"]
        )
    registry = scenario.observables
    totals = []  # each route's register state; interact refuses an oversized one before any route runs
    for route in scenario.routes if probe else ():
        try:
            steps = (registry[label] for label in route.steps)
            totals.append(functools.reduce(interact, steps, init_total(scenario.initial_state)))
        except CapacityError as exc:
            raise CapacityError(f"route {route.display_name}: {exc}") from None
    initial = scenario.initial_density()
    comparison = compare_routes(
        initial, list(scenario.routes), registry, scenario.target, scenario.tolerance
    )
    probe_results = _probe_cross_check(scenario, totals, initial, comparison) if probe else None
    duration = time.perf_counter() - start
    return RunReport(
        scenario=scenario,
        comparison=comparison,
        target_outcome_labels=stage_labels_for(registry[scenario.target]),
        probe_results=probe_results,
        duration_seconds=duration,
    )


def _probe_cross_check(scenario, totals, initial, comparison) -> tuple[dict, ...]:
    # The register model realizes the Lueders semantics, so each route is
    # checked against its Lueders evaluation whatever rule the route runs under;
    # a Lueders route's final state from the comparison is that evaluation.
    results = []
    for route, total, final in zip(scenario.routes, totals, comparison.final_states):
        reduced = reduced_system_state(total)
        reference = final if route.rule is ProjectionRule.LUDERS else run_route(
            initial, dataclasses.replace(route, rule=ProjectionRule.LUDERS), scenario.observables
        )
        deviation = float(np.max(np.abs(reduced.mat - reference.mat)))
        results.append(
            {
                "route": route.display_name,
                "max_abs_deviation": deviation,
                "consistent": deviation <= UNIT_TOL,
                "signals": probe_signal_distribution(total),
            }
        )
    return tuple(results)


def _build_qutrit() -> Scenario:
    return Scenario(
        name="qutrit-paper",
        system_dim=3,
        initial_state=np.full(3, 1.0 / np.sqrt(3.0), dtype=complex),
        observables={
            "A": np.diag([1.0, 1.0, 0.0]).astype(complex),
            "B": np.diag([0.0, 1.0, 1.0]).astype(complex),
            "C": np.diag([0.0, 1.0, 0.0]).astype(complex),
        },
        routes=(
            Route(("C",), ProjectionRule.LUDERS, "C"),
            Route(("A", "B"), ProjectionRule.LUDERS, "AB"),
            Route(("B", "A"), ProjectionRule.LUDERS, "BA"),
        ),
        target="C",
    )


def counterexample_basis() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orthonormal qutrit basis the non-degenerate scenario is built on."""
    s3 = np.sqrt(3.0)
    d1 = np.array([1.0, -1.0 + s3, 1.0], dtype=complex)
    d2 = np.array([1.0, -1.0 - s3, 1.0], dtype=complex)
    d3 = np.array([-1.0, 0.0, 1.0], dtype=complex)
    return tuple(v / np.linalg.norm(v) for v in (d1, d2, d3))


def _build_counterexample() -> Scenario:
    s3 = np.sqrt(3.0)
    d1, d2, d3 = counterexample_basis()
    p1, p2, p3 = (np.outer(v, v.conj()) for v in (d1, d2, d3))
    obs_d1 = (1.0 + s3) * p1 + (1.0 - s3) * p2
    obs_d2 = s3 * p1 - s3 * p2 + p3
    return Scenario(
        name="nondegenerate-counterexample",
        system_dim=3,
        initial_state=(d1 + d2 + d3) / np.sqrt(3.0),
        observables={"D1": obs_d1, "D2": obs_d2, "D3": obs_d1 @ obs_d2},
        routes=(
            Route(("D1", "D2"), ProjectionRule.LUDERS, "D1D2"),
            Route(("D2", "D1"), ProjectionRule.LUDERS, "D2D1"),
            Route(("D3",), ProjectionRule.LUDERS, "D3"),
        ),
        target="D3",
    )


def _build_two_qubit() -> Scenario:
    i2 = np.eye(2, dtype=complex)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    return Scenario(
        name="two-qubit-rafasala",
        system_dim=4,
        initial_state=bell,
        observables={
            "M1": np.kron(SIGMA_X, i2),
            "M2": np.kron(i2, SIGMA_Y),
            "M3": np.kron(SIGMA_X, SIGMA_Y),
        },
        routes=(
            Route(("M3",), ProjectionRule.LUDERS, "M3"),
            Route(("M1", "M2"), ProjectionRule.LUDERS, "M1M2"),
        ),
        target="M3",
    )


_BUILTINS = {
    "nondegenerate-counterexample": (
        _build_counterexample,
        "qutrit with non-degenerate D1, D2 and D3 = D1*D2; every route agrees",
    ),
    "qutrit-paper": (
        _build_qutrit,
        "degenerate qutrit observables A, B, C = A*B; direct and sequential "
        "routes for C disagree under the Lueders rule",
    ),
    "two-qubit-rafasala": (
        _build_two_qubit,
        "commuting pair sx(x)I, I(x)sy and product sx(x)sy on an entangled "
        "two-qubit state",
    ),
}


def builtin_descriptions() -> dict[str, str]:
    """Scenario name -> one-line description, alphabetical."""
    return {name: _BUILTINS[name][1] for name in sorted(_BUILTINS)}


@functools.cache
def _shared_builtin(name: str) -> Scenario:
    return _BUILTINS[name][0]()


def builtin(name: str, *, state=None) -> Scenario:
    """A ready-made scenario; ``state`` optionally replaces the initial vector.

    Each built-in is built on its first call in a process; every later
    ``builtin(name)`` returns that same read-only ``Scenario``, whose
    observables keep the projectors and refinement bases runs derive. To
    vary it, pass ``state``, or use ``with_rule`` or ``dataclasses.replace``,
    none of which decomposes an observable again.
    """
    if name not in _BUILTINS:
        known = ", ".join(sorted(_BUILTINS))
        raise UnknownScenarioError(f"unknown scenario {name!r} (available: {known})")
    scenario = _shared_builtin(name)
    if state is not None:
        scenario = dataclasses.replace(scenario, initial_state=state)
    return scenario


def _decode(node, rank: int, path: str, problems: list[str]) -> np.ndarray | None:
    """``node`` as a complex array of ``rank`` axes, or None once its first
    malformed entry, in row-major order, is named.

    Well formed means a regular nest of JSON numbers with a last axis of
    [re, im] pairs; an integer is read as the nearest float. The pairs are
    reinterpreted in place rather than combined as ``re + 1j*im``, which
    would turn a -0.0 real part into 0.0.
    """
    try:
        a = np.array(node, dtype=float)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is not None and a.ndim == rank + 1 and a.shape[-1] == 2:
        # float() also reads True, None and "1", so each leaf's type is checked.
        leaves = node
        for _ in range(rank):
            leaves = itertools.chain.from_iterable(leaves)
        if {int, float}.issuperset(map(type, leaves)):
            return a.view(complex)[..., 0]
    problems.append(_first_problem(node, rank, path))
    return None


def _first_problem(node, rank: int, path: str) -> str:
    """The problem of ``node`` at its first bad entry in row-major order; "" if it has none."""
    if not isinstance(node, list) or not node:
        return f"{path}: expected a non-empty array of {'rows' if rank > 1 else '[re, im] pairs'}"
    for i, entry in enumerate(node):
        if rank > 1:
            if problem := _first_problem(entry, rank - 1, f"{path}[{i}]"):
                return problem
        elif not (isinstance(entry, list) and len(entry) == 2 and {int, float}.issuperset(map(type, entry))):
            return f"{path}[{i}]: expected a [re, im] number pair, got {reprlib.repr(entry)}"
        else:
            try:
                complex(*entry)
            except OverflowError:
                return f"{path}[{i}]: number out of float range"
    if rank > 1 and len(set(map(len, node))) > 1:
        return f"{path}: rows have inconsistent lengths"
    return ""


def encode_complex_array(a: np.ndarray) -> np.ndarray:
    """A float array shaped like ``a`` plus a last axis holding each [re, im] pair.

    Documents holding it are written with ``write_json``.
    """
    return np.stack([a.real, a.imag], -1)


_NESTED = (dict, list, tuple, np.ndarray)


def _block(brackets: str, items: list[str], pad: str) -> str:
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _array_template(shape: tuple[int, ...], pad: str) -> str:
    if not shape:
        return "%s"
    return _block("[]", [_array_template(shape[1:], pad + "  ")] * shape[0], pad)


def _key(key) -> str:
    # json.dumps writes a non-string key as the string of its JSON scalar.
    return json.dumps(key if isinstance(key, str) else json.dumps(key)).replace("%", "%%")


def _write(node, level: int, floats: list[np.ndarray]) -> str:
    """``node`` as a %-template of its JSON text: each entry of a finite float
    array is a ``%s`` field, the array is appended to ``floats`` in document
    order, and every other ``%`` is doubled."""
    pad = "\n" + "  " * level
    if isinstance(node, np.ndarray):
        if node.dtype.kind == "f" and node.size and np.isfinite(node).all():
            floats.append(node)
            return _array_template(node.shape, pad)
        text = json.dumps(node.tolist(), indent=2)  # .tolist() may nest
    elif isinstance(node, dict) and any(isinstance(v, _NESTED) for v in node.values()):
        items = [f"{_key(k)}: {_write(v, level + 1, floats)}" for k, v in node.items()]
        return _block("{}", items, pad)
    elif isinstance(node, (list, tuple)) and any(isinstance(v, _NESTED) for v in node):
        return _block("[]", [_write(v, level + 1, floats) for v in node], pad)
    else:
        # Without indent json.dumps runs the C encoder; the separator puts
        # each item on its own line, and the brackets get theirs here.
        text = json.dumps(node, separators=(",\n  ", ": "))
        if isinstance(node, (dict, list, tuple)) and node:
            text = f"{text[0]}\n  {text[1:-1]}\n{text[-1]}"
    # JSON text holds no raw newline outside indentation, so this re-indents.
    return text.replace("\n", pad).replace("%", "%%")


def write_json(doc) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` byte for byte, with every
    ``ndarray`` in ``doc`` written as its nested lists would be."""
    floats: list[np.ndarray] = []
    template = _write(doc, 0, floats) + "\n"
    if not floats:
        return template % ()
    # float repr is the spelling json.dumps uses for finite floats, and
    # repr(-x) == "-" + repr(x), so each distinct magnitude is spelled once:
    # a Hermitian matrix repeats each of its magnitudes, and zeros abound.
    flat = np.concatenate([a.ravel() for a in floats])
    magnitudes, index = np.unique(np.abs(flat), return_inverse=True)
    words = [repr(x) for x in magnitudes.tolist()]
    words += ["-" + w for w in words]
    signed = index + len(magnitudes) * np.signbit(flat)
    return template % tuple(map(words.__getitem__, signed.tolist()))


# _WRITTEN_FIELDS are the keys scenario_document writes. _ACCEPTED_FIELDS,
# the only ones parse_scenario accepts, add "rule": the rule of every route
# that names none.
_WRITTEN_FIELDS = ("name", "system_dim", "initial_state", "observables", "routes", "target", "tolerance")
_ACCEPTED_FIELDS = _WRITTEN_FIELDS + ("rule",)
_ROUTE_FIELDS = ("name", "steps", "rule")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"duplicate key {reprlib.repr(key)}")
        doc[key] = value
    return doc


def parse_scenario(text: str) -> Scenario:
    """Build a Scenario from its file form, or fail with field context.

    Checks only structure: syntax, keys (one outside ``_ACCEPTED_FIELDS`` is
    unknown), the shape of objects and arrays, [re, im] pairs and rule names;
    ``Route`` and ``Scenario`` judge the values of a file that passes."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ParseError("nesting too deep") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ParseError(str(exc)) from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")

    problems = [f"{key}: unknown field" for key in doc if key not in _ACCEPTED_FIELDS]

    def fetch(key, kind=object):
        if key not in doc:
            problems.append(f"{key}: missing required field")
            return None
        if not isinstance(doc[key], kind):
            problems.append(f"{key}: expected {kind.__name__}, got {type(doc[key]).__name__}")
            return None
        return doc[key]

    name, system_dim, target = fetch("name"), fetch("system_dim"), fetch("target")

    rule = ProjectionRule.LUDERS  # of every route that names none
    try:
        rule = ProjectionRule.from_name(doc.get("rule", rule.value))
    except ValueError as exc:
        problems.append(f"rule: {exc}")

    initial_state = None
    state_node = fetch("initial_state", dict)
    if state_node is not None:
        keys = set(state_node)
        if keys == {"vector"}:
            initial_state = _decode(state_node["vector"], 1, "initial_state.vector", problems)
        elif keys == {"density_matrix"}:
            mat = _decode(state_node["density_matrix"], 2, "initial_state.density_matrix", problems)
            if mat is not None:
                try:
                    initial_state = DensityMatrix(mat)
                except (DimensionError, HermiticityError, InvariantError) as exc:
                    problems.append(f"initial_state.density_matrix: {exc}")
        else:
            problems.append(
                "initial_state: expected exactly one of 'vector' or 'density_matrix'"
            )

    obs_node = fetch("observables", dict)
    if obs_node == {}:
        problems.append("observables: at least one observable required")
    observables = {k: _decode(m, 2, f"observables.{k}", problems) for k, m in (obs_node or {}).items()}

    routes: list[Route] = []
    for i, node in enumerate(fetch("routes", list) or ()):
        if not isinstance(node, dict):
            problems.append(f"routes[{i}]: expected an object")
            continue
        problems += [f"routes[{i}].{key}: unknown field" for key in node if key not in _ROUTE_FIELDS]
        route_rule = rule
        if "rule" in node:
            try:
                route_rule = ProjectionRule.from_name(node["rule"])
            except ValueError as exc:
                problems.append(f"routes[{i}].rule: {exc}")
        steps = node.get("steps")
        if not isinstance(steps, list):
            problems.append(f"routes[{i}].steps: expected a non-empty array of labels")
            continue
        try:
            routes.append(Route(steps, route_rule, node.get("name", "")))
        except (TypeError, ValueError) as exc:
            problems.append(f"routes[{i}]: {exc}")

    if problems:
        raise ValidationError(problems)
    return Scenario(
        name=name,
        system_dim=system_dim,
        initial_state=initial_state,
        observables=observables,
        routes=tuple(routes),
        target=target,
        tolerance=doc.get("tolerance", DISTANCE_TOL),
    )


def observable_digest(o: Observable) -> dict:
    """How a run report names an input observable: the SHA-256 of its matrix
    as little-endian complex128 bytes in row-major order."""
    return {"sha256": hashlib.sha256(np.asarray(o.matrix, "<c16").tobytes()).hexdigest()}


def _observable_matrix(o: Observable) -> np.ndarray:
    return encode_complex_array(o.matrix)


def scenario_document(s: Scenario, observable_node=_observable_matrix) -> dict:
    """The file form of a Scenario as dicts, lists and arrays, for ``write_json``.

    ``observable_node`` gives each observable's entry; a run report passes
    ``observable_digest`` instead of the matrix."""
    if isinstance(s.initial_state, DensityMatrix):
        state_node = {"density_matrix": encode_complex_array(s.initial_state.mat)}
    else:
        state_node = {"vector": encode_complex_array(s.initial_state)}
    return {
        "name": s.name,
        "system_dim": s.system_dim,
        "initial_state": state_node,
        "observables": {label: observable_node(o) for label, o in s.observables.items()},
        "routes": [
            {"name": r.name, "steps": list(r.steps), "rule": r.rule.value}
            for r in s.routes
        ],
        "target": s.target,
        "tolerance": s.tolerance,
    }


def serialize_scenario(s: Scenario) -> str:
    """Render a Scenario in the file format; parses back to equal values."""
    return write_json(scenario_document(s))
