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
from math import prod
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import CapacityError, DimensionError, HermiticityError, InvariantError, NumericalError
from .errors import ParseError, UnknownScenarioError, ValidationError
from .linalg import DISTANCE_TOL, MAX_DIM, UNIT_TOL, DensityMatrix
from .measurement import Observable, ProjectionRule, spectral_decompose
from .probe import init_total, interact, probe_signal_distribution, reduced_system_state, stage_labels_for
from .routes import ComparisonReport, Route, _tolerance_problem, compare_routes, run_route

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


@dataclass(frozen=True, eq=False)
class Scenario:
    """An immutable, fully validated route-comparison problem.

    ``observables`` maps each label to its ``Observable``, read-only.
    Construction decomposes each matrix filed there once, so an observable
    whose spectrum cannot be grouped is a violation like any other. An
    ``Observable`` filed under its own label is kept as it is; one filed
    under another label is decomposed again under that label. So
    ``dataclasses.replace`` overrides any field without decomposing again.
    A vector ``initial_state`` is checked once, by ``DensityMatrix.pure``,
    and ``initial_density()`` returns that checked state to every run.
    """

    name: str
    system_dim: int
    initial_state: np.ndarray | DensityMatrix
    observables: Mapping[str, Observable]
    routes: tuple[Route, ...]
    target: str
    rule: ProjectionRule = ProjectionRule.LUDERS
    tolerance: float = DISTANCE_TOL
    _initial_density: DensityMatrix = field(init=False, repr=False)

    def __post_init__(self):
        registry = dict(self.observables)
        object.__setattr__(self, "routes", tuple(self.routes))
        if not isinstance(self.initial_state, DensityMatrix):
            v = np.array(self.initial_state, dtype=complex).reshape(-1)
            v.setflags(write=False)
            object.__setattr__(self, "initial_state", v)
        problems = self._violations(registry)
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "observables", MappingProxyType(registry))

    def _violations(self, registry: dict) -> list[str]:
        # Decomposes the registry's matrices in place and keeps the initial density.
        out = []
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
            kept = isinstance(m, Observable) and m.label == label  # decomposed already
            a = m.matrix if isinstance(m, Observable) else np.asarray(m, dtype=complex)
            if a.shape != (self.system_dim, self.system_dim):
                out.append(
                    f"observables.{label}: shape {a.shape} != "
                    f"({self.system_dim}, {self.system_dim})"
                )
            elif not kept and not np.all(np.isfinite(a)):
                out.append(f"observables.{label}: non-finite entry")
            elif not kept:
                try:
                    registry[label] = spectral_decompose(a, label=label)
                except HermiticityError as exc:
                    out.append(f"observables.{label}: not Hermitian ({exc})")
                except NumericalError as exc:
                    out.append(f"observables.{label}: {exc}")
        if len(self.routes) < 2:
            out.append("routes: at least two routes required")
        for i, route in enumerate(self.routes):
            for step in route.steps:
                if step not in registry:
                    out.append(f"routes[{i}]: unresolved label {step!r}")
        if self.target not in registry:
            out.append(f"target: unresolved label {self.target!r}")
        if problem := _tolerance_problem(self.tolerance):
            out.append(problem)
        return out

    def initial_density(self) -> DensityMatrix:
        """The initial state as construction checked it; the same object on every call."""
        return self._initial_density

    def with_rule(self, rule: ProjectionRule) -> "Scenario":
        routes = tuple(dataclasses.replace(r, rule=rule) for r in self.routes)
        return dataclasses.replace(self, rule=rule, routes=routes)


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
    if probe:
        # interact refuses the same register, but only once every route has run
        for route in scenario.routes:
            total = scenario.system_dim * prod(len(registry[s].groups) for s in route.steps)
            if total > MAX_DIM:
                raise CapacityError(
                    f"route {route.display_name}: total dimension {total} exceeds the {MAX_DIM} limit"
                )
    initial = scenario.initial_density()
    comparison = compare_routes(
        initial, list(scenario.routes), registry, scenario.target, scenario.tolerance
    )
    probe_results = None
    if probe:
        probe_results = _probe_cross_check(scenario, registry, initial, comparison)
    duration = time.perf_counter() - start
    return RunReport(
        scenario=scenario,
        comparison=comparison,
        target_outcome_labels=stage_labels_for(registry[scenario.target]),
        probe_results=probe_results,
        duration_seconds=duration,
    )


def _probe_cross_check(scenario, registry, initial, comparison) -> tuple[dict, ...]:
    # The register model realizes the Lueders semantics, so each route is
    # checked against its Lueders evaluation whatever rule the report uses;
    # a Lueders route's final state from the comparison is that evaluation.
    # run_scenario has already refused a density-matrix initial state.
    results = []
    for route, final in zip(scenario.routes, comparison.final_states):
        total = init_total(scenario.initial_state)
        for label in route.steps:
            total = interact(total, registry[label])
        reduced = reduced_system_state(total)
        reference = final if route.rule is ProjectionRule.LUDERS else run_route(
            initial, dataclasses.replace(route, rule=ProjectionRule.LUDERS), registry
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


def _decode_complex(node, path: str, problems: list[str]) -> complex:
    if (
        isinstance(node, list)
        and len(node) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in node)
    ):
        try:
            return complex(node[0], node[1])
        except OverflowError:
            problems.append(f"{path}: number out of float range")
            return 0j
    problems.append(f"{path}: expected a [re, im] number pair, got {reprlib.repr(node)}")
    return 0j


def _complex_array(node: list, rank: int) -> np.ndarray | None:
    """``node`` as a complex array of ``rank`` axes, or None unless well formed.

    Well formed means a regular nest of numbers (no bools) with a last axis
    of [re, im] pairs. The pairs are reinterpreted in place rather than
    combined as ``re + 1j*im``, which would turn a -0.0 real part into 0.0.
    """
    try:
        a = np.array(node)
    except ValueError:
        return None
    if a.dtype.kind not in "iuf" or a.ndim != rank + 1 or a.shape[-1] != 2:
        return None
    flat = node
    for _ in range(rank):
        flat = itertools.chain.from_iterable(flat)
    if bool in map(type, flat):
        return None
    return a.astype(float).view(complex)[..., 0]


def _decode_vector(node, path: str, problems: list[str]) -> np.ndarray:
    if not isinstance(node, list) or not node:
        problems.append(f"{path}: expected a non-empty array of [re, im] pairs")
        return np.zeros(1, dtype=complex)
    fast = _complex_array(node, 1)
    if fast is not None:
        return fast
    return np.array(
        [_decode_complex(x, f"{path}[{i}]", problems) for i, x in enumerate(node)],
        dtype=complex,
    )


def _decode_matrix(node, path: str, problems: list[str]) -> np.ndarray:
    if not isinstance(node, list) or not node:
        problems.append(f"{path}: expected a non-empty array of rows")
        return np.zeros((1, 1), dtype=complex)
    fast = _complex_array(node, 2)
    if fast is not None:
        return fast
    rows = [_decode_vector(row, f"{path}[{i}]", problems) for i, row in enumerate(node)]
    if len({r.size for r in rows}) != 1:
        problems.append(f"{path}: rows have inconsistent lengths")
        return np.zeros((1, 1), dtype=complex)
    return np.array(rows, dtype=complex)


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


# The keys scenario_document writes, and the only ones parse_scenario accepts.
_FIELDS = ("name", "system_dim", "initial_state", "observables", "routes", "target", "rule", "tolerance")
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

    A key that ``scenario_document`` does not write is an unknown field;
    a key written twice in one object is refused."""
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

    problems = [f"{key}: unknown field" for key in doc if key not in _FIELDS]

    def fetch(key, kind, required=True, default=None):
        if key not in doc:
            if required:
                problems.append(f"{key}: missing required field")
            return default
        value = doc[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            want = kind.__name__ if isinstance(kind, type) else "number"
            problems.append(f"{key}: expected {want}, got {type(value).__name__}")
            return default
        return value

    name = fetch("name", str, default="")
    system_dim = fetch("system_dim", int, default=1)
    target = fetch("target", str, default="")
    rule_name = fetch("rule", str, required=False, default=ProjectionRule.LUDERS.value)
    tolerance = fetch("tolerance", (int, float), required=False, default=DISTANCE_TOL)
    try:
        tolerance = float(tolerance)
    except OverflowError:
        problems.append("tolerance: number out of float range")
        tolerance = DISTANCE_TOL

    rule = ProjectionRule.LUDERS
    try:
        rule = ProjectionRule.from_name(rule_name)
    except ValueError as exc:
        problems.append(f"rule: {exc}")

    state_node = fetch("initial_state", dict)
    initial_state: np.ndarray | DensityMatrix = np.zeros(1, dtype=complex)
    if state_node is not None:
        keys = set(state_node)
        if keys == {"vector"}:
            initial_state = _decode_vector(
                state_node["vector"], "initial_state.vector", problems
            )
        elif keys == {"density_matrix"}:
            mat = _decode_matrix(
                state_node["density_matrix"], "initial_state.density_matrix", problems
            )
            if not problems:
                try:
                    initial_state = DensityMatrix(mat)
                except (DimensionError, HermiticityError, InvariantError) as exc:
                    problems.append(f"initial_state.density_matrix: {exc}")
        else:
            problems.append(
                "initial_state: expected exactly one of 'vector' or 'density_matrix'"
            )

    observables: dict[str, np.ndarray] = {}
    obs_node = fetch("observables", dict)
    if obs_node is not None:
        if not obs_node:
            problems.append("observables: at least one observable required")
        for label, m in obs_node.items():
            observables[label] = _decode_matrix(m, f"observables.{label}", problems)

    routes: list[Route] = []
    routes_node = fetch("routes", list)
    if routes_node is not None:
        for i, node in enumerate(routes_node):
            if not isinstance(node, dict):
                problems.append(f"routes[{i}]: expected an object")
                continue
            problems += [f"routes[{i}].{key}: unknown field" for key in node if key not in _ROUTE_FIELDS]
            steps = node.get("steps")
            if (
                not isinstance(steps, list)
                or not steps
                or not all(isinstance(s, str) for s in steps)
            ):
                problems.append(f"routes[{i}].steps: expected a non-empty array of labels")
                continue
            route_rule = rule
            if "rule" in node:
                try:
                    route_rule = ProjectionRule.from_name(node["rule"])
                except (ValueError, TypeError) as exc:
                    problems.append(f"routes[{i}].rule: {exc}")
            route_name = node.get("name", "")
            if not isinstance(route_name, str):
                problems.append(f"routes[{i}].name: expected a string")
                route_name = ""
            routes.append(Route(tuple(steps), route_rule, route_name))

    if problems:
        raise ValidationError(problems)
    return Scenario(
        name=name,
        system_dim=system_dim,
        initial_state=initial_state,
        observables=observables,
        routes=tuple(routes),
        target=target,
        rule=rule,
        tolerance=tolerance,
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
        "rule": s.rule.value,
        "tolerance": s.tolerance,
    }


def serialize_scenario(s: Scenario) -> str:
    """Render a Scenario in the file format; parses back to equal values."""
    return write_json(scenario_document(s))
