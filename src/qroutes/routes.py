"""Measurement routes: sequences of observables applied under one rule.

Two routes are alternative ways of measuring the same target observable,
e.g. measuring C directly versus measuring commuting A then B with
C = A·B. Whether the final states coincide is rule- and state-dependent;
``compare_routes`` certifies it via trace distance.
"""

from __future__ import annotations

import enum
import reprlib
import warnings
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Mapping

import numpy as np

from .errors import DimensionError, NonCommutingError, UnknownLabelError
from .linalg import DISTANCE_TOL, MATRIX_TOL, DensityMatrix, scaled_tol, trace_distance
from .measurement import (
    Observable,
    ProjectionRule,
    apply_rule,
    selective_outcome,
    spectral_decompose,
)


class Verdict(enum.Enum):
    EQUAL = "EQUAL"
    DISTINCT = "DISTINCT"


class RouteTargetWarning(UserWarning):
    """A route does not obviously measure the comparison target."""


@dataclass(frozen=True)
class Route:
    """An ordered list of observable labels executed under one rule."""

    steps: tuple[str, ...]
    rule: ProjectionRule = ProjectionRule.LUDERS
    name: str = ""

    def __post_init__(self):
        steps = self.steps
        if isinstance(steps, Iterable) and not isinstance(steps, str):
            steps = tuple(steps)
        if not isinstance(steps, tuple) or not all(isinstance(s, str) for s in steps):
            raise TypeError(f"route steps must be a sequence of labels, got {reprlib.repr(steps)}")
        if not isinstance(self.rule, ProjectionRule):
            raise TypeError(f"route rule must be a ProjectionRule, got {reprlib.repr(self.rule)}")
        if not isinstance(self.name, str):
            raise TypeError(f"route name must be a string, got {reprlib.repr(self.name)}")
        object.__setattr__(self, "steps", steps)
        if not self.steps:
            raise ValueError("a route needs at least one step")

    @property
    def display_name(self) -> str:
        return self.name or "+".join(self.steps)


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Pairwise comparison of the final states of several routes.

    Distance matrices are exactly symmetric with zero diagonal; a pair is
    EQUAL iff its trace distance is at most ``tolerance``. Statistics are
    the outcome distribution of the target observable on each final
    state, ordered like ``target_eigenvalues``.
    """

    route_names: tuple[str, ...]
    final_states: tuple[DensityMatrix, ...]
    pairwise_trace_distance: np.ndarray
    verdicts: tuple[tuple[Verdict, ...], ...]
    final_observable_statistics: tuple[tuple[float, ...], ...]
    target_label: str
    target_eigenvalues: tuple[float, ...]
    tolerance: float

    def verdict(self, i: int, j: int) -> Verdict:
        return self.verdicts[i][j]

    @property
    def all_equal(self) -> bool:
        return all(v is Verdict.EQUAL for row in self.verdicts for v in row)


def _tolerance_problem(tol: float) -> str:
    """Why ``tol`` cannot be an EQUAL threshold on trace distance; "" if it can.

    Its type must be one a scenario file can hold: an int or a float, not a
    bool, within the float range."""
    if isinstance(tol, bool) or not isinstance(tol, (int, float)):
        return f"tolerance: expected number, got {type(tol).__name__}"
    try:
        value = float(tol)  # an int is read as the nearest float
    except OverflowError:
        return "tolerance: number out of float range"
    if not value > 0:
        return f"tolerance: must be positive, got {tol}"
    return "" if np.isfinite(value) else f"tolerance: must be finite, got {tol}"


def commutes(a: Observable, b: Observable) -> bool:
    """True iff max |AB - BA| is at most MATRIX_TOL scaled by both factors.

    The threshold is ``MATRIX_TOL · max(1, max |A_ij|) · max(1, max |B_ij|)``,
    so rescaling either observable does not change the answer.
    """
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    gap = np.max(np.abs(a.matrix @ b.matrix - b.matrix @ a.matrix))
    return bool(gap <= scaled_tol(scaled_tol(MATRIX_TOL, a.matrix), b.matrix))


def product_observable(a: Observable, b: Observable) -> Observable:
    """Observable for A·B; requires the factors to commute."""
    if not commutes(a, b):
        raise NonCommutingError("the factors do not commute")
    return spectral_decompose(a.matrix @ b.matrix)


def run_route(
    initial: DensityMatrix, route: Route, registry: Mapping[str, Observable]
) -> DensityMatrix:
    """Fold the route's updates over the initial state, in step order."""
    state = initial
    for label in route.steps:
        if label not in registry:
            raise UnknownLabelError(f"route step {label!r} is not a registered observable")
        state = apply_rule(state, registry[label], route.rule)
    return state


def _check_route_targets(
    routes: list[Route], registry: Mapping[str, Observable], target: str
) -> None:
    # A route plausibly measures the target if the target is its last step
    # or the matrix product of its steps, to within MATRIX_TOL scaled by
    # the target's entries. Anything else is the caller's
    # responsibility, so warn instead of refusing.
    target_obs = registry[target]
    limit = scaled_tol(MATRIX_TOL, target_obs.matrix)
    for route in routes:
        if route.steps[-1] == target:
            continue
        prod = reduce(np.matmul, (registry[label].matrix for label in route.steps))
        if np.max(np.abs(prod - target_obs.matrix)) <= limit:
            continue
        warnings.warn(
            f"route {route.display_name!r}: target {target!r} is neither "
            "the last step nor the product of the steps",
            RouteTargetWarning,
            stacklevel=3,
        )


def compare_routes(
    initial: DensityMatrix,
    routes: list[Route],
    registry: Mapping[str, Observable],
    target: str,
    tol: float = DISTANCE_TOL,
) -> ComparisonReport:
    """Run every route and compare all final states pairwise; ``tol`` must be positive and finite."""
    if problem := _tolerance_problem(tol):
        raise ValueError(problem)
    if len(routes) < 2:
        raise ValueError(f"need at least 2 routes to compare, got {len(routes)}")
    if target not in registry:
        raise UnknownLabelError(f"target {target!r} is not a registered observable")
    target_obs = registry[target]
    finals = tuple(run_route(initial, route, registry) for route in routes)
    _check_route_targets(list(routes), registry, target)
    n = len(finals)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = trace_distance(finals[i], finals[j])
    verdicts = tuple(
        tuple(
            Verdict.EQUAL if dist[i, j] <= tol else Verdict.DISTINCT for j in range(n)
        )
        for i in range(n)
    )
    stats = tuple(
        tuple(
            selective_outcome(state, target_obs, k, post_state=False)[0]
            for k in range(len(target_obs.groups))
        )
        for state in finals
    )
    return ComparisonReport(
        route_names=tuple(route.display_name for route in routes),
        final_states=finals,
        pairwise_trace_distance=dist,
        verdicts=verdicts,
        final_observable_statistics=stats,
        target_label=target,
        target_eigenvalues=target_obs.eigenvalues,
        tolerance=tol,
    )
