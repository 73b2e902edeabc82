"""The public names of ``qroutes``, the shapes of its eigensystems and the
benchmark's patch points, pinned: changing them is a deliberate edit."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import qroutes
from qroutes import cli

PUBLIC_NAMES = [
    "AmbiguousGroupingError",
    "CapacityError",
    "ComparisonReport",
    "DensityMatrix",
    "DimensionError",
    "EigenGroup",
    "HermiticityError",
    "InvariantError",
    "NoStageError",
    "NonCommutingError",
    "NormalizationError",
    "Observable",
    "ParseError",
    "ProjectionRule",
    "QRoutesError",
    "Route",
    "RouteTargetWarning",
    "RunReport",
    "Scenario",
    "TotalState",
    "UnknownLabelError",
    "UnknownScenarioError",
    "ValidationError",
    "Verdict",
    "ZeroProbabilityError",
    "apply_rule",
    "builtin",
    "builtin_descriptions",
    "commutes",
    "compare_routes",
    "counterexample_basis",
    "hermitian_eigendecomposition",
    "init_total",
    "interact",
    "luders_update",
    "parse_scenario",
    "probe_signal_distribution",
    "product_observable",
    "reduced_system_state",
    "run_route",
    "run_scenario",
    "selective_outcome",
    "serialize_scenario",
    "spectral_decompose",
    "trace_distance",
    "von_neumann_update",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(qroutes.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(qroutes, name) is not None


def test_a_run_is_a_library_call():
    assert qroutes.run_scenario.__module__ == qroutes.RunReport.__module__ == "qroutes.scenarios"
    assert cli.run_scenario is qroutes.run_scenario


# Entries of the benchmark tracer's table that name no function any more;
# the tracer reports each as "not found".
STALE_TRACE_POINTS = {("linalg", "partial_trace")}


def test_benchmark_trace_points_resolve():
    # Read without importing bench code: a patch point that no longer
    # resolves would silently read 0 calls in that span.
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "tracer.py").read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED"
    ]
    points = [tuple(point) for targets in ast.literal_eval(table).values() for point in targets]
    for module, path in points:
        if (module, path) in STALE_TRACE_POINTS:
            continue
        owner = importlib.import_module(f"qroutes.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module}.{path}"


def test_eigen_group_holds_an_eigenvalue_and_a_basis():
    assert tuple(f.name for f in dataclasses.fields(qroutes.EigenGroup)) == ("eigenvalue", "basis")


def test_an_observable_is_built_from_its_matrix_alone():
    assert tuple(f.name for f in dataclasses.fields(qroutes.Observable)) == ("matrix", "groups")
    assert tuple(inspect.signature(qroutes.Observable).parameters) == ("matrix",)
    assert tuple(inspect.signature(qroutes.spectral_decompose).parameters) == ("m",)
    m = np.diag([1.0, 0.0])
    with pytest.raises(TypeError):
        qroutes.Observable(m, qroutes.Observable(m).groups)


def test_a_comparison_keeps_one_distance_per_pair():
    assert tuple(f.name for f in dataclasses.fields(qroutes.ComparisonReport)) == (
        "route_names",
        "final_states",
        "pairwise_trace_distance",
        "verdicts",
        "final_observable_statistics",
        "target_label",
        "target_eigenvalues",
        "tolerance",
    )


def test_a_rule_lives_only_on_its_route():
    assert tuple(f.name for f in dataclasses.fields(qroutes.Scenario) if f.init) == (
        "name", "system_dim", "initial_state", "observables", "routes", "target", "tolerance"
    )


def test_eigendecomposition_returns_arrays():
    vals, vecs = qroutes.hermitian_eigendecomposition(np.diag([1.0, 2.0, 3.0]))
    assert isinstance(vals, np.ndarray) and vals.shape == (3,)
    assert isinstance(vecs, np.ndarray) and vecs.shape == (3, 3)
