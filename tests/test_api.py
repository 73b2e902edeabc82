"""The public names of ``qroutes`` and the shapes of its eigensystems, pinned: changing them is a deliberate edit."""

import dataclasses

import numpy as np

import qroutes

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


def test_eigen_group_holds_an_eigenvalue_and_a_basis():
    assert tuple(f.name for f in dataclasses.fields(qroutes.EigenGroup)) == ("eigenvalue", "basis")


def test_eigendecomposition_returns_arrays():
    vals, vecs = qroutes.hermitian_eigendecomposition(np.diag([1.0, 2.0, 3.0]))
    assert isinstance(vals, np.ndarray) and vals.shape == (3,)
    assert isinstance(vecs, np.ndarray) and vecs.shape == (3, 3)
