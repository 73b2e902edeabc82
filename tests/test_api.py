"""The public names of ``qroutes``, pinned: growing or shrinking them is a deliberate edit."""

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
