"""Projective measurement routes: execute, compare, and certify.

The package simulates sequences of non-selective projective measurements
under the Lueders and von Neumann update rules, and quantifies whether
alternative routes to the same target observable leave distinguishable
final states.
"""

from .errors import (
    AmbiguousGroupingError,
    CapacityError,
    DimensionError,
    HermiticityError,
    InvariantError,
    NonCommutingError,
    NormalizationError,
    NoStageError,
    ParseError,
    QRoutesError,
    UnknownLabelError,
    UnknownScenarioError,
    ValidationError,
    ZeroProbabilityError,
)
from .linalg import (
    DensityMatrix,
    hermitian_eigendecomposition,
    trace_distance,
)
from .measurement import (
    EigenGroup,
    Observable,
    ProjectionRule,
    apply_rule,
    luders_update,
    selective_outcome,
    spectral_decompose,
    von_neumann_update,
)
from .probe import (
    TotalState,
    init_total,
    interact,
    probe_signal_distribution,
    reduced_system_state,
)
from .routes import (
    ComparisonReport,
    Route,
    RouteTargetWarning,
    Verdict,
    commutes,
    compare_routes,
    product_observable,
    run_route,
)
from .scenarios import (
    RunReport,
    Scenario,
    builtin,
    builtin_descriptions,
    counterexample_basis,
    parse_scenario,
    run_scenario,
    serialize_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousGroupingError",
    "CapacityError",
    "ComparisonReport",
    "DensityMatrix",
    "DimensionError",
    "EigenGroup",
    "HermiticityError",
    "InvariantError",
    "NonCommutingError",
    "NormalizationError",
    "NoStageError",
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
