"""Exception types shared across the package."""


class QRoutesError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(QRoutesError):
    """Operands have incompatible or non-square shapes."""


class CapacityError(QRoutesError):
    """A composite space would exceed the supported dimension."""


class HermiticityError(QRoutesError):
    """A matrix required to be Hermitian is not, within tolerance."""


class InvariantError(QRoutesError, ValueError):
    """A ``DensityMatrix`` or ``Observable`` invariant does not hold: a
    state's trace or positivity, or an eigenvalue grouping's order, sizes,
    projectors, orthonormality, completeness or reconstruction."""


class AmbiguousGroupingError(QRoutesError):
    """Eigenvalue spacing falls inside the undecidable band around the
    grouping tolerance, so degenerate clusters cannot be formed reliably."""


class ZeroProbabilityError(QRoutesError):
    """A post-measurement state was requested for an outcome of
    (numerically) zero probability."""


class NonCommutingError(QRoutesError):
    """Two observables expected to commute do not, within tolerance."""


class UnknownLabelError(QRoutesError):
    """A route step names an observable that is not registered."""


class UnknownScenarioError(QRoutesError):
    """No built-in scenario exists under the requested name."""


class NormalizationError(QRoutesError):
    """A state vector is not normalized within tolerance."""


class NoStageError(QRoutesError):
    """A pointer-register read-out was requested before any interaction."""


class ParseError(QRoutesError):
    """A scenario document is not syntactically well formed."""


class ValidationError(QRoutesError):
    """A scenario document is well formed but semantically invalid.

    ``violations`` lists every problem found, each prefixed with the
    offending field path.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
