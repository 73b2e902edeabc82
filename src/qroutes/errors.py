"""Exception types shared across the package.

Each concrete error joins exactly one family, and the family alone sets the
command line's exit code: ``InputError`` 2, ``NumericalError`` 3.
"""


class QRoutesError(Exception):
    """Base class for all errors raised by this package."""


class InputError(QRoutesError):
    """The input cannot be run as given (command-line exit code 2)."""


class NumericalError(QRoutesError):
    """A numerical invariant broke while running (command-line exit code 3)."""


class DimensionError(NumericalError):
    """Operands have incompatible or non-square shapes."""


class CapacityError(InputError):
    """A composite space would exceed the supported dimension."""


class HermiticityError(NumericalError):
    """A matrix required to be Hermitian is not, within tolerance."""


class InvariantError(NumericalError, ValueError):
    """A ``DensityMatrix`` or ``Observable`` invariant does not hold: a
    state's trace or positivity, or a group eigenvalue (the mean of the
    eigenvalues merged into it) inside the float range."""


class AmbiguousGroupingError(NumericalError):
    """Eigenvalues cannot be grouped with confidence: a gap inside the band around
    the grouping tolerance, or a merged group spread wider than the merge tolerance."""


class ZeroProbabilityError(NumericalError):
    """A post-measurement state was requested for an outcome of
    (numerically) zero probability."""


class NonCommutingError(NumericalError):
    """Two observables expected to commute do not, within tolerance."""


class UnknownLabelError(InputError):
    """A route step names an observable that is not registered."""


class UnknownScenarioError(InputError):
    """No built-in scenario exists under the requested name."""


class NormalizationError(InputError):
    """A state vector is not normalized within tolerance."""


class NoStageError(NumericalError):
    """A pointer-register read-out was requested before any interaction."""


class ParseError(InputError):
    """A scenario document is not syntactically well formed."""


class ValidationError(InputError):
    """A scenario document is well formed but semantically invalid.

    ``violations`` lists every problem found, each prefixed with the
    offending field path.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
