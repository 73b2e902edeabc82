"""Dense complex linear algebra for small Hilbert spaces.

Matrices are square numpy arrays of ``complex128``. Eigensystems come from
LAPACK through ``numpy.linalg.eigh``, eigenvalues descending; inside an
eigenspace no order or phase is promised, since callers read an eigenspace
only through its projector. Callers that need only eigenvalues use
``eigvalsh``. Every constructor that takes a caller's numbers reads them
through ``as_numbers``, by the rule a scenario file's entries follow.

This module also holds the package's tolerance policy: every closeness
threshold is one of the named constants below. A check on a matrix written
in the caller's units (an observable, a product of observables, a
spectrum) multiplies its constant by ``max(1, max |M_ij|)`` through
``scaled_tol``, so rescaling an observable does not change which
eigenvalues count as equal. A check on a unit-scale object (a state, a
state vector's norm, a projector or basis, a probability, a trace
distance) uses its constant as it stands. At or below unit scale every
threshold is exactly its constant.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, HermiticityError, InvariantError

# Composite spaces beyond this are refused rather than silently built.
MAX_DIM = 1024

# Tolerance policy: the only threshold literals in the package.
# Scaled by the input through ``scaled_tol``:
MATRIX_TOL = 1e-10  # hermiticity, commutation, merged eigenvalues' spread, route products
GROUP_TOL = 1e-8  # eigenvalues this close share a group
LABEL_TOL = 1e-9  # an eigenvalue this close to a short decimal is labelled by it
# Absolute, for unit-scale objects:
UNIT_TOL = 1e-10  # density matrices, state norms, probe deviation
ZERO_TOL = 1e-12  # an outcome this unlikely has no post-measurement state
DISTANCE_TOL = 1e-8  # default trace distance up to which two states are EQUAL


def scaled_tol(tol: float, m) -> float:
    """``tol`` times ``max(1, max |m_ij|)``: the threshold for a check on ``m``."""
    return tol * max(1.0, float(np.abs(m).max(initial=0.0)))


def unit_scaled(v) -> tuple[np.ndarray, float]:
    """``(u, s)`` with ``v = s·u``, ``s`` the power of two at or just below
    the largest real or imaginary part of ``v``.

    The norm of ``u`` can neither overflow nor underflow. Scaling by a power
    of two is exact, so wherever no square in ``norm(v)`` overflows or
    underflows, ``s·norm(u)`` and ``u / norm(u)`` are bit for bit ``norm(v)``
    and ``v / norm(v)``. An all-zero ``v`` gives an all-zero ``u``.
    """
    v = np.ascontiguousarray(v, dtype=complex)
    parts = v.view(float)
    exponent = math.frexp(float(np.abs(parts).max(initial=0.0)))[1] - 1
    return np.ldexp(parts, -exponent).view(complex), 2.0**exponent


def norm_deviation(v) -> float:
    """``|norm(v) - 1|`` for a state vector, its squares summed without
    overflow: through ``unit_scaled``, so wherever no square in ``norm(v)``
    overflows or underflows the result is bit for bit the plain formula's."""
    unit, scale = unit_scaled(v)
    return abs(float(np.linalg.norm(unit)) * scale - 1.0)


def as_numbers(x) -> np.ndarray:
    """``x`` as a complex array, read as a scenario file's entries are: an
    integer, float or complex ndarray, a complex one returned uncopied, or a
    nest whose every leaf is an int, float or complex number, never a bool,
    ``None``, a string or a ragged nest's list (TypeError). An int is read as
    the nearest float; one past the float range raises OverflowError."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "iufc":
        return np.asarray(x, dtype=complex)
    try:
        nest = np.array(x, dtype=object)  # np.asarray would read [True, 0] as int64
        kinds = set(map(type, nest.reshape(-1)))  # .flat stops at 32 axes
    except ValueError:  # a nest numpy cannot shape
        kinds = {list}
    if bool in kinds or not all(issubclass(k, (int, float, complex, np.number)) for k in kinds):
        raise TypeError(f"expected numbers, got {reprlib.repr(x)}")
    try:
        return nest.astype(complex)
    except OverflowError:
        raise OverflowError("number out of float range") from None


def as_matrix(m) -> np.ndarray:
    """Read ``m`` through ``as_numbers`` as a square, finite complex matrix."""
    a = as_numbers(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DimensionError("non-finite entry")
    return a


# The two helpers below take a matrix ``as_matrix`` has already coerced, so
# a validating caller coerces its input once. Both halve before they add,
# so no numpy sum overflows; halving is exact for normal floats, so the
# bits are those of the unhalved formula unless a half falls below the
# normal range.
def _defect(m: np.ndarray) -> float:
    return 2 * float(abs(m / 2 - m.conj().T / 2).max(initial=0.0))  # inf past the float range


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return m / 2 + m.conj().T / 2


def hermitian_eigendecomposition(m) -> tuple[np.ndarray, np.ndarray]:
    """Full eigensystem of a Hermitian matrix, computed by LAPACK (``eigh``).

    Returns ``(values, vectors)`` arrays as ``eigh`` does, column
    ``vectors[:, i]`` an eigenvector of ``values[i]``, values descending.
    Inside an eigenspace the columns are whichever orthonormal basis
    ``eigh`` returns: no order or phase is promised there.

    Raises HermiticityError when ``max |m - m†|`` exceeds
    ``scaled_tol(MATRIX_TOL, m)``, that is ``MATRIX_TOL`` times
    ``max(1, max |m_ij|)``.
    """
    m = as_matrix(m)
    defect = _defect(m)
    limit = scaled_tol(MATRIX_TOL, m)
    if defect > limit:
        raise HermiticityError(f"max |m - m†| = {defect:.3e} exceeds tolerance {limit:.3e}")
    vals, vecs = np.linalg.eigh(_hermitian_part(m))
    return vals[::-1], vecs[:, ::-1]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated quantum state: Hermitian, unit trace, positive.

    Construction rejects anything violating those invariants by more than
    the absolute ``UNIT_TOL`` (eigenvalues may dip to ``-UNIT_TOL`` from
    rounding): HermiticityError for the adjoint, InvariantError for the
    trace and positivity.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.mat)
        defect = _defect(m)
        if defect > UNIT_TOL:
            raise HermiticityError(
                f"density matrix not Hermitian: max |m - m†| = {defect:.3e}"
            )
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > UNIT_TOL:
            raise InvariantError(f"density matrix trace deviates from 1 by {abs(tr - 1.0):.3e}")
        m = _hermitian_part(m)
        low = float(np.linalg.eigvalsh(m)[0])
        if low < -UNIT_TOL:
            raise InvariantError(f"density matrix has negative eigenvalue {low:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def pure(cls, vector) -> "DensityMatrix":
        """Projector onto a state vector of unit norm: the one check of a pure state.

        Raises InvariantError when ``|norm(v) - 1|``, computed without
        overflow, exceeds ``UNIT_TOL``; then construction checks the
        projector, so its trace ``norm(v)²`` is held to ``UNIT_TOL`` too.
        """
        v = as_numbers(vector).reshape(-1)
        dev = norm_deviation(v)
        if dev > UNIT_TOL:
            raise InvariantError(f"norm deviates from 1 by {dev:.3e}")
        return cls(np.outer(v, v.conj()))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the sum of |eigenvalues| of a - b; 0 iff the states agree."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    d = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a.mat - b.mat))))
    return min(max(d, 0.0), 1.0)
