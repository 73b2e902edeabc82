"""Dense complex linear algebra for small Hilbert spaces.

Matrices are square numpy arrays of ``complex128``. All tolerances default
to 1e-10 and can be overridden per call. Eigensystems come from LAPACK
through ``numpy.linalg.eigh``, with a fixed order and phase convention on
top; callers that need only eigenvalues use ``eigvalsh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, HermiticityError, InvariantError

# Composite spaces beyond this are refused rather than silently built.
MAX_DIM = 1024


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting anything else."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DimensionError("matrix contains non-finite entries")
    return a


def hermiticity_defect(m) -> float:
    """Max-norm distance from a matrix to its own adjoint."""
    return _defect(as_matrix(m))


# The two helpers below take a matrix ``as_matrix`` has already coerced, so
# a validating caller coerces its input once.
def _defect(m: np.ndarray) -> float:
    return float(abs(m - m.conj().T).max(initial=0.0))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def hermitian_eigendecomposition(m, tol: float = 1e-10) -> list[tuple[float, np.ndarray]]:
    """Full eigensystem of a Hermitian matrix, computed by LAPACK (``eigh``).

    Returns ``[(eigenvalue, eigenvector), ...]`` sorted by descending
    eigenvalue. Ties are ordered by the index of the first nonzero
    eigenvector component, and each eigenvector's phase is fixed so that
    component is real and positive.

    Raises HermiticityError when ``max |m - m†| > tol``.
    """
    m = as_matrix(m)
    defect = _defect(m)
    if defect > tol:
        raise HermiticityError(f"max |m - m†| = {defect:.3e} exceeds tolerance {tol:.3e}")
    vals, vecs = np.linalg.eigh(_hermitian_part(m))
    if vals.size == 0:
        return []
    mags = np.abs(vecs)
    # first component above 1e-8 of the column's largest one
    lead = (mags > 1e-8 * mags.max(axis=0)).argmax(axis=0)
    cols = np.arange(vals.size)
    vecs = vecs * (mags[lead, cols] / vecs[lead, cols])
    order = np.lexsort((lead, -vals))
    rows = vecs.T[order]
    return [(float(vals[i]), row) for i, row in zip(order, rows)]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated quantum state: Hermitian, unit trace, positive.

    Construction rejects anything violating those invariants within 1e-10
    (eigenvalues may dip to -1e-10 from rounding): HermiticityError for the
    adjoint, InvariantError for the trace and positivity.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.mat)
        defect = _defect(m)
        if defect > 1e-10:
            raise HermiticityError(
                f"density matrix not Hermitian: max |m - m†| = {defect:.3e}"
            )
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-10:
            raise InvariantError(f"density matrix trace deviates from 1 by {abs(tr - 1.0):.3e}")
        m = _hermitian_part(m)
        low = float(np.linalg.eigvalsh(m)[0])
        if low < -1e-10:
            raise InvariantError(f"density matrix has negative eigenvalue {low:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def pure(cls, vector) -> "DensityMatrix":
        """Projector onto a normalized state vector."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        return cls(np.outer(v, v.conj()))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the sum of |eigenvalues| of a - b; 0 iff the states agree."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    d = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a.mat - b.mat))))
    return min(max(d, 0.0), 1.0)
