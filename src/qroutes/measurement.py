"""Spectral decomposition of observables and projective state updates.

An observable is carried together with its eigenvalue groups: one group
per distinct eigenvalue, each holding the eigenspace projector and an
orthonormal basis of that eigenspace derived from the projector alone. The
two update rules differ exactly where degeneracy appears:

* Lueders:     rho' = sum_n  P_n rho P_n          (one term per group)
* von Neumann: rho' = sum_ni |x_ni><x_ni| rho |x_ni><x_ni|   (rank one)

so the von Neumann rule additionally erases coherence inside each
degenerate eigenspace.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousGroupingError,
    DimensionError,
    InvariantError,
    ZeroProbabilityError,
)
from .linalg import (
    GROUP_TOL,
    MATRIX_TOL,
    TRACE_TOL,
    UNIT_TOL,
    ZERO_TOL,
    DensityMatrix,
    as_matrix,
    hermitian_eigendecomposition,
    scaled_tol,
)


class ProjectionRule(enum.Enum):
    LUDERS = "luders"
    VON_NEUMANN = "von-neumann"

    @classmethod
    def from_name(cls, name: str) -> "ProjectionRule":
        for rule in cls:
            if rule.value == name:
                return rule
        allowed = ", ".join(r.value for r in cls)
        raise ValueError(f"unknown projection rule {name!r} (expected one of: {allowed})")


@dataclass(frozen=True, eq=False)
class EigenGroup:
    """One distinct eigenvalue with its eigenspace."""

    eigenvalue: float
    degeneracy: int
    projector: np.ndarray
    basis: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class Observable:
    """A Hermitian operator plus its grouped eigensystem.

    Groups are ordered by descending eigenvalue. Invariants (distinct
    eigenvalues, degeneracies summing to the dimension, projector
    completeness, reconstruction of the matrix) are checked on
    construction, each failure raising InvariantError. The projector and
    basis checks are absolute; reconstruction is checked to
    ``scaled_tol(MATRIX_TOL, matrix)``. Build instances
    through ``spectral_decompose`` unless a specific intra-eigenspace basis
    is wanted.
    """

    matrix: np.ndarray
    groups: tuple[EigenGroup, ...]
    label: str = ""

    def __post_init__(self):
        m = as_matrix(self.matrix).copy()  # frozen below; the caller's array stays writable
        dim = m.shape[0]
        if not self.groups:
            raise InvariantError("observable needs at least one eigenvalue group")
        vals = [g.eigenvalue for g in self.groups]
        if any(a <= b for a, b in zip(vals, vals[1:])):
            raise InvariantError(f"group eigenvalues must strictly decrease, got {vals}")
        degs = [g.degeneracy for g in self.groups]
        if sum(degs) != dim:
            raise InvariantError("group degeneracies must sum to the dimension")
        if any(d != len(g.basis) for d, g in zip(degs, self.groups)):
            raise InvariantError("degeneracy disagrees with the stored basis size")
        projectors = np.array([g.projector for g in self.groups])
        if (abs(projectors.trace(axis1=1, axis2=2).real - degs) > TRACE_TOL).any():
            raise InvariantError("projector trace disagrees with the degeneracy")
        # Every basis vector as a row, group after group: group i owns the
        # rows starts[i]:starts[i + 1]. The span check runs one product
        # per group so its temporaries stay n x n; a batched product would
        # allocate G x n x n at once.
        basis = np.array([v for g in self.groups for v in g.basis])
        starts = [0, *itertools.accumulate(degs)]
        for projector, a, b in zip(projectors, starts, starts[1:]):
            rows = basis[a:b]
            if abs(rows.T @ rows.conj() - projector).max() > UNIT_TOL:
                raise InvariantError("stored basis does not span the group projector")
        # Orthonormality of the stacked basis implies projector idempotence
        # and pairwise orthogonality in one pass.
        eye = np.eye(dim)
        if abs(basis.conj() @ basis.T - eye).max() > UNIT_TOL:
            raise InvariantError("eigenbasis is not orthonormal")
        if abs(projectors.sum(axis=0) - eye).max() > UNIT_TOL:
            raise InvariantError("eigenspace projectors do not sum to the identity")
        rebuilt = np.tensordot(vals, projectors, axes=1)
        if abs(rebuilt - m).max() > scaled_tol(MATRIX_TOL, m):
            raise InvariantError(
                "groups do not reconstruct the observable matrix; "
                "the eigenvalue grouping may be too coarse"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(g.eigenvalue for g in self.groups)


def spectral_decompose(m, group_tol: float = GROUP_TOL, *, label: str = "") -> Observable:
    """Group the eigensystem of a Hermitian matrix into distinct eigenvalues.

    The grouping band scales with the spectrum: ``band = group_tol ·
    max(1, max |λ|)``, so rescaling ``m`` rescales the band with it.
    Eigenvalues closer than ``band`` fall into one degenerate group.
    Spacings inside the open band (band, 10·band) are refused with
    AmbiguousGroupingError: they are too wide to merge and too narrow to
    split with confidence. So is a group whose gaps are each at most
    ``band`` but whose spread (largest minus smallest eigenvalue) exceeds
    it: a chain of near-equal eigenvalues. The hermiticity check is
    ``hermitian_eigendecomposition``'s, scaled by the entries of ``m``.
    """
    m = as_matrix(m)
    pairs = hermitian_eigendecomposition(m)
    if not pairs:
        raise DimensionError("cannot decompose an empty matrix")
    vals = np.array([val for val, _ in pairs])
    vecs = np.array([vec for _, vec in pairs])
    band = scaled_tol(group_tol, vals)
    gaps = vals[:-1] - vals[1:]
    split = gaps > band
    ambiguous = split & (gaps < 10.0 * band)
    if ambiguous.any():
        gap = float(gaps[ambiguous.argmax()])  # the first, in descending order
        raise AmbiguousGroupingError(
            f"eigenvalue gap {gap:.3e} falls inside ({band:.3e}, {10 * band:.3e})"
        )
    bounds = [0, *(split.nonzero()[0] + 1).tolist(), len(vals)]
    spread = float((vals[bounds[:-1]] - vals[np.array(bounds[1:]) - 1]).max())
    if spread > band:
        raise AmbiguousGroupingError(
            f"eigenvalues merged into one group spread over {spread:.3e}, "
            f"more than the grouping tolerance {band:.3e}"
        )
    groups = []
    for a, b in zip(bounds, bounds[1:]):
        block = vecs[a:b]
        projector = block.T @ block.conj()
        groups.append(
            EigenGroup(
                eigenvalue=float(vals[a:b].sum() / (b - a)),  # np.mean, bit for bit
                degeneracy=b - a,
                projector=projector,
                basis=_eigenspace_basis(projector, b - a),
            )
        )
    return Observable(matrix=m, groups=tuple(groups), label=label)


def _eigenspace_basis(projector: np.ndarray, degeneracy: int) -> tuple[np.ndarray, ...]:
    """Orthonormal basis of a projector's range, fixed by the projector alone.

    Gram-Schmidt over the projector's columns in index order, each
    re-orthogonalised once; a column is kept when its residual norm^2
    exceeds 1/(2n). So the basis does not depend on which eigenvectors the
    solver returned inside a degenerate eigenspace. It always fills up:
    with k vectors kept, the residual norms^2 of all n columns sum to
    degeneracy - k >= 1 while k < degeneracy, so some column exceeds 1/n.
    """
    n = projector.shape[0]
    q = np.zeros((degeneracy, n), dtype=complex)
    q_conj = np.zeros_like(q)  # q.conj(), kept row by row
    k = 0
    for col in projector.T:
        if k == degeneracy:
            break
        r = col.copy()
        if k:  # with nothing kept yet the projection is an exact zero
            for _ in range(2):
                r -= q[:k].T @ (q_conj[:k] @ r)
        norm2 = float(np.vdot(r, r).real)
        if norm2 > 0.5 / n:
            q[k] = r / np.sqrt(norm2)
            q_conj[k] = q[k].conj()
            k += 1
    return tuple(q)


def _check_dims(rho: DensityMatrix, obs: Observable) -> None:
    if rho.dim != obs.dim:
        raise DimensionError(f"state dimension {rho.dim} vs observable dimension {obs.dim}")


def luders_update(rho: DensityMatrix, obs: Observable) -> DensityMatrix:
    """Non-selective update rho -> sum_n P_n rho P_n.

    Coherence inside each degenerate eigenspace survives; only coherence
    between different eigenvalues is removed.
    """
    _check_dims(rho, obs)
    out = sum(g.projector @ rho.mat @ g.projector for g in obs.groups)
    return DensityMatrix(out)


def von_neumann_update(rho: DensityMatrix, obs: Observable) -> DensityMatrix:
    """Non-selective rank-one update over each group's stored basis.

    The state is dephased in the refinement basis, so the result can
    depend on which intra-eigenspace basis the observable carries;
    ``spectral_decompose`` fixes that basis from the projector alone. A fully
    degenerate observable (a single eigenvalue on the whole space) leaves
    no preferred refinement at all and maps every state to the maximally
    mixed one.
    """
    _check_dims(rho, obs)
    if len(obs.groups) == 1:
        return DensityMatrix(np.eye(rho.dim, dtype=complex) / rho.dim)
    u = np.column_stack([v for g in obs.groups for v in g.basis])
    weights = np.diag(u.conj().T @ rho.mat @ u).real
    out = (u * weights) @ u.conj().T
    return DensityMatrix(out)


def apply_rule(rho: DensityMatrix, obs: Observable, rule: ProjectionRule) -> DensityMatrix:
    """Dispatch to the update implementing ``rule``."""
    if rule is ProjectionRule.LUDERS:
        return luders_update(rho, obs)
    return von_neumann_update(rho, obs)


def selective_outcome(
    rho: DensityMatrix,
    obs: Observable,
    group_index: int,
    *,
    post_state: bool = True,
) -> tuple[float, DensityMatrix | None]:
    """Probability of one eigenvalue group and the state conditioned on it.

    With ``post_state=False`` only the probability is computed, which is
    the only well-defined part when the probability is (numerically) zero;
    requesting the post-state of such an outcome raises
    ZeroProbabilityError.
    """
    _check_dims(rho, obs)
    if not 0 <= group_index < len(obs.groups):
        raise IndexError(f"group index {group_index} out of range")
    p = obs.groups[group_index].projector
    prob = min(max(float(np.trace(p @ rho.mat).real), 0.0), 1.0)
    if not post_state:
        return prob, None
    if prob <= ZERO_TOL:
        raise ZeroProbabilityError(
            f"outcome {obs.groups[group_index].eigenvalue} has probability {prob:.3e}"
        )
    return prob, DensityMatrix(p @ rho.mat @ p / prob)
