"""Spectral decomposition of observables and projective state updates.

An observable is built from its matrix alone, which it decomposes into
eigenvalue groups: one group per distinct eigenvalue, each holding an
orthonormal basis of its eigenspace; its projector and von Neumann
refinement basis are derived on demand. The two update rules differ
exactly where degeneracy appears:

* Lueders:     rho' = sum_n  P_n rho P_n          (one term per group)
* von Neumann: rho' = sum_ni |x_ni><x_ni| rho |x_ni><x_ni|   (rank one)

so the von Neumann rule additionally erases coherence inside each
degenerate eigenspace.
"""

from __future__ import annotations

import enum
import reprlib
from dataclasses import dataclass, field
from functools import cached_property

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
    ZERO_TOL,
    DensityMatrix,
    as_matrix,
    as_numbers,
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
        raise ValueError(f"unknown projection rule {reprlib.repr(name)} (expected one of: {allowed})")


@dataclass(frozen=True, eq=False)
class EigenGroup:
    """One distinct, finite eigenvalue with its eigenspace, spanned by the orthonormal
    rows of ``basis`` (a read-only (k, n) complex copy); ``projector`` and
    ``refinement`` are computed from it on first use and then kept, read-only
    like ``basis``, since every run that shares the group reads them."""

    eigenvalue: float
    basis: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.eigenvalue):
            raise InvariantError(f"eigenvalue {self.eigenvalue} is outside the float range")
        # C order whatever the input's layout, so the projector's bits do not depend on it
        b = np.array(as_numbers(self.basis), order="C")
        if b.ndim != 2 or not np.isfinite(b).all():
            raise DimensionError(f"eigenspace basis must be a finite 2-D array of rows, got shape {b.shape}")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def degeneracy(self) -> int:
        return len(self.basis)

    @cached_property
    def projector(self) -> np.ndarray:
        p = self.basis.T @ self.basis.conj()
        p.setflags(write=False)
        return p

    @cached_property
    def refinement(self) -> np.ndarray:
        """Orthonormal rows spanning the eigenspace, fixed by ``projector`` alone."""
        q = _eigenspace_basis(self.projector, self.degeneracy)
        q.setflags(write=False)
        return q


@dataclass(frozen=True, eq=False)
class Observable:
    """A Hermitian operator plus its grouped eigensystem, derived from the matrix.

    ``Observable(m)`` decomposes ``m`` itself; ``groups`` is never passed
    in, and the key a registry files it under is its only name. ``groups``
    holds one ``EigenGroup`` per distinct eigenvalue, in descending order,
    whose stacked bases are the orthonormal, complete eigenbasis
    ``hermitian_eigendecomposition`` returns. Inside an eigenspace that
    basis is whichever one ``eigh`` picks, in no promised order or phase;
    any orthonormal basis does, since the updates read only projectors.

    The grouping band scales with the spectrum: ``band = GROUP_TOL ·
    max(1, max |λ|)``, so rescaling ``m`` rescales the band with it.
    Neighbouring eigenvalues at most ``band`` apart merge into one group,
    whose eigenvalue is their mean. AmbiguousGroupingError refuses a gap
    inside (band, 10·band), too wide to merge and too narrow to split with
    confidence, and a merged group whose spread (largest minus smallest
    eigenvalue) exceeds the merge tolerance ``scaled_tol(MATRIX_TOL, m)``.
    The means move ``m`` by a Hermitian matrix of spectral norm at most the
    largest spread, so every accepted ``m`` is rebuilt from its groups
    within that tolerance, up to ``eigh``'s rounding. At unit scale
    ``diag(1, 1 + g, 0)`` merges for g <= 9.9e-11, is refused for
    1e-10 <= g <= 1e-7 (by its spread up to 1e-8, by its gap above), and
    splits for g >= 1.0000001e-7.

    A group whose eigenvalues sum past the float range raises
    InvariantError, whatever its spread. The hermiticity check is
    ``hermitian_eigendecomposition``'s, scaled by the entries of ``m``.
    """

    matrix: np.ndarray
    groups: tuple[EigenGroup, ...] = field(init=False)

    def __post_init__(self):
        m = as_matrix(self.matrix).copy()  # frozen below; the caller's array stays writable
        vals, vecs = hermitian_eigendecomposition(m)
        if not vals.size:
            raise DimensionError("cannot decompose an empty matrix")
        band = scaled_tol(GROUP_TOL, vals)
        gaps = vals[:-1] - vals[1:]
        split = gaps > band
        ambiguous = split & (gaps < 10.0 * band)
        if ambiguous.any():
            gap = float(gaps[ambiguous.argmax()])  # the first, in descending order
            raise AmbiguousGroupingError(
                f"eigenvalue gap {gap:.3e} falls inside ({band:.3e}, {10 * band:.3e})"
            )
        bounds = [0, *(split.nonzero()[0] + 1).tolist(), len(vals)]
        spans = list(zip(bounds, bounds[1:]))
        with np.errstate(over="ignore"):  # EigenGroup refuses a sum past the float range
            means = [float(vals[a:b].sum() / (b - a)) for a, b in spans]  # np.mean, bit for bit
        groups = tuple(EigenGroup(mean, vecs[:, a:b].T) for mean, (a, b) in zip(means, spans))
        spread = float(max(vals[a] - vals[b - 1] for a, b in spans))
        limit = scaled_tol(MATRIX_TOL, m)
        if spread > limit:
            raise AmbiguousGroupingError(
                f"eigenvalues merged into one group spread over {spread:.3e}, "
                f"more than the merge tolerance {limit:.3e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "groups", groups)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(g.eigenvalue for g in self.groups)


def spectral_decompose(m) -> Observable:
    """The ``Observable`` of a Hermitian matrix: ``Observable(m)``."""
    return Observable(m)


def _eigenspace_basis(projector: np.ndarray, degeneracy: int) -> np.ndarray:
    """Orthonormal rows spanning a projector's range, fixed by the projector alone.

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
    return q


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
    """Non-selective rank-one update over each group's refinement basis.

    Each eigenspace is dephased in the basis its projector alone fixes
    (``EigenGroup.refinement``), whichever eigenvectors the observable
    stores; to dephase in another basis, measure a nondegenerate refinement
    of the observable. A fully degenerate observable (a single eigenvalue
    on the whole space) leaves no preferred refinement at all and maps
    every state to the maximally mixed one.
    """
    _check_dims(rho, obs)
    if len(obs.groups) == 1:
        return DensityMatrix(np.eye(rho.dim, dtype=complex) / rho.dim)
    u = np.hstack([g.refinement.T for g in obs.groups])
    weights = np.diag(u.conj().T @ rho.mat @ u).real
    out = (u * weights) @ u.conj().T
    return DensityMatrix(out)


def apply_rule(rho: DensityMatrix, obs: Observable, rule: ProjectionRule) -> DensityMatrix:
    """Dispatch to the update implementing ``rule``; any other value raises TypeError."""
    if rule is ProjectionRule.LUDERS:
        return luders_update(rho, obs)
    if rule is ProjectionRule.VON_NEUMANN:
        return von_neumann_update(rho, obs)
    raise TypeError(f"rule must be a ProjectionRule, got {reprlib.repr(rule)}")


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
    # tr(P rho) as an elementwise sum: O(n^2), where forming P rho costs O(n^3)
    prob = min(max(float(np.sum(p * rho.mat.T).real), 0.0), 1.0)
    if not post_state:
        return prob, None
    if prob <= ZERO_TOL:
        raise ZeroProbabilityError(
            f"outcome {obs.groups[group_index].eigenvalue} has probability {prob:.3e}"
        )
    return prob, DensityMatrix(p @ rho.mat @ p / prob)
