"""System-apparatus model with explicit pointer registers.

Each measurement appends a register whose orthonormal basis states label
the possible eigenvalue readings, entangled with the matching eigenspace
components of the system. Tracing the registers out reproduces the
Lueders updates of the system-only picture; reading the registers gives
the outcome record of the whole sequence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import CapacityError, DimensionError, NoStageError, NormalizationError
from .linalg import LABEL_TOL, MAX_DIM, UNIT_TOL, DensityMatrix, norm_deviation, scaled_tol
from .measurement import Observable


def _decimal_label(value: float, index: int, tol: float) -> str:
    """Short decimal name for an eigenvalue, or "g<index>" when none fits."""
    for digits in range(7):
        cand = round(value, digits)
        if abs(cand - value) <= tol:
            text = f"{cand:.{digits}f}"
            if "." in text:
                text = text.rstrip("0").rstrip(".")
            return "0" if text == "-0" else text
    return f"g{index}"


def stage_labels_for(obs: Observable) -> tuple[str, ...]:
    """One label per eigenvalue group, guaranteed distinct within the stage."""
    tol = scaled_tol(LABEL_TOL, np.array(obs.eigenvalues))
    labels = tuple(_decimal_label(v, k, tol) for k, v in enumerate(obs.eigenvalues))
    if len(set(labels)) != len(labels):
        labels = tuple(f"g{k}" for k in range(len(labels)))
    return labels


@dataclass(frozen=True, eq=False)
class TotalState:
    """A pure state of pointer registers joined with the system.

    ``stage_labels`` holds one tuple of outcome labels per measurement, in
    measurement order (sequences given are stored as tuples), and is the
    whole register: its dimension is the product of the label counts. In
    the flat register index the most recent stage varies slowest;
    composite labels always read in measurement order (first measurement
    first).
    """

    vector: np.ndarray
    system_dim: int
    stage_labels: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "stage_labels", tuple(map(tuple, self.stage_labels)))
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        if v.size != self.register_dim * self.system_dim:
            raise DimensionError(
                f"vector length {v.size} != register dim {self.register_dim} x "
                f"system dim {self.system_dim}"
            )
        dev = norm_deviation(v)
        if not dev <= UNIT_TOL:  # NaN too
            raise NormalizationError(f"norm deviates from 1 by {dev:.3e}")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @property
    def register_dim(self) -> int:
        return prod(map(len, self.stage_labels))

    @property
    def labels(self) -> tuple[str, ...]:
        """Composite label of every register basis state, by flat index."""
        parts = [p[::-1] for p in itertools.product(*reversed(self.stage_labels))]
        composites = ["".join(p) for p in parts]
        if len(set(composites)) != len(composites):
            # multi-character stage names can collide under plain
            # concatenation; fall back to an explicit separator
            composites = [",".join(p) for p in parts]
        return tuple(composites)


def init_total(system) -> TotalState:
    """Total state before any measurement: no registers, just the system."""
    v = np.asarray(system, dtype=complex).reshape(-1)
    return TotalState(vector=v.copy(), system_dim=v.size)


def interact(state: TotalState, obs: Observable) -> TotalState:
    """Entangle a fresh pointer register with the outcome of ``obs``.

    The new total state is sum_n |n> (x) (I (x) P_n)|Psi>, one register
    basis state per eigenvalue group. This is an isometry, so the norm is
    preserved.
    """
    if obs.dim != state.system_dim:
        raise DimensionError(
            f"observable dimension {obs.dim} vs system dimension {state.system_dim}"
        )
    k = len(obs.groups)
    if k * state.vector.size > MAX_DIM:
        raise CapacityError(
            f"total dimension {k * state.vector.size} exceeds the {MAX_DIM} limit"
        )
    blocks = state.vector.reshape(-1, state.system_dim)
    stacked = np.concatenate([blocks @ g.projector.T for g in obs.groups])
    return TotalState(
        stacked.reshape(-1), state.system_dim, state.stage_labels + (stage_labels_for(obs),)
    )


def reduced_system_state(state: TotalState) -> DensityMatrix:
    """Trace out every pointer register, in O(p·s²) without the total density matrix."""
    blocks = state.vector.reshape(-1, state.system_dim)
    return DensityMatrix(
        np.einsum("aij->ij", blocks[:, :, None] * blocks.conj()[:, None, :])
    )


def probe_signal_distribution(state: TotalState) -> dict[str, float]:
    """Probability of each composite register label (squared block norm)."""
    if not state.stage_labels:
        raise NoStageError("no measurement stage has been recorded yet")
    blocks = state.vector.reshape(-1, state.system_dim)
    probs = np.sum(np.abs(blocks) ** 2, axis=1)
    return {label: float(p) for label, p in zip(state.labels, probs)}
