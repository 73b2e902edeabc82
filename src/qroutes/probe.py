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
from .linalg import MAX_DIM, UNIT_TOL, DensityMatrix
from .measurement import Observable


def _decimal_label(value: float, index: int) -> str:
    """Short decimal name for an eigenvalue, or "g<index>" when none fits."""
    for digits in range(7):
        cand = round(value, digits)
        if abs(cand - value) <= 1e-9:
            text = f"{cand:.{digits}f}"
            if "." in text:
                text = text.rstrip("0").rstrip(".")
            return "0" if text == "-0" else text
    return f"g{index}"


def stage_labels_for(obs: Observable) -> tuple[str, ...]:
    """One label per eigenvalue group, guaranteed distinct within the stage."""
    labels = tuple(_decimal_label(g.eigenvalue, k) for k, g in enumerate(obs.groups))
    if len(set(labels)) != len(labels):
        labels = tuple(f"g{k}" for k in range(len(obs.groups)))
    return labels


@dataclass(frozen=True, eq=False)
class PointerRegister:
    """The accumulated measurement record space.

    ``stage_dims`` and ``stage_labels`` are in measurement order. In the
    flat register index the most recent stage varies slowest; composite
    labels always read in measurement order (first measurement first).
    """

    stage_dims: tuple[int, ...] = ()
    stage_labels: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        if len(self.stage_dims) != len(self.stage_labels):
            raise ValueError("one label tuple per stage required")
        for d, names in zip(self.stage_dims, self.stage_labels):
            if d < 1 or len(names) != d:
                raise ValueError("stage labels must match the stage dimension")

    @property
    def stages(self) -> int:
        return len(self.stage_dims)

    @property
    def dim(self) -> int:
        return prod(self.stage_dims)

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


@dataclass(frozen=True, eq=False)
class TotalState:
    """A pure state of pointer registers joined with the system."""

    vector: np.ndarray
    probe: PointerRegister
    system_dim: int

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        if v.size != self.probe.dim * self.system_dim:
            raise DimensionError(
                f"vector length {v.size} != register dim {self.probe.dim} x "
                f"system dim {self.system_dim}"
            )
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > UNIT_TOL:
            raise NormalizationError(f"norm deviates from 1 by {abs(norm - 1.0):.3e}")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)


def init_total(system) -> TotalState:
    """Total state before any measurement: no registers, just the system."""
    v = np.asarray(system, dtype=complex).reshape(-1)
    return TotalState(vector=v.copy(), probe=PointerRegister(), system_dim=v.size)


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
    blocks = state.vector.reshape(state.probe.dim, state.system_dim)
    stacked = np.concatenate([blocks @ g.projector.T for g in obs.groups])
    register = PointerRegister(
        stage_dims=state.probe.stage_dims + (k,),
        stage_labels=state.probe.stage_labels + (stage_labels_for(obs),),
    )
    return TotalState(
        vector=stacked.reshape(-1), probe=register, system_dim=state.system_dim
    )


def reduced_system_state(state: TotalState) -> DensityMatrix:
    """Trace out every pointer register, in O(p·s²) without the total density matrix."""
    blocks = state.vector.reshape(state.probe.dim, state.system_dim)
    return DensityMatrix(
        np.einsum("aij->ij", blocks[:, :, None] * blocks.conj()[:, None, :])
    )


def probe_signal_distribution(state: TotalState) -> dict[str, float]:
    """Probability of each composite register label (squared block norm)."""
    if state.probe.stages == 0:
        raise NoStageError("no measurement stage has been recorded yet")
    blocks = state.vector.reshape(state.probe.dim, state.system_dim)
    probs = np.sum(np.abs(blocks) ** 2, axis=1)
    return {label: float(p) for label, p in zip(state.probe.labels, probs)}
