"""Shared test utilities: random objects, analytic reference states and oracles.

The analytic forms are written straight from the projector algebra so
they stay independent of the package's own update implementations. The
cyclic Jacobi eigensolver is a second oracle next to ``numpy.linalg``: it
shares no code with the LAPACK routines the package calls. The probe
oracles keep the earlier formulations of the register reduction (the
dense outer product, traced out by ``partial_trace``) and of the register
labels (mixed-radix digits of the flat index); ``loop_spectral_groups``
keeps the earlier pair-by-pair grouping of an eigensystem, and
``decode_vector`` and ``decode_matrix`` the earlier entry-by-entry decoding
of a scenario file's [re, im] arrays.
``clear_builtins`` makes the next ``builtin`` call build its scenario anew.
"""

from __future__ import annotations

from math import prod

import itertools
import reprlib

import numpy as np

from qroutes import (
    DensityMatrix,
    DimensionError,
    Route,
    Scenario,
    hermitian_eigendecomposition,
)
from qroutes import scenarios
from qroutes.linalg import as_matrix

_JACOBI_SWEEPS = 60


def clear_builtins() -> None:
    """Forget the built-in scenarios this process has built, so a test that
    counts what building one does sees a first build."""
    scenarios._shared_builtin.cache_clear()


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m @ m.conj().T
    return DensityMatrix(m / np.trace(m))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hermitian_with_spectrum(
    rng: np.random.Generator, eigenvalues
) -> tuple[np.ndarray, np.ndarray]:
    """Random Hermitian with the given spectrum; returns (matrix, eigenbasis)."""
    vals = np.asarray(eigenvalues, dtype=float)
    u = random_unitary(rng, vals.size)
    m = u @ np.diag(vals).astype(complex) @ u.conj().T
    return (m + m.conj().T) / 2, u


# Analytic qutrit states for amplitudes (alpha, beta, gamma), built from
# the eigenprojectors of A = diag(1,1,0), B = diag(0,1,1), C = diag(0,1,0).

def state_after_direct_c(amp) -> np.ndarray:
    """P1 rho P1 + P0 rho P0 for C: keeps the (0,2) coherence block."""
    a, b, g = amp
    out = np.zeros((3, 3), dtype=complex)
    out[0, 0] = abs(a) ** 2
    out[1, 1] = abs(b) ** 2
    out[2, 2] = abs(g) ** 2
    out[0, 2] = a * np.conj(g)
    out[2, 0] = g * np.conj(a)
    return out


def state_after_a(amp) -> np.ndarray:
    """After measuring A: keeps the (0,1) coherence block."""
    a, b, g = amp
    out = np.zeros((3, 3), dtype=complex)
    out[0, 0] = abs(a) ** 2
    out[1, 1] = abs(b) ** 2
    out[2, 2] = abs(g) ** 2
    out[0, 1] = a * np.conj(b)
    out[1, 0] = b * np.conj(a)
    return out


def dephased(amp) -> np.ndarray:
    a, b, g = amp
    return np.diag([abs(a) ** 2, abs(b) ** 2, abs(g) ** 2]).astype(complex)


def oracle_trace_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Independent reference via numpy's eigensolver."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(x - y))))


def jacobi_trace_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Independent reference via the Jacobi oracle."""
    return 0.5 * float(np.sum(np.abs(jacobi_eigensystem(x - y)[0])))


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """One Jacobi rotation zeroing a[p, q], applied in place to a and v."""
    h = a[p, q]
    absh = abs(h)
    phase = h / absh
    tau = (a[p, p].real - a[q, q].real) / (2.0 * absh)
    # smaller root of t^2 + 2*tau*t - 1 = 0 keeps the rotation angle <= pi/4
    if tau >= 0.0:
        t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c * np.conj(phase)
    for mat in (a, v):
        colp = mat[:, p] * c + mat[:, q] * s
        colq = mat[:, q] * c - mat[:, p] * np.conj(s)
        mat[:, p] = colp
        mat[:, q] = colq
    rowp = a[p, :] * c + a[q, :] * np.conj(s)
    rowq = a[q, :] * c - a[p, :] * s
    a[p, :] = rowp
    a[q, :] = rowq


def jacobi_eigensystem(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of a Hermitian matrix by cyclic Jacobi rotations.

    Same contract as ``hermitian_eigendecomposition``: eigenvalues
    descending, and no order or phase promised inside an eigenspace, so it
    is compared with the package by eigenprojectors.
    """
    a = (m + m.conj().T) / 2
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    scale = max(float(np.max(np.abs(a), initial=0.0)), 1e-300)
    conv = 1e-14 * scale
    for _ in range(_JACOBI_SWEEPS):
        off = max(
            (float(np.max(np.abs(a[p, p + 1:]))) for p in range(n - 1)),
            default=0.0,
        )
        if off <= conv:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) > conv * 1e-3:
                    _rotate(a, v, p, q)
    else:
        raise ArithmeticError("Jacobi iteration did not converge")
    vals = np.diag(a).real
    order = np.argsort(-vals, kind="stable")
    return vals[order], v[:, order]


def partial_trace(m, dims, keep: int) -> np.ndarray:
    """Trace out every tensor factor except ``dims[keep]``.

    ``dims`` lists the factor dimensions of the space ``m`` acts on, in
    tensor order (left factor first).
    """
    m = as_matrix(m)
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise DimensionError(f"factor dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if total != m.shape[0]:
        raise DimensionError(
            f"factor dimensions {dims} give {total}, matrix has dimension {m.shape[0]}"
        )
    if not 0 <= keep < len(dims):
        raise DimensionError(f"keep index {keep} out of range for {len(dims)} factors")
    pre = int(np.prod(dims[:keep], initial=1))
    d = dims[keep]
    post = int(np.prod(dims[keep + 1:], initial=1))
    t = m.reshape(pre, d, post, pre, d, post)
    return np.einsum("aibajb->ij", t)


def outer_product_reduction(vector: np.ndarray, probe_dim: int, system_dim: int) -> DensityMatrix:
    """Reduced system state of a register-system vector via the full outer product."""
    full = np.outer(vector, vector.conj())
    return DensityMatrix(partial_trace(full, [probe_dim, system_dim], keep=1))


def mixed_radix_parts(stage_dims, stage_labels) -> list[tuple[str, ...]]:
    """Stage labels of every flat register index, the newest stage varying slowest."""
    layout = list(reversed(stage_dims))
    out = []
    for flat in range(prod(stage_dims)):
        rem = flat
        digits = []
        for pos in range(len(layout)):
            rest = prod(layout[pos + 1:])
            digits.append(rem // rest)
            rem %= rest
        digits.reverse()  # back to measurement order
        out.append(tuple(stage_labels[s][digit] for s, digit in enumerate(digits)))
    return out


def loop_spectral_groups(m: np.ndarray, group_tol: float = 1e-8) -> list[tuple]:
    """``(eigenvalue, degeneracy, projector, refinement)`` per group,
    grouped pair by pair as ``spectral_decompose`` once did (no ambiguity
    check): each cluster's vectors stacked on their own, its eigenvalue the
    ``np.mean`` of a list, and Gram-Schmidt recomputing ``q[:k].conj()``
    for every column."""
    vals, vecs = hermitian_eigendecomposition(m)
    pairs = list(zip(vals.tolist(), vecs.T))
    clusters = [[pairs[0]]]
    for prev, cur in zip(pairs, pairs[1:]):
        if prev[0] - cur[0] <= group_tol:
            clusters[-1].append(cur)
        else:
            clusters.append([cur])
    groups = []
    for cluster in clusters:
        vecs = np.array([vec for _, vec in cluster])
        projector = vecs.T @ vecs.conj()
        n, k = projector.shape[0], 0
        q = np.zeros((len(cluster), n), dtype=complex)
        for col in projector.T:
            if k == len(cluster):
                break
            r = col.copy()
            for _ in range(2):
                r -= q[:k].T @ (q[:k].conj() @ r)
            norm2 = float(np.vdot(r, r).real)
            if norm2 > 0.5 / n:
                q[k] = r / np.sqrt(norm2)
                k += 1
        mean = float(np.mean([val for val, _ in cluster]))
        groups.append((mean, len(cluster), projector, tuple(q)))
    return groups


def degenerate_scenario(seed: int, dim: int = 24) -> Scenario:
    """Commuting degenerate A, B (spectra in {0, 1, 2}) and C = A·B in a random basis.

    Routes C, AB and BA to the target C: the paper's degenerate case at
    dimension ``dim`` (a multiple of 3).
    """
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, dim)
    a = rng.permutation(np.repeat([0.0, 1.0, 2.0], dim // 3))
    b = rng.permutation(np.repeat([0.0, 1.0, 2.0], dim // 3))
    mat_a = (u * a) @ u.conj().T
    mat_b = (u * b) @ u.conj().T
    return Scenario(
        name=f"degenerate-{dim}-seed{seed}",
        system_dim=dim,
        initial_state=random_state(rng, dim),
        observables={"A": mat_a, "B": mat_b, "C": mat_a @ mat_b},
        routes=(Route(("C",), name="C"), Route(("A", "B"), name="AB"), Route(("B", "A"), name="BA")),
        target="C",
    )


def decode_complex(node, path: str, problems: list[str]) -> complex | None:
    """One [re, im] pair as a complex number, or None once its problem is named."""
    if (
        isinstance(node, list)
        and len(node) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in node)
    ):
        try:
            return complex(node[0], node[1])
        except OverflowError:
            problems.append(f"{path}: number out of float range")
            return None
    problems.append(f"{path}: expected a [re, im] number pair, got {reprlib.repr(node)}")
    return None


def decode_vector(node, path: str, problems: list[str]) -> np.ndarray | None:
    """``node`` decoded pair by pair, or None once its first malformed entry is named."""
    if not isinstance(node, list) or not node:
        problems.append(f"{path}: expected a non-empty array of [re, im] pairs")
        return None
    decoded = (decode_complex(x, f"{path}[{i}]", problems) for i, x in enumerate(node))
    entries = list(itertools.takewhile(lambda z: z is not None, decoded))
    return np.array(entries, dtype=complex) if len(entries) == len(node) else None


def decode_matrix(node, path: str, problems: list[str]) -> np.ndarray | None:
    """``node`` decoded row by row, or None once its first malformed entry,
    in row-major order, is named."""
    if not isinstance(node, list) or not node:
        problems.append(f"{path}: expected a non-empty array of rows")
        return None
    decoded = (decode_vector(row, f"{path}[{i}]", problems) for i, row in enumerate(node))
    rows = list(itertools.takewhile(lambda r: r is not None, decoded))
    if len(rows) < len(node):
        return None
    if len({r.size for r in rows}) != 1:
        problems.append(f"{path}: rows have inconsistent lengths")
        return None
    return np.array(rows, dtype=complex)
