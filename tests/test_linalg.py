import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    hermitian_with_spectrum,
    jacobi_eigensystem,
    jacobi_trace_distance,
    oracle_trace_distance,
    partial_trace,
    random_density,
    random_hermitian,
    random_state,
    random_unitary,
)
from qroutes import (
    DensityMatrix,
    DimensionError,
    EigenGroup,
    HermiticityError,
    InvariantError,
    NormalizationError,
    Observable,
    TotalState,
    hermitian_eigendecomposition,
    init_total,
    trace_distance,
)
from qroutes.linalg import UNIT_TOL, norm_deviation

SQ3 = np.sqrt(3.0)


def diag3(a, b, c):
    return np.diag([a, b, c]).astype(complex)


def d1_matrix():
    n1 = np.array([1, -1 + SQ3, 1], dtype=complex) / np.sqrt(6 - 2 * SQ3)
    n2 = np.array([1, -1 - SQ3, 1], dtype=complex) / np.sqrt(6 + 2 * SQ3)
    p1 = np.outer(n1, n1.conj())
    p2 = np.outer(n2, n2.conj())
    return (1 + SQ3) * p1 + (1 - SQ3) * p2


class TestBasicOps:
    def test_nonsquare_input_rejected(self):
        with pytest.raises(DimensionError):
            hermitian_eigendecomposition(np.ones((2, 3), dtype=complex))

    def test_nonfinite_input_rejected(self):
        bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(DimensionError):
            hermitian_eigendecomposition(bad)


class TestPartialTrace:
    def test_recovers_factors_of_product(self):
        rng = np.random.default_rng(11)
        a = random_density(rng, 2).mat
        b = random_density(rng, 3).mat
        joint = np.kron(a, b)
        assert np.allclose(partial_trace(joint, [2, 3], 0), a, atol=1e-12)
        assert np.allclose(partial_trace(joint, [2, 3], 1), b, atol=1e-12)

    def test_three_factor_product(self):
        rng = np.random.default_rng(12)
        parts = [random_density(rng, d).mat for d in (2, 3, 2)]
        joint = np.kron(np.kron(parts[0], parts[1]), parts[2])
        for k in range(3):
            assert np.allclose(partial_trace(joint, [2, 3, 2], k), parts[k], atol=1e-12)

    def test_matches_index_loop_oracle(self):
        # Brute force over basis indices, independent of the reshape trick.
        rng = np.random.default_rng(13)
        da, db = 3, 4
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        expect = np.zeros((db, db), dtype=complex)
        for i in range(db):
            for j in range(db):
                expect[i, j] = sum(m[a * db + i, a * db + j] for a in range(da))
        assert np.allclose(partial_trace(m, [da, db], 1), expect, atol=1e-12)

    def test_preserves_trace(self):
        rng = np.random.default_rng(14)
        m = random_density(rng, 12).mat
        for keep, dims in ((0, [3, 4]), (1, [3, 4]), (1, [2, 3, 2])):
            reduced = partial_trace(m, dims, keep)
            assert abs(np.trace(reduced) - 1.0) <= 1e-12

    def test_rejects_inconsistent_dims(self):
        with pytest.raises(DimensionError):
            partial_trace(np.eye(6, dtype=complex), [2, 2], 0)

    def test_rejects_bad_keep_index(self):
        with pytest.raises(DimensionError):
            partial_trace(np.eye(6, dtype=complex), [2, 3], 2)


def column_projectors(vecs):
    """The rank-one projector of each column of ``vecs``, stacked."""
    return np.einsum("ik,jk->kij", vecs, vecs.conj())


def eigenprojectors(vals, vecs, levels):
    """The projector onto each level's eigenspace, from the columns whose
    eigenvalue lies within 0.5 of it (levels at least 1 apart)."""
    return [column_projectors(vecs[:, abs(vals - level) < 0.5]).sum(axis=0) for level in levels]


@st.composite
def degenerate_spectra(draw):
    """Integer eigenvalues, each repeated up to 4 times, at least one more
    than once, in dimension 2 to 16."""
    multiplicities = draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=16).filter(
            lambda ks: sum(ks) <= 16 and max(ks) > 1
        )
    )
    k = len(multiplicities)
    levels = draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k, unique=True))
    return np.repeat(levels, multiplicities)


class TestEigendecomposition:
    def test_degenerate_diagonal_matrix(self):
        vals, vecs = hermitian_eigendecomposition(diag3(1, 1, 0))
        assert vals.tolist() == pytest.approx([1.0, 1.0, 0.0], abs=1e-12)
        projectors = eigenprojectors(vals, vecs, [1, 0])
        assert np.allclose(projectors, [diag3(1, 1, 0), diag3(0, 0, 1)], atol=1e-12)
        jacobi = eigenprojectors(*jacobi_eigensystem(diag3(1, 1, 0)), [1, 0])
        assert np.allclose(projectors, jacobi, atol=1e-12)

    def test_spectrum_with_irrational_gaps(self):
        vals = hermitian_eigendecomposition(d1_matrix())[0].tolist()
        assert vals == pytest.approx([1 + SQ3, 0.0, 1 - SQ3], abs=1e-10)
        assert vals == pytest.approx(jacobi_eigensystem(d1_matrix())[0].tolist(), abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_matches_numpy_oracle_on_random_input(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(5):
            m = random_hermitian(rng, dim)
            vals, vecs = hermitian_eigendecomposition(m)
            oracle = np.sort(np.linalg.eigvalsh(m))[::-1]
            assert np.allclose(vals, oracle, atol=1e-10)
            assert np.allclose(vecs @ np.diag(vals) @ vecs.conj().T, m, atol=1e-10)
            assert np.allclose(vecs.conj().T @ vecs, np.eye(dim), atol=1e-10)
            # Random spectra are simple, so each column's rank-one projector
            # is an eigenprojector; the Jacobi oracle must agree on all of them.
            jacobi_vals, jacobi_vecs = jacobi_eigensystem(m)
            assert np.allclose(vals, jacobi_vals, atol=1e-10)
            assert np.allclose(column_projectors(vecs), column_projectors(jacobi_vecs), atol=1e-8)

    def test_handles_exact_degeneracy(self):
        rng = np.random.default_rng(21)
        u = random_unitary(rng, 4)
        m = u @ np.diag([2.0, 2.0, -1.0, -1.0]).astype(complex) @ u.conj().T
        m = (m + m.conj().T) / 2
        vals, vecs = hermitian_eigendecomposition(m)
        assert np.allclose(vals, [2, 2, -1, -1], atol=1e-10)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(4), atol=1e-10)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.conj().T, m, atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), spectrum=degenerate_spectra())
    def test_eigenprojectors_match_the_jacobi_oracle_on_degenerate_spectra(self, seed, spectrum):
        m, _ = hermitian_with_spectrum(np.random.default_rng(seed), spectrum)
        obs = Observable(m)
        levels = sorted(set(spectrum.tolist()), reverse=True)
        assert obs.eigenvalues == pytest.approx(levels, abs=1e-9)
        expected = eigenprojectors(*jacobi_eigensystem(m), levels)
        for group, projector in zip(obs.groups, expected):
            assert abs(group.projector - projector).max() <= 1e-8
        u = np.concatenate([g.basis for g in obs.groups])
        eye = np.eye(spectrum.size)
        assert abs(u.conj() @ u.T - eye).max() <= UNIT_TOL  # orthonormal
        assert abs(u.T @ u.conj() - eye).max() <= UNIT_TOL  # complete

    def test_deterministic_output(self):
        rng = np.random.default_rng(23)
        m = random_hermitian(rng, 7)
        first = hermitian_eigendecomposition(m)
        second = hermitian_eigendecomposition(m)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_rejects_nonhermitian_input(self):
        with pytest.raises(HermiticityError):
            hermitian_eigendecomposition(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_one_by_one_matrix(self):
        vals, vecs = hermitian_eigendecomposition(np.array([[4.0]], dtype=complex))
        assert vals[0] == pytest.approx(4.0)
        assert vecs[0, 0] == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error")
    def test_entries_near_the_float_limit(self):
        vals, _ = hermitian_eigendecomposition([[0, 1e308], [1e308, 0]])
        assert vals.tolist() == [1e308, -1e308]


class TestDensityMatrix:
    def test_accepts_valid_mixed_state(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        assert rho.dim == 2
        assert not rho.mat.flags.writeable

    def test_pure_state_constructor(self):
        v = np.array([1, 1j], dtype=complex) / np.sqrt(2)
        rho = DensityMatrix.pure(v)
        assert np.allclose(rho.mat, np.outer(v, v.conj()), atol=1e-15)

    def test_pure_rejects_unnormalized_vector(self):
        with pytest.raises(ValueError):
            DensityMatrix.pure(np.array([1.0, 1.0], dtype=complex))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "vector, message",
        [
            ([1.0, 1.0], "norm deviates from 1 by 4.142e-01"),
            ([1e200, 1e200], "norm deviates from 1 by 1.414e+200"),
            # |v| - 1 = 7e-11 passes the norm check; the trace |v|^2 then fails
            (np.full(3, (1 + 7e-11) / SQ3), "density matrix trace deviates from 1 by 1.400e-10"),
        ],
        ids=["norm", "norm-past-the-float-range", "trace"],
    )
    def test_pure_checks_the_norm_then_the_trace(self, vector, message):
        with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
            DensityMatrix.pure(vector)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "coherence, error, message",
        [
            (1e308, InvariantError, "density matrix has negative eigenvalue -1.000e+308"),
            (-1e308, HermiticityError, "density matrix not Hermitian: max |m - m†| = inf"),
        ],
        ids=["hermitian", "anti-hermitian"],
    )
    def test_coherence_near_the_float_limit_is_refused(self, coherence, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            DensityMatrix([[1, 1e308], [coherence, 0]])

    def test_rejects_nonhermitian(self):
        with pytest.raises(HermiticityError):
            DensityMatrix(np.array([[0.5, 1], [0, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_tolerates_tiny_negative_eigenvalue(self):
        DensityMatrix(np.diag([1 + 5e-11, -5e-11]).astype(complex))

    @pytest.mark.parametrize(
        "diagonal, message",
        [
            ([1.0, 1.0], "density matrix trace deviates from 1 by 1.000e+00"),
            ([1.5, -0.5], "density matrix has negative eigenvalue -5.000e-01"),
        ],
    )
    def test_invariant_failures_are_invariant_errors(self, diagonal, message):
        with pytest.raises(InvariantError, match=f"^{re.escape(message)}$") as caught:
            DensityMatrix(np.diag(diagonal).astype(complex))
        assert isinstance(caught.value, ValueError)


class TestTraceDistance:
    def test_identical_states(self):
        rng = np.random.default_rng(31)
        rho = random_density(rng, 4)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = DensityMatrix.pure(np.array([1, 0], dtype=complex))
        b = DensityMatrix.pure(np.array([0, 1], dtype=complex))
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(32)
        for dim in (2, 3, 5):
            x, y = random_density(rng, dim), random_density(rng, dim)
            assert trace_distance(x, y) == pytest.approx(
                oracle_trace_distance(x.mat, y.mat), abs=1e-11
            )
            assert trace_distance(x, y) == pytest.approx(
                jacobi_trace_distance(x.mat, y.mat), abs=1e-11
            )

    def test_symmetry(self):
        rng = np.random.default_rng(33)
        x, y = random_density(rng, 3), random_density(rng, 3)
        assert trace_distance(x, y) == pytest.approx(trace_distance(y, x), abs=1e-13)

    def test_rejects_mismatched_dims(self):
        with pytest.raises(DimensionError):
            trace_distance(
                DensityMatrix(np.eye(2, dtype=complex) / 2),
                DensityMatrix(np.eye(3, dtype=complex) / 3),
            )


# Each constructor that reads a caller's numbers, given a nest whose first
# entry is ``x``, and what it makes of ``x = 10**20``: the value it kept, or
# the refusal that names the value it read.
READERS = {
    "Observable": (lambda x: Observable([[x, 0], [0, 0]]), lambda o: o.eigenvalues == (1e20, 0.0)),
    "DensityMatrix": (
        lambda x: DensityMatrix([[x, 0], [0, 0]]),
        (InvariantError, "density matrix trace deviates from 1 by 1.000e+20"),
    ),
    "DensityMatrix.pure": (
        lambda x: DensityMatrix.pure([x, 0]),
        (InvariantError, "norm deviates from 1 by 1.000e+20"),
    ),
    "EigenGroup": (lambda x: EigenGroup(1.0, [[x, 0]]), lambda g: g.basis.tolist() == [[1e20, 0]]),
    "init_total": (lambda x: init_total([x, 0]), (NormalizationError, "norm deviates from 1 by 1.000e+20")),
    "TotalState": (lambda x: TotalState([x, 0], 2), (NormalizationError, "norm deviates from 1 by 1.000e+20")),
    "hermitian_eigendecomposition": (
        lambda x: hermitian_eigendecomposition([[x, 0], [0, 0]]),
        lambda result: result[0].tolist() == [1e20, 0.0],
    ),
}


class TestOneReader:
    """Every constructor reads a caller's numbers by the rule of a file's entries."""

    @pytest.mark.parametrize("leaf", [True, None, "1"], ids=["bool", "None", "str"])
    @pytest.mark.parametrize("reader", READERS)
    def test_refuses_what_is_not_numbers(self, reader, leaf):
        build, _ = READERS[reader]
        with pytest.raises(TypeError, match=r"^expected numbers, got "):
            build(leaf)

    @pytest.mark.parametrize("reader", READERS)
    def test_reads_an_int_past_int64_as_the_nearest_float(self, reader):
        build, expected = READERS[reader]
        if callable(expected):
            assert expected(build(10**20))
        else:
            error, message = expected
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                build(10**20)


# Randomized invariants.  Complex entries are built from pairs of floats so
# hypothesis can shrink failures to readable matrices.

finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def density_pair(draw, dim=3):
    out = []
    for _ in range(2):
        re = draw(st.lists(finite, min_size=dim * dim, max_size=dim * dim))
        im = draw(st.lists(finite, min_size=dim * dim, max_size=dim * dim))
        m = (np.array(re) + 1j * np.array(im)).reshape(dim, dim)
        m = m @ m.conj().T + np.eye(dim) * 1e-3
        out.append(DensityMatrix(m / np.trace(m)))
    return out


@settings(max_examples=50, deadline=None)
@given(density_pair())
def test_trace_distance_bounded(pair):
    d = trace_distance(pair[0], pair[1])
    assert 0.0 <= d <= 1.0


@settings(max_examples=30, deadline=None)
@given(density_pair(), density_pair())
def test_trace_distance_triangle_inequality(p1, p2):
    x, y = p1
    z = p2[0]
    assert trace_distance(x, y) <= trace_distance(x, z) + trace_distance(z, y) + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=-5, max_value=5).flatmap(
    lambda seed: st.just(np.random.default_rng(seed + 5))
))
def test_partial_trace_of_product_state(rng):
    a = random_density(rng, 2).mat
    b = random_density(rng, 4).mat
    joint = np.kron(a, b)
    assert np.allclose(partial_trace(joint, [2, 4], 0), a, atol=1e-12)
    assert np.allclose(partial_trace(joint, [2, 4], 1), b, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-1e150, max_value=1e150).filter(lambda x: x == 0 or abs(x) >= 1e-150),
            st.floats(min_value=-1e150, max_value=1e150).filter(lambda x: x == 0 or abs(x) >= 1e-150),
        ),
        min_size=1,
        max_size=16,
    )
)
def test_norm_deviation_is_the_plain_formula_where_no_square_leaves_the_range(parts):
    v = np.array([complex(a, b) for a, b in parts])
    assert np.float64(norm_deviation(v)).tobytes() == np.float64(abs(np.linalg.norm(v) - 1.0)).tobytes()
