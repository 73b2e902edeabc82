import tracemalloc
from math import prod

import numpy as np
import pytest

from helpers import (
    dephased,
    hermitian_with_spectrum,
    mixed_radix_parts,
    outer_product_reduction,
    random_state,
    random_unitary,
    state_after_direct_c,
)
from qroutes import (
    CapacityError,
    DensityMatrix,
    DimensionError,
    NormalizationError,
    NoStageError,
    Route,
    TotalState,
    init_total,
    interact,
    probe_signal_distribution,
    reduced_system_state,
    run_route,
    spectral_decompose,
)
from qroutes.linalg import MAX_DIM

A = spectral_decompose(np.diag([1, 1, 0]).astype(complex), label="A")
B = spectral_decompose(np.diag([0, 1, 1]).astype(complex), label="B")
C = spectral_decompose(np.diag([0, 1, 0]).astype(complex), label="C")
REGISTRY = {"A": A, "B": B, "C": C}

ETA = np.array([0.6, 0.48j, -0.64], dtype=complex)


def oracle_interact(vector, probe_dim, obs):
    """Reference fold built directly from kron, independent of the reshape
    mechanics inside the implementation."""
    out = np.zeros(len(obs.groups) * vector.size, dtype=complex)
    for n, group in enumerate(obs.groups):
        point = np.zeros(len(obs.groups), dtype=complex)
        point[n] = 1.0
        out += np.kron(point, np.kron(np.eye(probe_dim), group.projector) @ vector)
    return out


def fold(state, labels):
    for lab in labels:
        state = interact(state, REGISTRY[lab])
    return state


def random_stage_dims(rng, cap):
    """Seeded register layout: 1 to 10 stages of dimension 1-4, product at most ``cap``."""
    dims = []
    for _ in range(rng.integers(1, 11)):
        d = int(rng.integers(1, 5))
        if prod(dims) * d > cap:
            break
        dims.append(d)
    return tuple(dims)


def index_labels(dims):
    return tuple(tuple(str(k) for k in range(d)) for d in dims)


def stage_dims(total):
    return tuple(map(len, total.stage_labels))


def assert_bit_identical(x, y):
    assert x.dtype == y.dtype == complex
    assert np.array_equal(x.view(np.float64), y.view(np.float64))


class TestInitTotal:
    def test_starts_with_no_registers(self):
        total = init_total(ETA)
        assert total.stage_labels == ()
        assert total.register_dim == 1
        assert total.system_dim == 3
        assert np.array_equal(total.vector, ETA)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "vector, deviation",
        [([1.0, 1.0, 0.0], r"4\.142e-01"), ([1e200, 1e200], r"1\.414e\+200"), ([np.nan, 0.0], "nan")],
        ids=["unit-scale", "norm-past-the-float-range", "nan"],
    )
    def test_rejects_unnormalized_vector(self, vector, deviation):
        with pytest.raises(NormalizationError, match=f"^norm deviates from 1 by {deviation}$"):
            init_total(np.array(vector, dtype=complex))


class TestInteract:
    def test_single_stage_block_layout(self):
        total = interact(init_total(ETA), A)
        expect = np.array([ETA[0], ETA[1], 0, 0, 0, ETA[2]], dtype=complex)
        assert np.allclose(total.vector, expect, atol=1e-12)
        assert stage_dims(total) == (2,)
        assert total.stage_labels == (("1", "0"),)

    def test_matches_kron_oracle_through_two_stages(self):
        total = init_total(ETA)
        for obs in (A, B):
            expect = oracle_interact(total.vector, total.register_dim, obs)
            total = interact(total, obs)
            assert np.allclose(total.vector, expect, atol=1e-12)
        assert stage_dims(total) == (2, 2)

    def test_preserves_norm(self):
        rng = np.random.default_rng(101)
        total = init_total(random_state(rng, 3))
        for obs in (A, B, C):
            total = interact(total, obs)
            assert np.linalg.norm(total.vector) == pytest.approx(1.0, abs=1e-10)

    def test_distinct_outcome_components_are_orthogonal(self):
        total = fold(init_total(ETA), ("A", "B"))
        blocks = total.vector.reshape(total.register_dim, total.system_dim)
        for q in range(total.register_dim):
            for r in range(q + 1, total.register_dim):
                point_q = np.zeros(total.register_dim)
                point_q[q] = 1.0
                point_r = np.zeros(total.register_dim)
                point_r[r] = 1.0
                comp_q = np.kron(point_q, blocks[q])
                comp_r = np.kron(point_r, blocks[r])
                assert np.vdot(comp_q, comp_r) == 0.0

    def test_stage_labels_given_as_lists_are_stored_as_tuples(self):
        given = TotalState(np.array([1, 0, 0, 0], dtype=complex), 2, [["1", "0"]])
        assert given.stage_labels == (("1", "0"),)
        total = interact(given, spectral_decompose(np.diag([1.0, 0.0])))
        assert total.stage_labels == (("1", "0"), ("1", "0"))
        assert total.labels == ("11", "01", "10", "00")
        assert total.vector.tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_rejects_wrong_system_dimension(self):
        sigma_x = spectral_decompose(np.array([[0, 1], [1, 0]], dtype=complex))
        with pytest.raises(DimensionError):
            interact(init_total(ETA), sigma_x)

    def test_total_dimension_capacity(self):
        vals = np.arange(5, dtype=float)
        m, _ = hermitian_with_spectrum(np.random.default_rng(102), vals)
        obs = spectral_decompose(m)
        e0 = np.zeros(5, dtype=complex)
        e0[0] = 1.0
        total = init_total(e0)
        for _ in range(3):  # 25, 125, 625 are all within the limit
            total = interact(total, obs)
        with pytest.raises(CapacityError):
            interact(total, obs)


class TestReducedState:
    def test_no_stage_reduction_is_the_input(self):
        total = init_total(ETA)
        rho = reduced_system_state(total)
        assert np.allclose(rho.mat, np.outer(ETA, ETA.conj()), atol=1e-12)

    def test_two_stage_reduction_dephases(self):
        total = fold(init_total(ETA), ("A", "B"))
        assert np.allclose(reduced_system_state(total).mat, dephased(ETA), atol=1e-10)

    def test_single_stage_reduction_keeps_coherence(self):
        total = fold(init_total(ETA), ("C",))
        assert np.allclose(
            reduced_system_state(total).mat, state_after_direct_c(ETA), atol=1e-10
        )

    @pytest.mark.parametrize("labels", [("C",), ("A", "B"), ("B", "A"), ("A", "B", "C")])
    def test_reduction_reproduces_route_updates(self, labels):
        rng = np.random.default_rng(103)
        for _ in range(3):
            eta = random_state(rng, 3)
            total = fold(init_total(eta), labels)
            reference = run_route(DensityMatrix.pure(eta), Route(steps=labels), REGISTRY)
            assert np.abs(reduced_system_state(total).mat - reference.mat).max() <= 1e-10

    def test_random_observables_stay_consistent(self):
        rng = np.random.default_rng(104)
        for dim in (2, 3, 4, 5):
            eta = random_state(rng, dim)
            registry = {}
            for name in ("O1", "O2"):
                vals = rng.choice([-1.0, 0.0, 1.0, 2.0], size=dim)
                m, _ = hermitian_with_spectrum(rng, vals)
                registry[name] = spectral_decompose(m, label=name)
            total = init_total(eta)
            for name in ("O1", "O2"):
                total = interact(total, registry[name])
            reference = run_route(
                DensityMatrix.pure(eta), Route(steps=("O1", "O2")), registry
            )
            assert np.abs(reduced_system_state(total).mat - reference.mat).max() <= 1e-10

    def test_matches_outer_product_oracle_bit_for_bit(self):
        rng = np.random.default_rng(106)
        for system_dim in range(2, 9):
            cap = MAX_DIM // system_dim
            layouts = [random_stage_dims(rng, cap) for _ in range(4)]
            layouts.append((2,) * (cap.bit_length() - 1))  # fills the register to the cap
            for dims in layouts:
                vector = random_state(rng, prod(dims) * system_dim)
                total = TotalState(vector, system_dim, index_labels(dims))
                assert_bit_identical(
                    reduced_system_state(total).mat,
                    outer_product_reduction(total.vector, prod(dims), system_dim).mat,
                )

    def test_deep_two_qubit_route_matches_oracle_bit_for_bit(self):
        # Eight ZI/IZ/ZZ stages in a random basis fill 2**8 * 4 = MAX_DIM.
        rng = np.random.default_rng(107)
        basis = random_unitary(rng, 4)
        spectra = {"ZI": [1, 1, -1, -1], "IZ": [1, -1, 1, -1], "ZZ": [1, -1, -1, 1]}
        registry = {
            k: spectral_decompose((basis * np.array(v, float)) @ basis.conj().T, label=k)
            for k, v in spectra.items()
        }
        total = init_total(random_state(rng, 4))
        for label in ("ZI", "ZZ", "IZ", "ZZ", "ZI", "IZ", "IZ", "ZI"):
            total = interact(total, registry[label])
        assert total.vector.size == MAX_DIM
        assert_bit_identical(
            reduced_system_state(total).mat,
            outer_product_reduction(total.vector, total.register_dim, total.system_dim).mat,
        )

    def test_reduction_never_builds_the_total_density_matrix(self):
        # The dense (p·s)² outer product at the cap alone is 16 MiB.
        rng = np.random.default_rng(108)
        total = TotalState(random_state(rng, MAX_DIM), 4, index_labels((2,) * 8))
        tracemalloc.start()
        try:
            reduced_system_state(total)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestSignalDistribution:
    def test_direct_route_signals(self):
        total = fold(init_total(ETA), ("C",))
        dist = probe_signal_distribution(total)
        assert set(dist) == {"1", "0"}
        assert dist["1"] == pytest.approx(abs(ETA[1]) ** 2, abs=1e-12)
        assert dist["0"] == pytest.approx(abs(ETA[0]) ** 2 + abs(ETA[2]) ** 2, abs=1e-12)

    def test_sequential_route_signals(self):
        total = fold(init_total(ETA), ("A", "B"))
        dist = probe_signal_distribution(total)
        assert set(dist) == {"11", "10", "01", "00"}
        assert dist["10"] == pytest.approx(abs(ETA[0]) ** 2, abs=1e-12)
        assert dist["11"] == pytest.approx(abs(ETA[1]) ** 2, abs=1e-12)
        assert dist["01"] == pytest.approx(abs(ETA[2]) ** 2, abs=1e-12)
        assert dist["00"] == pytest.approx(0.0, abs=1e-12)

    def test_reversed_route_permutes_labels(self):
        dist_ab = probe_signal_distribution(fold(init_total(ETA), ("A", "B")))
        dist_ba = probe_signal_distribution(fold(init_total(ETA), ("B", "A")))
        # Labels read in measurement order, so the two records mirror each other.
        assert dist_ba["01"] == pytest.approx(dist_ab["10"], abs=1e-12)
        assert dist_ba["10"] == pytest.approx(dist_ab["01"], abs=1e-12)
        assert dist_ba["11"] == pytest.approx(dist_ab["11"], abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(105)
        total = fold(init_total(random_state(rng, 3)), ("A", "B", "C"))
        dist = probe_signal_distribution(total)
        assert len(dist) == 8
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)

    def test_without_stages_raises(self):
        with pytest.raises(NoStageError):
            probe_signal_distribution(init_total(ETA))


class TestLabels:
    def test_eigenvalues_become_short_decimals(self):
        obs = spectral_decompose(np.diag([0.5, 0.5, -1.25]).astype(complex))
        total = interact(init_total(np.array([1, 0, 0], dtype=complex)), obs)
        assert total.stage_labels == (("0.5", "-1.25"),)

    def test_irrational_eigenvalues_fall_back_to_indices(self):
        s3 = np.sqrt(3.0)
        d1 = np.array([1, -1 + s3, 1], dtype=complex) / np.sqrt(6 - 2 * s3)
        d2 = np.array([1, -1 - s3, 1], dtype=complex) / np.sqrt(6 + 2 * s3)
        m = (1 + s3) * np.outer(d1, d1.conj()) + (1 - s3) * np.outer(d2, d2.conj())
        obs = spectral_decompose(m)
        total = interact(init_total(np.array([0, 0, 1], dtype=complex)), obs)
        assert total.stage_labels == (("g0", "0", "g2"),)

    def test_negative_zero_is_normalized(self):
        obs = spectral_decompose(np.diag([1.0, -0.0]).astype(complex))
        total = interact(init_total(np.array([1, 0], dtype=complex)), obs)
        assert total.stage_labels == (("1", "0"),)

    def test_composite_labels_are_unique(self):
        total = fold(init_total(ETA), ("A", "B", "C"))
        labels = total.labels
        assert len(labels) == len(set(labels)) == 8

    def test_multicharacter_labels_get_separator_on_collision(self):
        # "1"+"11" and "11"+"1" would both read "111" when concatenated.
        obs2 = spectral_decompose(np.diag([11.0, 1.0]).astype(complex))
        e0 = np.zeros(2, dtype=complex)
        e0[0] = 1.0
        total = interact(interact(init_total(e0), obs2), obs2)
        labels = total.labels
        assert len(set(labels)) == 4
        assert "11,11" in labels
        parts = mixed_radix_parts(stage_dims(total), total.stage_labels)
        assert labels == tuple(",".join(p) for p in parts)

    def test_labels_match_mixed_radix_oracle(self):
        rng = np.random.default_rng(109)
        pool = ["0", "1", "11", "-1", "0.5", "2", "g0"]
        fell_back = 0
        for _ in range(80):
            dims = random_stage_dims(rng, MAX_DIM)
            stage_labels = tuple(
                tuple(str(x) for x in rng.choice(pool, d, replace=False)) for d in dims
            )
            parts = mixed_radix_parts(dims, stage_labels)
            expect = ["".join(p) for p in parts]
            if len(set(expect)) != len(expect):
                expect = [",".join(p) for p in parts]
                fell_back += 1
            register_only = np.zeros(prod(dims), dtype=complex)
            register_only[0] = 1.0
            assert TotalState(register_only, 1, stage_labels).labels == tuple(expect)
        assert fell_back > 0
