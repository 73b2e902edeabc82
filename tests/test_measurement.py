import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    clear_builtins,
    degenerate_scenario,
    dephased,
    hermitian_with_spectrum,
    jacobi_eigensystem,
    loop_spectral_groups,
    random_density,
    random_state,
    random_unitary,
    state_after_a,
    state_after_direct_c,
)
from qroutes import builtin, measurement, run_scenario
from qroutes import (
    AmbiguousGroupingError,
    DensityMatrix,
    DimensionError,
    EigenGroup,
    HermiticityError,
    InvariantError,
    Observable,
    ProjectionRule,
    ZeroProbabilityError,
    apply_rule,
    hermitian_eigendecomposition,
    init_total,
    interact,
    luders_update,
    selective_outcome,
    spectral_decompose,
    von_neumann_update,
)
from qroutes.linalg import MATRIX_TOL, UNIT_TOL, scaled_tol

A = np.diag([1, 1, 0]).astype(complex)
C = np.diag([0, 1, 0]).astype(complex)

ETA = np.array([0.6, 0.48j, -0.64], dtype=complex)  # |0.6|^2+|0.48|^2+|0.64|^2 = 1


def eta_density():
    return DensityMatrix.pure(ETA)


def rotated_inside_eigenspaces(rng):
    """``hermitian_eigendecomposition`` with the eigenvectors of each
    eigenvalue (spectra spaced at least 1 apart) mixed by a random unitary."""

    def solve(m):
        vals, vecs = hermitian_eigendecomposition(m)
        bounds = [0, *(np.flatnonzero(vals[:-1] - vals[1:] > 0.5) + 1), vals.size]
        for a, b in zip(bounds, bounds[1:]):
            vecs[:, a:b] = vecs[:, a:b] @ random_unitary(rng, b - a)
        return vals, vecs

    return solve


class TestSpectralDecompose:
    def test_degenerate_projector_split(self):
        obs = spectral_decompose(A)
        assert obs.eigenvalues == pytest.approx([1.0, 0.0], abs=1e-12)
        assert [g.degeneracy for g in obs.groups] == [2, 1]
        assert np.allclose(obs.groups[0].projector, np.diag([1, 1, 0]), atol=1e-12)
        assert np.allclose(obs.groups[1].projector, np.diag([0, 0, 1]), atol=1e-12)

    def test_rank_one_top_group(self):
        obs = spectral_decompose(C)
        assert obs.eigenvalues == pytest.approx([1.0, 0.0], abs=1e-12)
        assert [g.degeneracy for g in obs.groups] == [1, 2]
        assert np.allclose(obs.groups[0].projector, np.diag([0, 1, 0]), atol=1e-12)

    def test_identity_collapses_to_single_group(self):
        obs = spectral_decompose(np.eye(3, dtype=complex))
        assert len(obs.groups) == 1
        assert obs.groups[0].degeneracy == 3
        assert np.allclose(obs.groups[0].projector, np.eye(3), atol=1e-12)

    def test_projectors_complete_and_orthogonal(self):
        rng = np.random.default_rng(41)
        m, _ = hermitian_with_spectrum(rng, [3.0, 3.0, -1.0, 0.5, 0.5])
        obs = spectral_decompose(m)
        total = sum(g.projector for g in obs.groups)
        assert np.allclose(total, np.eye(5), atol=1e-10)
        for i, gi in enumerate(obs.groups):
            for j, gj in enumerate(obs.groups):
                expect = gi.projector if i == j else np.zeros((5, 5))
                assert np.allclose(gi.projector @ gj.projector, expect, atol=1e-10)

    def test_reconstruction_from_groups(self):
        rng = np.random.default_rng(42)
        m, _ = hermitian_with_spectrum(rng, [2.0, -2.0, 0.0, 2.0])
        obs = spectral_decompose(m)
        recon = sum(g.eigenvalue * g.projector for g in obs.groups)
        assert np.allclose(recon, m, atol=1e-8)

    def test_empty_matrix_is_refused(self):
        with pytest.raises(DimensionError, match="cannot decompose an empty matrix"):
            spectral_decompose(np.zeros((0, 0), dtype=complex))

    def test_gap_inside_ambiguity_band_raises(self):
        m = np.diag([0.0, 5e-8]).astype(complex)
        with pytest.raises(AmbiguousGroupingError):
            spectral_decompose(m)

    def test_gap_below_tolerance_merges(self):
        obs = spectral_decompose(np.diag([1.0, 1.0 + 5e-11]).astype(complex))
        assert len(obs.groups) == 1
        # Cluster value is the average of the merged eigenvalues.
        assert obs.groups[0].eigenvalue == pytest.approx(1.0 + 2.5e-11, abs=1e-12)

    def test_gap_above_band_splits(self):
        obs = spectral_decompose(np.diag([0.0, 2e-7]).astype(complex))
        assert len(obs.groups) == 2

    def test_matches_loop_oracle_bit_for_bit(self):
        # Seeded spectra with clusters of 1 to 12 equal eigenvalues (the
        # mean of 8 or more sums pairwise), merge-level jitter, and
        # axis-aligned eigenspaces whose projectors hold exact and signed
        # zeros; every float must match the loop formulation bit for bit.
        rng = np.random.default_rng(2024)
        for trial in range(120):
            levels = rng.normal(size=int(rng.integers(1, 5))) * 3
            spectrum = np.repeat(levels, rng.integers(1, 13, size=levels.size))
            spectrum = rng.permutation(spectrum) + rng.normal(size=spectrum.size) * 1e-12 * (trial % 3)
            n = spectrum.size
            u = np.eye(n) if trial % 4 == 0 else random_unitary(rng, n)
            m = (u * spectrum) @ u.conj().T
            m = (m + m.conj().T) / 2
            obs = spectral_decompose(m)
            expected = loop_spectral_groups(m)
            assert len(obs.groups) == len(expected)
            for g, (value, degeneracy, projector, refinement) in zip(obs.groups, expected):
                assert np.float64(g.eigenvalue).tobytes() == np.float64(value).tobytes()
                assert g.degeneracy == degeneracy
                assert g.projector.tobytes() == projector.tobytes()
                assert g.refinement.tobytes() == np.array(refinement).tobytes()


class TestObservableValidation:
    def test_merging_a_wide_real_gap_is_rejected(self):
        # Gaps below group_tol but far above eigensolver noise cannot be
        # absorbed into one group without breaking spectral reconstruction.
        message = "eigenvalues merged into one group spread over 5.000e-09, more than the merge tolerance 1.000e-10"
        with pytest.raises(AmbiguousGroupingError, match=f"^{re.escape(message)}$"):
            Observable(np.diag([0.0, 5e-9]))

    def test_stores_a_read_only_copy_of_the_matrix(self):
        as_list = [[1, 0], [0, 0]]
        assert Observable(as_list).dim == 2
        given = np.diag([1.0, 0.0]).astype(complex)
        obs = Observable(given)
        assert not obs.matrix.flags.writeable
        assert given.flags.writeable
        given[0, 0] = 5.0
        assert obs.matrix[0, 0] == 1.0


class TestObservableMessages:
    """Every refusal an ``Observable`` can raise, from its matrix, with its exact message."""

    @pytest.mark.parametrize(
        "matrix, error, message",
        [
            (np.zeros((0, 0)), DimensionError, "cannot decompose an empty matrix"),
            (np.ones((2, 3)), DimensionError, "expected a square matrix, got shape (2, 3)"),
            (np.diag([1.0, np.nan]), DimensionError, "non-finite entry"),
            ([[0, 1], [0, 0]], HermiticityError, "max |m - m†| = 1.000e+00 exceeds tolerance 1.000e-10"),
            (np.diag([1, 1 + 3e-8, 0]), AmbiguousGroupingError, "eigenvalue gap 3.000e-08 falls inside (1.000e-08, 1.000e-07)"),
            # Each gap 6e-9 is inside the band 1e-8; the chain spans 1.2e-8.
            (
                np.diag([0, 6e-9, 1.2e-8]),
                AmbiguousGroupingError,
                "eigenvalues merged into one group spread over 1.200e-08, more than the merge tolerance 1.000e-10",
            ),
            (np.diag([1.7e308, 1.7e308]), InvariantError, "eigenvalue inf is outside the float range"),
            # The README's diag(1, 1 + g, 0) at a gap g inside the band but wider than the merge tolerance.
            (
                np.diag([1, 1 + 5e-9, 0]),
                AmbiguousGroupingError,
                "eigenvalues merged into one group spread over 5.000e-09, more than the merge tolerance 1.000e-10",
            ),
        ],
        ids=["empty", "not-square", "non-finite", "not-hermitian", "ambiguous-gap", "spread", "overflow", "reconstruction"],
    )
    def test_message(self, matrix, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            Observable(matrix)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    log_jitter=st.floats(-16, -6),
    k=st.integers(0, 6),
)
@example(seed=7, sizes=[3, 1], log_jitter=-10.5, k=0)  # merged, spread near the merge tolerance
@example(seed=7, sizes=[3, 1], log_jitter=-9.0, k=6)  # refused by its spread
def test_accepted_groups_rebuild_the_matrix(seed, sizes, log_jitter, k):
    """The rebuilt-matrix check construction no longer makes, kept as an
    oracle: clusters of eigenvalues jittered from rounding level to past the
    grouping band, at scales 10^0 to 10^6. Whatever ``Observable`` accepts,
    its group means rebuild ``m`` within ``scaled_tol(MATRIX_TOL, m)``; what
    it refuses, it refuses with AmbiguousGroupingError."""
    rng = np.random.default_rng(seed)
    levels = rng.normal(size=len(sizes)) * 3
    jitter = rng.uniform(-1, 1, size=sum(sizes)) * 10.0**log_jitter
    m, _ = hermitian_with_spectrum(rng, (np.repeat(levels, sizes) + jitter) * 10.0**k)
    try:
        obs = Observable(m)
    except AmbiguousGroupingError:
        return
    u = np.concatenate([g.basis for g in obs.groups])
    means = np.repeat(obs.eigenvalues, [g.degeneracy for g in obs.groups])
    rebuilt = (u.T * means) @ u.conj()
    assert abs(rebuilt - m).max() <= scaled_tol(MATRIX_TOL, m)


class TestStackedGroupBases:
    """What ``Observable`` relies on without checking it: whichever solver
    ``hermitian_eigendecomposition`` stands for, the group bases, stacked,
    are orthonormal and complete, one group per distinct eigenvalue."""

    SOLVERS = {
        "lapack": lambda rng: hermitian_eigendecomposition,
        "rotated": rotated_inside_eigenspaces,
        "jacobi": lambda rng: jacobi_eigensystem,
    }

    @pytest.mark.parametrize("solver", SOLVERS)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), spectrum=st.lists(st.integers(-3, 3), min_size=1, max_size=32))
    def test_orthonormal_and_complete(self, solver, seed, spectrum):
        rng = np.random.default_rng(seed)
        m, _ = hermitian_with_spectrum(rng, spectrum)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measurement, "hermitian_eigendecomposition", self.SOLVERS[solver](rng))
            obs = Observable(m)
        levels = sorted(set(spectrum), reverse=True)
        assert obs.eigenvalues == pytest.approx(levels, abs=1e-9)
        assert [g.degeneracy for g in obs.groups] == [spectrum.count(v) for v in levels]
        u = np.concatenate([g.basis for g in obs.groups])
        eye = np.eye(len(spectrum))
        assert abs(u.conj() @ u.T - eye).max() <= UNIT_TOL
        assert abs(u.T @ u.conj() - eye).max() <= UNIT_TOL


class TestEigenGroup:
    def test_stores_a_read_only_complex_copy_of_the_basis(self):
        given = np.array([[1, 0, 0], [0, 1, 0]])
        group = EigenGroup(1.0, given)
        assert group.basis.dtype == complex
        assert group.basis.shape == (2, 3)
        assert group.degeneracy == 2
        assert not group.basis.flags.writeable
        given[0, 0] = 5
        assert group.basis[0, 0] == 1.0
        assert EigenGroup(0.0, [(0, 0, 1)]).basis.shape == (1, 3)

    @pytest.mark.parametrize("basis", [np.ones(3), np.ones((1, 1, 3)), [[np.nan, 0, 0]]])
    def test_refuses_a_basis_that_is_not_finite_rows(self, basis):
        with pytest.raises(DimensionError, match="^eigenspace basis must be a finite 2-D array of rows"):
            EigenGroup(1.0, basis)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_refuses_an_eigenvalue_outside_the_float_range(self, value):
        with pytest.raises(InvariantError, match=f"^eigenvalue {value} is outside the float range$"):
            EigenGroup(value, np.eye(3)[:1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "m", [np.diag([1.7e308, 1.7e308, 0.0]), np.full((3, 3), 1.5e308)], ids=["sum", "spectrum"]
    )
    def test_spectral_decompose_refuses_a_group_past_the_float_range(self, m):
        with pytest.raises(InvariantError, match="^eigenvalue inf is outside the float range$"):
            spectral_decompose(m)

    def test_projector_and_refinement_come_from_the_basis(self):
        s = np.sqrt(0.5)
        group = EigenGroup(1.0, [[s, s, 0], [0, 0, 1]])
        assert np.allclose(group.projector, [[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 1]], atol=1e-15)
        assert group.projector is group.projector  # computed once
        assert np.allclose(group.refinement, group.basis, atol=1e-15)


class TestLudersUpdate:
    def test_direct_measurement_keeps_outer_coherence(self):
        out = luders_update(eta_density(), spectral_decompose(C))
        assert np.allclose(out.mat, state_after_direct_c(ETA), atol=1e-12)

    def test_degenerate_measurement_keeps_block_coherence(self):
        out = luders_update(eta_density(), spectral_decompose(A))
        assert np.allclose(out.mat, state_after_a(ETA), atol=1e-12)

    def test_identity_observable_is_noop(self):
        rng = np.random.default_rng(51)
        rho = random_density(rng, 4)
        out = luders_update(rho, spectral_decompose(np.eye(4, dtype=complex)))
        assert np.allclose(out.mat, rho.mat, atol=1e-12)

    def test_matches_projector_sum_oracle(self):
        # Independent projector algebra on a spectrum we control exactly.
        rng = np.random.default_rng(52)
        vals = [2.0, 2.0, -1.0, 0.5]
        m, u = hermitian_with_spectrum(rng, vals)
        rho = random_density(rng, 4)
        projs = {
            2.0: u[:, :2] @ u[:, :2].conj().T,
            -1.0: u[:, 2:3] @ u[:, 2:3].conj().T,
            0.5: u[:, 3:] @ u[:, 3:].conj().T,
        }
        expect = sum(p @ rho.mat @ p for p in projs.values())
        out = luders_update(rho, spectral_decompose(m))
        assert np.allclose(out.mat, expect, atol=1e-9)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            luders_update(DensityMatrix(np.eye(2, dtype=complex) / 2), spectral_decompose(A))


class TestVonNeumannUpdate:
    def test_fine_grained_dephasing(self):
        out = von_neumann_update(eta_density(), spectral_decompose(C))
        assert np.allclose(out.mat, dephased(ETA), atol=1e-12)

    def test_degenerate_observable_dephases_fully(self):
        out = von_neumann_update(eta_density(), spectral_decompose(A))
        assert np.allclose(out.mat, dephased(ETA), atol=1e-12)

    def test_trivial_observable_erases_everything(self):
        rng = np.random.default_rng(61)
        rho = random_density(rng, 4)
        out = von_neumann_update(rho, spectral_decompose(np.eye(4, dtype=complex)))
        assert np.allclose(out.mat, np.eye(4) / 4, atol=1e-12)

    def test_agrees_with_luders_when_nondegenerate(self):
        rng = np.random.default_rng(62)
        for dim in (2, 3, 5):
            m, _ = hermitian_with_spectrum(rng, np.arange(dim, dtype=float))
            rho = random_density(rng, dim)
            obs = spectral_decompose(m)
            assert np.allclose(
                von_neumann_update(rho, obs).mat,
                luders_update(rho, obs).mat,
                atol=1e-10,
            )

    def test_a_refinement_dephases_in_its_own_basis(self):
        # Dephasing A's eigenspace in another basis is a measurement of a
        # nondegenerate refinement of A: two refinements leave different
        # states.
        rho = eta_density()
        rot = np.eye(3, dtype=complex)
        rot[:2, :2] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        fine = [
            von_neumann_update(rho, spectral_decompose((u * [2.0, 1.0, 0.0]) @ u.conj().T)).mat
            for u in (np.eye(3, dtype=complex), rot)
        ]
        assert np.abs(fine[0] - fine[1]).max() > 1e-3

    def test_spectral_basis_ignores_the_solver_choice(self, monkeypatch):
        # Both rules read only projectors, and the von Neumann rule derives
        # each refinement basis from its projector, so eigenvectors rotated
        # inside a degenerate eigenspace, or taken from another solver,
        # give the same update under either rule.
        rng = np.random.default_rng(63)
        m, _ = hermitian_with_spectrum(rng, np.repeat([2.0, 0.0, -1.0], 3))
        rho = random_density(rng, 9)
        obs = spectral_decompose(m)
        updates = (luders_update, von_neumann_update)
        reference = [update(rho, obs).mat for update in updates]
        for solver in (rotated_inside_eigenspaces(rng), jacobi_eigensystem):
            monkeypatch.setattr(measurement, "hermitian_eigendecomposition", solver)
            obs = spectral_decompose(m)
            for update, expected in zip(updates, reference):
                assert np.abs(update(rho, obs).mat - expected).max() <= 1e-12


class TestRefinementOnDemand:
    """Only the von Neumann rule builds refinement bases, once per group."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        build = measurement._eigenspace_basis

        def counted(projector, degeneracy):
            made.append(degeneracy)
            return build(projector, degeneracy)

        monkeypatch.setattr(measurement, "_eigenspace_basis", counted)
        clear_builtins()
        return made

    # Built inside each case: a scenario keeps its observables, and with them
    # every refinement a run has built; the fixture drops the shared built-ins.
    SCENARIOS = [lambda: builtin("qutrit-paper"), lambda: degenerate_scenario(7)]
    IDS = ["qutrit-paper", "degenerate-24-seed7"]

    @pytest.mark.parametrize("probe", [False, True])
    @pytest.mark.parametrize("make", SCENARIOS, ids=IDS)
    def test_luders_runs_build_none(self, calls, make, probe):
        run_scenario(make().with_rule(ProjectionRule.LUDERS), probe=probe)
        assert calls == []

    @pytest.mark.parametrize("probe", [False, True])
    @pytest.mark.parametrize("make", SCENARIOS, ids=IDS)
    def test_von_neumann_runs_build_one_per_group(self, calls, make, probe):
        scenario = make().with_rule(ProjectionRule.VON_NEUMANN)
        run_scenario(scenario, probe=probe)
        registry = scenario.observables
        used = {step for route in scenario.routes for step in route.steps}
        assert all(len(registry[label].groups) > 1 for label in used)
        assert sorted(calls) == sorted(g.degeneracy for label in used for g in registry[label].groups)
        calls.clear()
        run_scenario(scenario, probe=probe)
        assert calls == []

    def test_the_other_consumers_read_projectors_only(self, calls):
        obs = spectral_decompose(A)
        rho = eta_density()
        luders_update(rho, obs)
        selective_outcome(rho, obs, 0)
        interact(init_total(ETA), obs)
        assert calls == []
        von_neumann_update(rho, obs)
        von_neumann_update(rho, obs)
        assert calls == [2, 1]


class TestApplyRule:
    def test_dispatch(self):
        rho = eta_density()
        obs = spectral_decompose(A)
        assert np.array_equal(
            apply_rule(rho, obs, ProjectionRule.LUDERS).mat, luders_update(rho, obs).mat
        )
        assert np.array_equal(
            apply_rule(rho, obs, ProjectionRule.VON_NEUMANN).mat,
            von_neumann_update(rho, obs).mat,
        )

    @pytest.mark.parametrize("rule", ["luders", "nonsense", None])
    def test_refuses_anything_but_a_rule(self, rule):
        # Accepted, a string would fall through to the von Neumann update.
        with pytest.raises(TypeError, match="^rule must be a ProjectionRule, got "):
            apply_rule(eta_density(), spectral_decompose(A), rule)

    def test_rule_parsing(self):
        assert ProjectionRule.from_name("luders") is ProjectionRule.LUDERS
        assert ProjectionRule.from_name("von-neumann") is ProjectionRule.VON_NEUMANN
        with pytest.raises(ValueError):
            ProjectionRule.from_name("projective")


class TestSelectiveOutcome:
    def test_outcome_probability_and_state(self):
        prob, post = selective_outcome(eta_density(), spectral_decompose(C), 0)
        assert prob == pytest.approx(abs(ETA[1]) ** 2, abs=1e-12)
        assert np.allclose(post.mat, np.diag([0, 1, 0]), atol=1e-12)

    def test_degenerate_outcome_renormalizes_block(self):
        prob, post = selective_outcome(eta_density(), spectral_decompose(A), 0)
        p = abs(ETA[0]) ** 2 + abs(ETA[1]) ** 2
        assert prob == pytest.approx(p, abs=1e-12)
        expect = np.zeros((3, 3), dtype=complex)
        expect[:2, :2] = np.outer(ETA[:2], ETA[:2].conj()) / p
        assert np.allclose(post.mat, expect, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(71)
        m, _ = hermitian_with_spectrum(rng, [1.0, 1.0, 2.0, -1.0])
        rho = random_density(rng, 4)
        obs = spectral_decompose(m)
        total = sum(
            selective_outcome(rho, obs, k, post_state=False)[0]
            for k in range(len(obs.groups))
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_without_state_request(self):
        phi3 = DensityMatrix.pure(np.array([0, 0, 1], dtype=complex))
        prob, post = selective_outcome(phi3, spectral_decompose(A), 0, post_state=False)
        assert prob == pytest.approx(0.0, abs=1e-15)
        assert post is None

    def test_zero_probability_state_request_raises(self):
        phi3 = DensityMatrix.pure(np.array([0, 0, 1], dtype=complex))
        with pytest.raises(ZeroProbabilityError):
            selective_outcome(phi3, spectral_decompose(A), 0)

    def test_bad_group_index(self):
        with pytest.raises(IndexError):
            selective_outcome(eta_density(), spectral_decompose(A), 5)


class TestUpdateInvariants:
    """Randomized physical invariants, shared by both update rules."""

    CASES = 30

    def _random_observable(self, rng, dim):
        # Mix of degenerate and simple spectra, gaps far from the tolerance band.
        vals = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=dim)
        m, _ = hermitian_with_spectrum(rng, vals)
        return spectral_decompose(m)

    @pytest.mark.parametrize("rule", list(ProjectionRule))
    def test_trace_preserved(self, rule):
        rng = np.random.default_rng(81)
        for _ in range(self.CASES):
            dim = int(rng.integers(2, 7))
            out = apply_rule(random_density(rng, dim), self._random_observable(rng, dim), rule)
            assert abs(np.trace(out.mat) - 1.0) <= 1e-10

    @pytest.mark.parametrize("rule", list(ProjectionRule))
    def test_positivity_preserved(self, rule):
        rng = np.random.default_rng(82)
        for _ in range(self.CASES):
            dim = int(rng.integers(2, 7))
            out = apply_rule(random_density(rng, dim), self._random_observable(rng, dim), rule)
            assert np.linalg.eigvalsh(out.mat).min() >= -1e-10

    def test_luders_idempotent(self):
        rng = np.random.default_rng(83)
        for _ in range(self.CASES):
            dim = int(rng.integers(2, 7))
            obs = self._random_observable(rng, dim)
            once = luders_update(random_density(rng, dim), obs)
            twice = luders_update(once, obs)
            assert np.abs(twice.mat - once.mat).max() <= 1e-10

    @pytest.mark.parametrize("rule", list(ProjectionRule))
    def test_outcome_statistics_unchanged(self, rule):
        rng = np.random.default_rng(84)
        for _ in range(self.CASES):
            dim = int(rng.integers(2, 7))
            rho = random_density(rng, dim)
            obs = self._random_observable(rng, dim)
            out = apply_rule(rho, obs, rule)
            for g in obs.groups:
                before = np.trace(g.projector @ rho.mat).real
                after = np.trace(g.projector @ out.mat).real
                assert abs(before - after) <= 1e-10
