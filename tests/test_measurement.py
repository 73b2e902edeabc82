import dataclasses
import re

import numpy as np
import pytest

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

A = np.diag([1, 1, 0]).astype(complex)
B = np.diag([0, 1, 1]).astype(complex)
C = np.diag([0, 1, 0]).astype(complex)

ETA = np.array([0.6, 0.48j, -0.64], dtype=complex)  # |0.6|^2+|0.48|^2+|0.64|^2 = 1


def eta_density():
    return DensityMatrix.pure(ETA)


class TestSpectralDecompose:
    def test_degenerate_projector_split(self):
        obs = spectral_decompose(A, label="A")
        assert obs.eigenvalues == pytest.approx([1.0, 0.0], abs=1e-12)
        assert [g.degeneracy for g in obs.groups] == [2, 1]
        assert np.allclose(obs.groups[0].projector, np.diag([1, 1, 0]), atol=1e-12)
        assert np.allclose(obs.groups[1].projector, np.diag([0, 0, 1]), atol=1e-12)
        assert obs.label == "A"

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

    def test_custom_tolerance_shifts_band(self):
        m = np.diag([0.0, 1.5e-10]).astype(complex)
        assert len(spectral_decompose(m, group_tol=1e-9).groups) == 1
        assert len(spectral_decompose(m, group_tol=1e-11).groups) == 2

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

    def test_merging_a_wide_real_gap_is_rejected(self):
        # Gaps below group_tol but far above eigensolver noise cannot be
        # absorbed into one group without breaking spectral reconstruction.
        with pytest.raises(ValueError, match="grouping may be too coarse"):
            spectral_decompose(np.diag([0.0, 5e-9]).astype(complex))


class TestObservableValidation:
    def test_rejects_unsorted_groups(self):
        good = spectral_decompose(A)
        with pytest.raises(ValueError):
            Observable(matrix=good.matrix, groups=tuple(reversed(good.groups)))

    def test_rejects_incomplete_groups(self):
        good = spectral_decompose(A)
        with pytest.raises(ValueError):
            Observable(matrix=good.matrix, groups=good.groups[:1])

    def test_rejects_mismatched_matrix(self):
        good = spectral_decompose(A)
        with pytest.raises(ValueError):
            Observable(matrix=B, groups=good.groups)

    def test_stores_a_read_only_copy_of_the_matrix(self):
        as_list = [[1, 0], [0, 0]]
        groups = spectral_decompose(as_list).groups
        assert Observable(matrix=as_list, groups=groups).dim == 2
        given = np.diag([1.0, 0.0]).astype(complex)
        obs = Observable(matrix=given, groups=groups)
        assert not obs.matrix.flags.writeable
        assert given.flags.writeable
        given[0, 0] = 5.0
        assert obs.matrix[0, 0] == 1.0


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

    def test_projector_and_refinement_come_from_the_basis(self):
        s = np.sqrt(0.5)
        group = EigenGroup(1.0, [[s, s, 0], [0, 0, 1]])
        assert np.allclose(group.projector, [[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 1]], atol=1e-15)
        assert group.projector is group.projector  # computed once
        assert np.allclose(group.refinement, group.basis, atol=1e-15)


E = np.eye(3, dtype=complex)
W = np.exp(-2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)  # unitary DFT


def _good_groups():
    return [EigenGroup(1.0, E[:2]), EigenGroup(0.0, E[2:])]


def _rank_one_groups(u):
    return [EigenGroup(v, row[None]) for v, row in zip((2.0, 1.0, 0.0), u)]


def _empty_middle_group():
    # Degeneracies 2 + 0 + 1 sum to the dimension, but no state has eigenvalue 0.5.
    return [EigenGroup(1.0, E[:2]), EigenGroup(0.5, np.zeros((0, 3))), EigenGroup(0.0, E[2:])]


def _overlapping_groups():
    # Orthonormal rows within each group, but e0 sits in both groups.
    return [EigenGroup(1.0, E[:1]), EigenGroup(0.0, E[:2])]


def _projectors_off_identity():
    # The DFT basis with its first column stretched by 2.7e-10 in norm^2:
    # its rows are orthonormal to 0.9e-10, their projectors miss the
    # identity by 2.7e-10.
    return _rank_one_groups(W * [np.sqrt(1 + 2.7e-10), 1, 1])


class TestObservableMessages:
    """Every invariant check of ``Observable`` with its exact message."""

    @pytest.mark.parametrize(
        "make_groups, matrix, message",
        [
            (lambda: [], A, "observable needs at least one eigenvalue group"),
            (lambda: [EigenGroup(1.0, E)], np.eye(4), "basis rows have length 3, the matrix dimension is 4"),
            (lambda: _good_groups()[::-1], A, "group eigenvalues must strictly decrease, got [0.0, 1.0]"),
            (_empty_middle_group, A, "eigenvalue 0.5 has an empty eigenspace basis"),
            (lambda: _good_groups()[:1], A, "group degeneracies must sum to the dimension"),
            (_overlapping_groups, A, "eigenbasis is not orthonormal"),
            (_projectors_off_identity, np.diag([2, 1, 0]).astype(complex), "eigenspace projectors do not sum to the identity"),
            (_good_groups, B, "groups do not reconstruct the observable matrix; the eigenvalue grouping may be too coarse"),
        ],
        ids=[
            "empty", "row-length", "unsorted", "empty-group", "degeneracy-sum", "orthonormality", "completeness", "reconstruction",
        ],
    )
    def test_message(self, make_groups, matrix, message):
        with pytest.raises(InvariantError, match=f"^{re.escape(message)}$") as caught:
            Observable(matrix=matrix, groups=tuple(make_groups()))
        assert isinstance(caught.value, ValueError)

    def test_good_groups_pass(self):
        obs = Observable(matrix=A, groups=tuple(_good_groups()))
        assert obs.eigenvalues == (1.0, 0.0)

    def test_just_inside_every_threshold_passes(self):
        # The first basis row 0.9e-10 longer in norm^2: orthonormality and
        # completeness are 0.9e-10 off, and so is reconstruction against a
        # matrix 1.8e-10 off A. Their thresholds stay at 1e-10.
        stretched = E * [[np.sqrt(1 + 0.9e-10)], [1], [1]]
        groups = (EigenGroup(1.0, stretched[:2]), EigenGroup(0.0, stretched[2:]))
        Observable(matrix=np.diag([1 + 1.8e-10, 1, 0]), groups=groups)
        # The DFT basis stretched as in the completeness case, 0.9e-10 in
        # norm^2 instead of 2.7e-10.
        rows = W * [np.sqrt(1 + 0.9e-10), 1, 1]
        Observable(matrix=(rows.T * [2.0, 1.0, 0.0]) @ rows.conj(), groups=tuple(_rank_one_groups(rows)))


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

    def test_depends_on_stored_basis(self):
        # Rotating the stored basis inside the degenerate eigenspace of A
        # moves neither rule: both read only the projectors.
        rho = eta_density()
        canonical = spectral_decompose(A)
        rot = np.eye(3, dtype=complex)
        rot[:2, :2] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        groups = list(canonical.groups)
        groups[0] = dataclasses.replace(groups[0], basis=groups[0].basis @ rot.T)
        rotated = Observable(matrix=A, groups=tuple(groups))
        for update in (luders_update, von_neumann_update):
            assert np.abs(update(rho, canonical).mat - update(rho, rotated).mat).max() <= 1e-12
        # Dephasing A's eigenspace in another basis is a measurement of a
        # nondegenerate refinement of A. Two refinements leave different
        # states, while Lueders on A built from either eigenbasis cannot
        # tell them apart.
        fine = []
        coarse = []
        for u in (np.eye(3, dtype=complex), rot):
            refined = spectral_decompose((u * [2.0, 1.0, 0.0]) @ u.conj().T)
            fine.append(von_neumann_update(rho, refined).mat)
            degenerate = Observable(A, (EigenGroup(1.0, u.T[:2]), EigenGroup(0.0, u.T[2:])))
            coarse.append(luders_update(rho, degenerate).mat)
        assert np.abs(fine[0] - fine[1]).max() > 1e-3
        assert np.abs(coarse[0] - coarse[1]).max() <= 1e-12

    def test_spectral_basis_ignores_the_solver_choice(self, monkeypatch):
        # spectral_decompose derives each group's basis from its projector,
        # so eigenvectors rotated inside a degenerate eigenspace, or taken
        # from another solver, give the same fine-grained update.
        rng = np.random.default_rng(63)
        m, _ = hermitian_with_spectrum(rng, np.repeat([2.0, 0.0, -1.0], 3))
        rho = random_density(rng, 9)
        reference = von_neumann_update(rho, spectral_decompose(m))

        def rotated_eigh(mat, tol=1e-10):
            vals, vecs = hermitian_eigendecomposition(mat, tol)
            for start in (0, 3, 6):
                vecs[:, start:start + 3] = vecs[:, start:start + 3] @ random_unitary(rng, 3)
            return vals, vecs

        for solver in (rotated_eigh, lambda mat, tol=1e-10: jacobi_eigensystem(mat)):
            monkeypatch.setattr(measurement, "hermitian_eigendecomposition", solver)
            out = von_neumann_update(rho, spectral_decompose(m))
            assert np.abs(out.mat - reference.mat).max() <= 1e-12


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
