import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dephased,
    hermitian_with_spectrum,
    oracle_trace_distance,
    random_state,
    random_unitary,
    state_after_direct_c,
)
from qroutes import (
    DensityMatrix,
    NonCommutingError,
    ProjectionRule,
    Route,
    RouteTargetWarning,
    Scenario,
    UnknownLabelError,
    ValidationError,
    Verdict,
    builtin,
    commutes,
    compare_routes,
    counterexample_basis,
    product_observable,
    run_route,
    run_scenario,
    spectral_decompose,
    trace_distance,
)

SQ3 = np.sqrt(3.0)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

A = spectral_decompose(np.diag([1, 1, 0]).astype(complex))
B = spectral_decompose(np.diag([0, 1, 1]).astype(complex))
C = spectral_decompose(np.diag([0, 1, 0]).astype(complex))
REGISTRY = {"A": A, "B": B, "C": C}

ETA = np.array([0.6, 0.48j, -0.64], dtype=complex)


def qutrit_scenario(state=None):
    return builtin("qutrit-paper", state=state)


class TestCommutes:
    def test_diagonal_pair(self):
        assert commutes(A, B)
        assert commutes(A, C)

    def test_separated_tensor_factors(self):
        m1 = spectral_decompose(np.kron(SIGMA_X, np.eye(2)))
        m2 = spectral_decompose(np.kron(np.eye(2), SIGMA_Y))
        assert commutes(m1, m2)

    def test_pauli_pair_does_not_commute(self):
        x = spectral_decompose(SIGMA_X)
        y = spectral_decompose(SIGMA_Y)
        assert not commutes(x, y)

    def test_dimension_mismatch(self):
        from qroutes import DimensionError

        with pytest.raises(DimensionError):
            commutes(A, spectral_decompose(SIGMA_X))


class TestProductObservable:
    def test_product_of_degenerate_projectors(self):
        prod = product_observable(A, B)
        assert np.allclose(prod.matrix, C.matrix, atol=1e-12)
        assert prod.eigenvalues == pytest.approx([1.0, 0.0], abs=1e-10)

    def test_pauli_tensor_product(self):
        m1 = spectral_decompose(np.kron(SIGMA_X, np.eye(2)))
        m2 = spectral_decompose(np.kron(np.eye(2), SIGMA_Y))
        prod = product_observable(m1, m2)
        assert np.allclose(prod.matrix, np.kron(SIGMA_X, SIGMA_Y), atol=1e-12)

    def test_counterexample_product_spectrum(self):
        scen = builtin("nondegenerate-counterexample")
        reg = scen.observables
        prod = product_observable(reg["D1"], reg["D2"])
        assert np.allclose(prod.matrix, reg["D3"].matrix, atol=1e-10)
        assert prod.eigenvalues == pytest.approx([3 + SQ3, 3 - SQ3, 0.0], abs=1e-9)

    def test_noncommuting_pair_rejected(self):
        with pytest.raises(NonCommutingError):
            product_observable(spectral_decompose(SIGMA_X), spectral_decompose(SIGMA_Y))


class TestRunRoute:
    def test_direct_route(self):
        out = run_route(DensityMatrix.pure(ETA), Route(steps=("C",)), REGISTRY)
        assert np.allclose(out.mat, state_after_direct_c(ETA), atol=1e-12)

    def test_sequential_route_dephases(self):
        out = run_route(DensityMatrix.pure(ETA), Route(steps=("A", "B")), REGISTRY)
        assert np.allclose(out.mat, dephased(ETA), atol=1e-12)

    def test_sequential_route_order_does_not_matter_here(self):
        rho = DensityMatrix.pure(ETA)
        ab = run_route(rho, Route(steps=("A", "B")), REGISTRY)
        ba = run_route(rho, Route(steps=("B", "A")), REGISTRY)
        assert np.abs(ab.mat - ba.mat).max() <= 1e-10

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            run_route(DensityMatrix.pure(ETA), Route(steps=("A", "X")), REGISTRY)

    def test_route_requires_steps(self):
        with pytest.raises(ValueError):
            Route(steps=())

    @pytest.mark.parametrize(
        "steps, shown", [("M3", "'M3'"), (("M1", 2), "('M1', 2)"), ([None], "(None,)"), (5, "5"), (None, "None")]
    )
    def test_route_refuses_steps_that_are_not_labels(self, steps, shown):
        # A string is a sequence of one-character labels; it is refused, not split.
        # Steps that are not iterable at all draw the same message.
        message = f"route steps must be a sequence of labels, got {shown}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            Route(steps)

    @pytest.mark.parametrize("rule", ["luders", "von-neumann", None])
    def test_route_refuses_a_rule_that_is_not_a_projection_rule(self, rule):
        # Accepted, Route(steps, "luders") would run the von Neumann update.
        message = f"route rule must be a ProjectionRule, got {rule!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            Route(("A",), rule)
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(Route(("A",)), rule=rule)

    @pytest.mark.parametrize("name", [5, None, b"AB"])
    def test_route_refuses_a_name_that_is_not_a_string(self, name):
        # A scenario file's route name is refused with this message, as "routes[i]: ...".
        message = f"route name must be a string, got {name!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            Route(("A",), name=name)

    def test_route_takes_any_iterable_of_labels(self):
        assert Route(label for label in ("A", "B")).steps == ("A", "B")

    def test_display_name(self):
        assert Route(steps=("A", "B")).display_name == "A+B"
        assert Route(steps=("A", "B"), name="seq").display_name == "seq"


class TestCompareRoutes:
    def test_degenerate_routes_are_distinct(self):
        amp = 1 / np.sqrt(2)
        scen = qutrit_scenario(state=np.array([amp, 0, amp], dtype=complex))
        report = compare_routes(
            scen.initial_density(), scen.routes, scen.observables, scen.target
        )
        assert report.verdict(0, 1) is Verdict.DISTINCT
        assert report.verdict(0, 2) is Verdict.DISTINCT
        assert report.verdict(1, 2) is Verdict.EQUAL
        assert report.pairwise_trace_distance[0, 1] == pytest.approx(0.5, abs=1e-9)
        assert not report.all_equal

    def test_distance_matches_amplitude_product(self):
        rng = np.random.default_rng(91)
        for _ in range(5):
            eta = random_state(rng, 3)
            scen = qutrit_scenario(state=eta)
            report = compare_routes(
                scen.initial_density(), scen.routes, scen.observables, scen.target
            )
            expect = abs(eta[0]) * abs(eta[2])
            assert report.pairwise_trace_distance[0, 1] == pytest.approx(expect, abs=1e-10)
            # Cross-check against an eigensolver-independent reference.
            oracle = oracle_trace_distance(
                report.final_states[0].mat, report.final_states[1].mat
            )
            assert report.pairwise_trace_distance[0, 1] == pytest.approx(oracle, abs=1e-11)

    def test_von_neumann_rule_collapses_all_routes(self):
        scen = qutrit_scenario(state=ETA).with_rule(ProjectionRule.VON_NEUMANN)
        report = compare_routes(
            scen.initial_density(), scen.routes, scen.observables, scen.target
        )
        assert report.all_equal
        for state in report.final_states:
            assert np.allclose(state.mat, dephased(ETA), atol=1e-10)

    def test_nondegenerate_routes_coincide(self):
        rng = np.random.default_rng(92)
        scen = builtin("nondegenerate-counterexample", state=random_state(rng, 3))
        report = compare_routes(
            scen.initial_density(), scen.routes, scen.observables, scen.target
        )
        assert report.all_equal
        assert report.pairwise_trace_distance.max() <= 1e-9

    def test_statistics_agree_across_routes(self):
        # The final target-outcome distribution cannot tell the routes apart
        # even when the final states can.
        scen = qutrit_scenario(state=ETA)
        report = compare_routes(
            scen.initial_density(), scen.routes, scen.observables, scen.target
        )
        stats = report.final_observable_statistics
        assert len(stats) == 3
        for per_route in stats[1:]:
            assert per_route == pytest.approx(stats[0], abs=1e-10)
        assert stats[0][0] == pytest.approx(abs(ETA[1]) ** 2, abs=1e-12)

    def test_difference_is_a_pure_coherence_block(self):
        eta = ETA
        scen = qutrit_scenario(state=eta)
        report = compare_routes(
            scen.initial_density(), scen.routes, scen.observables, scen.target
        )
        diff = report.final_states[0].mat - report.final_states[1].mat
        expect = np.zeros((3, 3), dtype=complex)
        expect[0, 2] = eta[0] * np.conj(eta[2])
        expect[2, 0] = eta[2] * np.conj(eta[0])
        assert np.abs(diff - expect).max() <= 1e-12

    def test_report_matrix_shape_and_symmetry(self):
        scen = qutrit_scenario(state=ETA)
        report = compare_routes(
            scen.initial_density(), scen.routes, scen.observables, scen.target
        )
        d = report.pairwise_trace_distance
        assert d.shape == (3, 3)
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diag(d), np.zeros(3))
        for i in range(3):
            assert report.verdict(i, i) is Verdict.EQUAL

    def test_common_eigenbasis_routes_always_agree(self):
        # Non-degenerate commuting observables: any measurement order and
        # the direct product route end in the same fully dephased state.
        rng = np.random.default_rng(93)
        for dim in (3, 4, 5):
            u = random_unitary(rng, dim)
            spec1 = np.arange(1, dim + 1, dtype=float)
            spec2 = np.array([(-1.0) ** k * (k + 2) for k in range(dim)])
            o1 = spectral_decompose(u @ np.diag(spec1).astype(complex) @ u.conj().T)
            o2 = spectral_decompose(u @ np.diag(spec2).astype(complex) @ u.conj().T)
            prod = product_observable(o1, o2)
            if len(prod.groups) < dim:
                continue  # products with clashing eigenvalues are not informative here
            registry = {"O1": o1, "O2": o2, "T": prod}
            rho = DensityMatrix.pure(random_state(rng, dim))
            routes = (
                Route(steps=("T",), name="direct"),
                Route(steps=("O1", "O2"), name="fwd"),
                Route(steps=("O2", "O1"), name="rev"),
            )
            report = compare_routes(rho, routes, registry, "T")
            assert report.all_equal
            assert report.pairwise_trace_distance.max() <= 1e-10

    def test_target_unrelated_to_route_warns(self):
        rho = DensityMatrix.pure(ETA)
        routes = (Route(steps=("A",)), Route(steps=("B",)))
        # one warning per route, each naming the target by its registry key
        message = r"^route '[AB]': target 'C' is neither the last step nor the product of the steps$"
        with pytest.warns(RouteTargetWarning, match=message) as record:
            compare_routes(rho, routes, REGISTRY, "C")
        assert len(record) == 2

    def test_route_ending_in_the_target_key_does_not_warn(self):
        # B·A is not A, so only the last step, read by its key, makes B+A a route to A.
        import warnings

        routes = (Route(("A",)), Route(("B", "A")))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RouteTargetWarning)
            compare_routes(DensityMatrix.pure(ETA), routes, REGISTRY, "A")

    def test_builtin_routes_do_not_warn(self):
        import warnings

        scen = qutrit_scenario(state=ETA)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RouteTargetWarning)
            compare_routes(
                scen.initial_density(), scen.routes, scen.observables, scen.target
            )

    @pytest.mark.parametrize(
        "tol, message",
        [
            (float("nan"), "tolerance: must be positive, got nan"),
            (-1, "tolerance: must be positive, got -1"),
            (0, "tolerance: must be positive, got 0"),
            (float("inf"), "tolerance: must be finite, got inf"),
            ("x", "tolerance: expected number, got str"),
            (True, "tolerance: expected number, got bool"),
            (None, "tolerance: expected number, got NoneType"),
            (np.float32(0.5), "tolerance: expected number, got float32"),
            pytest.param(10**400, "tolerance: number out of float range", id="int-past-float-range"),
        ],
    )
    def test_refuses_a_tolerance_a_scenario_refuses(self, tol, message):
        # Each would break the report's zero diagonal: nan and tol < 0 make a
        # route DISTINCT from itself. The text is the scenario's violation.
        scen = builtin("qutrit-paper")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compare_routes(scen.initial_density(), scen.routes, scen.observables, scen.target, tol)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(scen, tolerance=tol)

    def test_needs_at_least_two_routes(self):
        with pytest.raises(ValueError):
            compare_routes(DensityMatrix.pure(ETA), (Route(steps=("C",)),), REGISTRY, "C")

    def test_unknown_step_raises_before_any_target_warning(self):
        import warnings

        routes = (Route(steps=("C",)), Route(steps=("A", "X")))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RouteTargetWarning)
            with pytest.raises(UnknownLabelError, match="route step 'X' is not a registered"):
                compare_routes(DensityMatrix.pure(ETA), routes, REGISTRY, "C")


class TestCounterexampleGeometry:
    def test_direction_vectors_are_orthonormal(self):
        basis = np.column_stack(counterexample_basis())
        gram = basis.conj().T @ basis
        assert np.allclose(gram, np.eye(3), atol=1e-12)

    def test_every_route_yields_the_same_mixture(self):
        rng = np.random.default_rng(94)
        scen = builtin("nondegenerate-counterexample")
        basis = np.column_stack(counterexample_basis())
        for _ in range(5):
            amps = random_state(rng, 3)
            vec = basis @ amps  # state with amplitudes along the shared eigenbasis
            report = compare_routes(
                DensityMatrix.pure(vec),
                scen.routes,
                scen.observables,
                scen.target,
            )
            expect = sum(
                abs(amps[k]) ** 2 * np.outer(basis[:, k], basis[:, k].conj())
                for k in range(3)
            )
            for state in report.final_states:
                assert np.abs(state.mat - expect).max() <= 1e-10


def in_frame(scenario, v):
    """``scenario`` written in other coordinates: its state and every
    observable conjugated by the unitary ``v``."""
    return dataclasses.replace(
        scenario,
        initial_state=v @ scenario.initial_state,
        observables={k: v @ o.matrix @ v.conj().T for k, o in scenario.observables.items()},
    )


@st.composite
def commuting_scenarios(draw):
    """A generator and a scenario of commuting A, B and C = AB, dims 3 to 12,
    diagonal in one random basis, each spectrum integer and degenerate (at
    most dim // 2 + 1 values on dim entries); its routes are C, AB and BA."""
    dim = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = random_unitary(rng, dim)
    a, b = (rng.integers(-1, dim // 2, size=dim).astype(complex) for _ in range(2))
    scenario = Scenario(
        name=f"commuting-{dim}",
        system_dim=dim,
        initial_state=random_state(rng, dim),
        observables={"A": (u * a) @ u.conj().T, "B": (u * b) @ u.conj().T, "C": (u * (a * b)) @ u.conj().T},
        routes=(Route(("C",), name="C"), Route(("A", "B"), name="AB"), Route(("B", "A"), name="BA")),
        target="C",
    )
    return rng, scenario


class TestLudersIgnoresTheFrame:
    """Lueders reads only projectors, so no rewriting of the same physical
    situation moves a distance or a verdict: not other coordinates, not
    another order of the basis states, not an affine relabelling of the
    outcomes, not another order of the routes."""

    @staticmethod
    def assert_same(report, reference, order=(0, 1, 2)):
        dist = reference.pairwise_trace_distance[np.ix_(order, order)]
        assert np.abs(report.pairwise_trace_distance - dist).max() <= 1e-12
        assert report.verdicts == tuple(tuple(reference.verdicts[i][j] for j in order) for i in order)

    @settings(max_examples=100, deadline=None)
    @given(case=commuting_scenarios())
    def test_every_distance_and_verdict_stays(self, case):
        rng, scenario = case
        dim = scenario.system_dim
        reference = run_scenario(scenario).comparison
        for v in (random_unitary(rng, dim), np.eye(dim)[rng.permutation(dim)]):
            self.assert_same(run_scenario(in_frame(scenario, v)).comparison, reference)
        relabelled = {
            k: rng.uniform(1, 4) * o.matrix + rng.uniform(-3, 3) * np.eye(dim)
            for k, o in scenario.observables.items()
        }
        with pytest.warns(RouteTargetWarning):  # A·B is not C any more
            report = run_scenario(dataclasses.replace(scenario, observables=relabelled)).comparison
        self.assert_same(report, reference)
        order = tuple(rng.permutation(3).tolist())
        reordered = dataclasses.replace(scenario, routes=tuple(scenario.routes[i] for i in order))
        self.assert_same(run_scenario(reordered).comparison, reference, order)


def test_von_neumann_distance_follows_the_frame():
    # Pins today's rule: the von Neumann refinement follows the basis and
    # index order the matrices are written in, so the same qutrit written
    # in other coordinates leaves C and AB apart.
    qutrit = builtin("qutrit-paper")
    turned = in_frame(qutrit, random_unitary(np.random.default_rng(0), 3))
    for rule, before, after in ((ProjectionRule.LUDERS, 1 / 3, 1 / 3), (ProjectionRule.VON_NEUMANN, 0.0, 0.1469)):
        distances = [run_scenario(s.with_rule(rule)).comparison.pairwise_trace_distance[0, 1] for s in (qutrit, turned)]
        assert distances == pytest.approx([before, after], abs=1e-4)
