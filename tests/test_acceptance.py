"""End-to-end acceptance gate.

Each test covers one acceptance criterion at its stated tolerance and
prints exactly one PASS/FAIL line (visible with ``pytest -s``, or in the
captured output section of a failing run). Reference values are computed
in-test from projector algebra, numpy's eigensolver and a pure-Python
Jacobi eigensolver (``helpers.jacobi_eigensystem``), independently of the
package internals they certify.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    dephased,
    hermitian_with_spectrum,
    jacobi_trace_distance,
    oracle_trace_distance,
    random_density,
    random_state,
    random_unitary,
    state_after_a,
    state_after_direct_c,
)
from qroutes import (
    DensityMatrix,
    ProjectionRule,
    Route,
    apply_rule,
    builtin,
    compare_routes,
    counterexample_basis,
    init_total,
    interact,
    luders_update,
    probe_signal_distribution,
    product_observable,
    reduced_system_state,
    run_route,
    selective_outcome,
    spectral_decompose,
    trace_distance,
    von_neumann_update,
)

SQ3 = np.sqrt(3.0)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {title}: FAIL")
        raise
    print(f"[criterion {number}] {title}: PASS")


def qutrit_parts(state):
    scen = builtin("qutrit-paper", state=state)
    return scen.initial_density(), scen.routes, scen.observables, scen.target


def sample_amplitudes(rng, n=10):
    return [random_state(rng, 3) for _ in range(n)]


def test_criterion_1_direct_route_reproduces_analytic_update():
    with criterion(1, "direct route matches the analytic final state"):
        rng = np.random.default_rng(2026)
        start = time.perf_counter()
        for amp in sample_amplitudes(rng):
            rho, routes, registry, _ = qutrit_parts(amp)
            out = run_route(rho, routes[0], registry)
            assert np.abs(out.mat - state_after_direct_c(amp)).max() <= 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_2_sequential_routes_reproduce_analytic_updates():
    with criterion(2, "sequential routes match the analytic final states"):
        rng = np.random.default_rng(2027)
        for amp in sample_amplitudes(rng):
            rho, routes, registry, _ = qutrit_parts(amp)
            first_only = run_route(rho, Route(steps=("A",)), registry)
            assert np.abs(first_only.mat - state_after_a(amp)).max() <= 1e-10
            for route in routes[1:]:  # ("A","B") and ("B","A")
                out = run_route(rho, route, registry)
                assert np.abs(out.mat - dephased(amp)).max() <= 1e-10


def test_criterion_3_routes_are_distinguishable_by_trace_distance():
    with criterion(3, "trace distance between routes equals |amp0 x amp2|"):
        rng = np.random.default_rng(2028)
        for amp in sample_amplitudes(rng):
            rho, routes, registry, target = qutrit_parts(amp)
            report = compare_routes(rho, routes, registry, target)
            d = report.pairwise_trace_distance[0, 1]
            assert d == pytest.approx(abs(amp[0]) * abs(amp[2]), abs=1e-9)
            oracle = oracle_trace_distance(
                report.final_states[0].mat, report.final_states[1].mat
            )
            assert d == pytest.approx(oracle, abs=1e-9)
        balanced = np.array([1, 0, 1], dtype=complex) / np.sqrt(2)
        rho, routes, registry, target = qutrit_parts(balanced)
        report = compare_routes(rho, routes, registry, target)
        assert report.pairwise_trace_distance[0, 1] == pytest.approx(0.5, abs=1e-9)


def test_criterion_4_von_neumann_rule_erases_the_route_difference():
    with criterion(4, "fine-grained rule makes every route end dephased"):
        rng = np.random.default_rng(2029)
        for amp in sample_amplitudes(rng):
            scen = builtin("qutrit-paper", state=amp).with_rule(ProjectionRule.VON_NEUMANN)
            registry = scen.observables
            for route in scen.routes:
                out = run_route(scen.initial_density(), route, registry)
                assert np.abs(out.mat - dephased(amp)).max() <= 1e-10


def test_criterion_5_nondegenerate_observables_do_not_discriminate():
    with criterion(5, "non-degenerate routes coincide and match the mixture"):
        rng = np.random.default_rng(2030)
        scen = builtin("nondegenerate-counterexample")
        basis = np.column_stack(counterexample_basis())
        registry = scen.observables
        for _ in range(10):
            amps = random_state(rng, 3)
            rho = DensityMatrix.pure(basis @ amps)
            report = compare_routes(rho, scen.routes, registry, scen.target)
            assert report.pairwise_trace_distance.max() <= 1e-9
            mixture = sum(
                abs(amps[k]) ** 2 * np.outer(basis[:, k], basis[:, k].conj())
                for k in range(3)
            )
            for state in report.final_states:
                assert np.abs(state.mat - mixture).max() <= 1e-9
        prod = product_observable(registry["D1"], registry["D2"])
        assert prod.eigenvalues == pytest.approx([3 + SQ3, 3 - SQ3, 0.0], abs=1e-9)


def test_criterion_6_pointer_registers_reproduce_the_system_picture():
    with criterion(6, "register model agrees with the system-only updates"):
        rng = np.random.default_rng(2031)
        # Qutrit routes, including the readout distributions.
        amp = random_state(rng, 3)
        rho, routes, registry, _ = qutrit_parts(amp)
        expectations = {
            ("A", "B"): {"10": abs(amp[0]) ** 2, "11": abs(amp[1]) ** 2,
                         "01": abs(amp[2]) ** 2, "00": 0.0},
            ("B", "A"): {"01": abs(amp[0]) ** 2, "11": abs(amp[1]) ** 2,
                         "10": abs(amp[2]) ** 2, "00": 0.0},
            ("C",): {"1": abs(amp[1]) ** 2, "0": abs(amp[0]) ** 2 + abs(amp[2]) ** 2},
        }
        for route in routes:
            total = init_total(amp)
            for label in route.steps:
                total = interact(total, registry[label])
            reduced = reduced_system_state(total)
            reference = run_route(rho, route, registry)
            assert np.abs(reduced.mat - reference.mat).max() <= 1e-10
            signals = probe_signal_distribution(total)
            expected = expectations[route.steps]
            assert set(signals) == set(expected)
            for label, p in expected.items():
                assert signals[label] == pytest.approx(p, abs=1e-10)
        # Random observable pairs across small dimensions.
        for k in range(5):
            dim = 2 + k % 3
            state = random_state(rng, dim)
            pair = {}
            for name in ("O1", "O2"):
                vals = rng.choice([-1.0, 0.0, 1.0, 2.0], size=dim)
                m, _ = hermitian_with_spectrum(rng, vals)
                pair[name] = spectral_decompose(m)
            total = init_total(state)
            for name in ("O1", "O2"):
                total = interact(total, pair[name])
            reference = run_route(
                DensityMatrix.pure(state), Route(steps=("O1", "O2")), pair
            )
            assert np.abs(reduced_system_state(total).mat - reference.mat).max() <= 1e-10


def test_criterion_7_two_qubit_routes_stay_far_apart():
    with criterion(7, "two-qubit route distance is large and pinned"):
        scen = builtin("two-qubit-rafasala")
        report = compare_routes(
            scen.initial_density(), scen.routes, scen.observables, scen.target
        )
        d = report.pairwise_trace_distance[0, 1]
        assert d > 0.1
        # Regression pin: the exact value for the default entangled state,
        # checked against two eigensolvers that share no code with each other.
        assert d == pytest.approx(0.5, abs=1e-9)
        finals = [state.mat for state in report.final_states[:2]]
        assert d == pytest.approx(oracle_trace_distance(*finals), abs=1e-12)
        assert d == pytest.approx(jacobi_trace_distance(*finals), abs=1e-12)


def test_criterion_8_identity_measurement_contrast():
    with criterion(8, "identity observable: coarse no-op vs full erasure"):
        rng = np.random.default_rng(2032)
        for dim in range(2, 7):
            identity = spectral_decompose(np.eye(dim, dtype=complex))
            for _ in range(5):
                rho = random_density(rng, dim)
                kept = luders_update(rho, identity)
                assert np.abs(kept.mat - rho.mat).max() <= 1e-10
                erased = von_neumann_update(rho, identity)
                assert np.abs(erased.mat - np.eye(dim) / dim).max() <= 1e-10


def _random_observable(rng, dim):
    vals = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=dim)
    m, _ = hermitian_with_spectrum(rng, vals)
    return spectral_decompose(m)


def _suite_trace_preservation(rng):
    dim = int(rng.integers(2, 7))
    rule = ProjectionRule.LUDERS if rng.integers(2) else ProjectionRule.VON_NEUMANN
    out = apply_rule(random_density(rng, dim), _random_observable(rng, dim), rule)
    assert abs(np.trace(out.mat).real - 1.0) <= 1e-10


def _suite_positivity(rng):
    dim = int(rng.integers(2, 7))
    rule = ProjectionRule.LUDERS if rng.integers(2) else ProjectionRule.VON_NEUMANN
    out = apply_rule(random_density(rng, dim), _random_observable(rng, dim), rule)
    assert float(np.linalg.eigvalsh(out.mat).min()) >= -1e-10


def _suite_luders_idempotence(rng):
    dim = int(rng.integers(2, 7))
    obs = _random_observable(rng, dim)
    once = luders_update(random_density(rng, dim), obs)
    twice = luders_update(once, obs)
    assert np.abs(twice.mat - once.mat).max() <= 1e-10


def _suite_rule_coincidence(rng):
    dim = int(rng.integers(2, 7))
    m, _ = hermitian_with_spectrum(rng, np.arange(dim, dtype=float))
    obs = spectral_decompose(m)
    rho = random_density(rng, dim)
    assert np.abs(luders_update(rho, obs).mat - von_neumann_update(rho, obs).mat).max() <= 1e-10


def _suite_statistics_invariance(rng):
    # Commuting pair with a shared eigenbasis; integer spectra keep every
    # eigenvalue gap of the product far from the grouping tolerance.
    dim = int(rng.integers(3, 6))
    u = random_unitary(rng, dim)
    s1 = rng.choice([-2.0, -1.0, 1.0, 2.0], size=dim)
    s2 = rng.choice([-2.0, -1.0, 1.0, 2.0], size=dim)
    o1 = spectral_decompose(u @ np.diag(s1).astype(complex) @ u.conj().T)
    o2 = spectral_decompose(u @ np.diag(s2).astype(complex) @ u.conj().T)
    target = product_observable(o1, o2)
    registry = {"O1": o1, "O2": o2, "T": target}
    rho = random_density(rng, dim)
    routes = [Route(steps=("T",)), Route(steps=("O1", "O2")), Route(steps=("O2", "O1"))]
    distributions = []
    for route in routes:
        final = run_route(rho, route, registry)
        distributions.append(
            [
                selective_outcome(final, target, k, post_state=False)[0]
                for k in range(len(target.groups))
            ]
        )
    for dist in distributions[1:]:
        assert np.abs(np.array(dist) - np.array(distributions[0])).max() <= 1e-10


def test_criterion_9_randomized_property_suites():
    suites = [
        ("trace preservation", _suite_trace_preservation),
        ("positivity", _suite_positivity),
        ("coarse-update idempotence", _suite_luders_idempotence),
        ("non-degenerate rule coincidence", _suite_rule_coincidence),
        ("statistics invariance across routes", _suite_statistics_invariance),
    ]
    with criterion(9, "five property suites, 200 random cases each"):
        start = time.perf_counter()
        for seed_base, (_, suite) in enumerate(suites):
            rng = np.random.default_rng(31000 + seed_base)
            for _ in range(200):
                suite(rng)
        assert time.perf_counter() - start < 30.0
