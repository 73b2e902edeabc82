"""The exit-code policy: each error's family decides how ``qroutes run`` exits."""

import json
from math import prod

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import hermitian_with_spectrum, random_density, random_state, random_unitary
from qroutes import builtin, product_observable, scenarios, serialize_scenario, spectral_decompose
from qroutes.cli import main
from qroutes.errors import InputError, NumericalError, QRoutesError
from qroutes.linalg import MAX_DIM
from qroutes.scenarios import encode_complex_array

INPUT = {
    "CapacityError",
    "NormalizationError",
    "ParseError",
    "UnknownLabelError",
    "UnknownScenarioError",
    "ValidationError",
}
NUMERICAL = {
    "AmbiguousGroupingError",
    "DimensionError",
    "HermiticityError",
    "InvariantError",
    "NoStageError",
    "NonCommutingError",
    "ZeroProbabilityError",
}
FAMILIES = {QRoutesError, InputError, NumericalError}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


CONCRETE = sorted(set(_subclasses(QRoutesError)) - FAMILIES, key=lambda cls: cls.__name__)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_error_belongs_to_exactly_one_family():
    assert {cls.__name__ for cls in CONCRETE} == INPUT | NUMERICAL
    for cls in CONCRETE:
        assert issubclass(cls, InputError) != issubclass(cls, NumericalError), cls.__name__
        assert issubclass(cls, InputError) == (cls.__name__ in INPUT), cls.__name__


@pytest.mark.parametrize("cls", CONCRETE, ids=lambda cls: cls.__name__)
def test_family_sets_exit_code_and_prefix(capsys, monkeypatch, cls):
    def broken(*args, **kwargs):
        raise cls("boom")

    monkeypatch.setattr(scenarios, "compare_routes", broken)
    code, out, err = run_cli(capsys, "run", "qutrit-paper")
    if issubclass(cls, InputError):
        assert (code, err) == (2, "error: boom\n")
    else:
        assert (code, err) == (3, "numerical invariant violation: boom\n")
    assert out == ""


_MIXED_REFUSAL = "error: initial_state: the probe cross-check needs a vector initial state\n"


# Seeded scenario files with well-separated spectra: every eigenvalue is an
# integer in [-2, 2], so distinct eigenvalues sit at least 1 apart. O1 shares
# O0's eigenbasis, so the file also holds their product P = O0 @ O1 (O0 @ O0
# with one observable). O1's eigenvalues are nonzero, so P vanishes only
# where O0 does, exactly, and is never rounding noise left by cancellation.
# Every observable is scaled by 10**k, P by 10**(2k). Returns the largest
# probe register any route needs.
def _scenario_file(path, seed, dim, n_obs, routes, mixed, k=0):
    rng = np.random.default_rng(seed)
    labels = [f"O{i}" for i in range(n_obs)]
    matrices, group_counts = {}, {}
    for label in labels:
        if label == "O1":
            spectrum = rng.choice([-2.0, -1.0, 1.0, 2.0], size=dim)
            matrices[label] = (basis * spectrum) @ basis.conj().T
        else:
            spectrum = rng.integers(-2, 3, size=dim).astype(float)
            matrices[label], basis = hermitian_with_spectrum(rng, spectrum)
        group_counts[label] = len(set(spectrum))
    matrices = {label: 10.0**k * m for label, m in matrices.items()}
    matrices["P"] = matrices["O0"] @ matrices[labels[1 % n_obs]]
    observables = {label: encode_complex_array(m).tolist() for label, m in matrices.items()}
    if mixed:
        state = {"density_matrix": encode_complex_array(random_density(rng, dim).mat).tolist()}
    else:
        state = {"vector": encode_complex_array(random_state(rng, dim)).tolist()}
    doc = {
        "name": f"seeded-{seed}",
        "system_dim": dim,
        "initial_state": state,
        "observables": observables,
        "routes": [
            {"name": f"R{i}", "steps": [labels[j % n_obs] for j in steps]} for i, steps in enumerate(routes)
        ],
        "target": labels[0],
    }
    path.write_text(json.dumps(doc))
    return max(dim * prod(group_counts[labels[j % n_obs]] for j in steps) for steps in routes)


def _verdicts(capsys, path, rule):
    code, out, err = run_cli(capsys, "run", str(path), "--rule", rule, "--format", "json")
    assert (code, err) == (0, "")
    return json.loads(out)["comparison"]["verdicts"]


@pytest.mark.filterwarnings("ignore::qroutes.RouteTargetWarning")
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 4),
    n_obs=st.integers(1, 3),
    routes=st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=6), min_size=2, max_size=3),
    mixed=st.booleans(),
    k=st.integers(0, 6),
)
@example(seed=0, dim=3, n_obs=2, routes=[[0], [1, 0]], mixed=False, k=0)
@example(seed=0, dim=3, n_obs=2, routes=[[0], [1, 0]], mixed=True, k=0)
@example(seed=0, dim=4, n_obs=1, routes=[[0], [0] * 5], mixed=False, k=0)  # a 4**6 register
@example(seed=1, dim=3, n_obs=3, routes=[[0, 1], [1, 0], [2]], mixed=False, k=6)
def test_validated_files_exit_2_only_for_the_named_probe_refusals(
    capsys, tmp_path, seed, dim, n_obs, routes, mixed, k
):
    path = tmp_path / "scenario.json"
    register = _scenario_file(path, seed, dim, n_obs, routes, mixed, k)
    unscaled = tmp_path / "unscaled.json"
    _scenario_file(unscaled, seed, dim, n_obs, routes, mixed)
    assert run_cli(capsys, "validate", str(path))[:2] == (0, "OK\n")
    for rule in ("luders", "von-neumann"):
        assert _verdicts(capsys, path, rule) == _verdicts(capsys, unscaled, rule)
    code, out, err = run_cli(capsys, "run", str(path), "--probe")
    if mixed:
        assert (code, out, err) == (2, "", _MIXED_REFUSAL)
    elif register > MAX_DIM:
        assert (code, out) == (2, "")
        assert err.startswith("error: route ") and err.endswith(f"exceeds the {MAX_DIM} limit\n")
    else:
        assert (code, err) == (0, "")


# O0 has one gap of 10**log_gap inside a spectrum of distinct integers in
# [-2, 2], all scaled by 10**k: the gap falls below, inside or above the
# grouping band (1e-8, 1e-7) * max(1, max |eigenvalue|).
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 4),
    log_gap=st.floats(-10.0, -6.0),
    k=st.integers(0, 6),
)
@example(seed=0, dim=3, log_gap=np.log10(3e-8), k=0)  # inside the band
@example(seed=0, dim=3, log_gap=-9.0, k=0)  # inside the band, but spread wider than the merge tolerance
@example(seed=0, dim=3, log_gap=-6.0, k=6)  # split cleanly at scale
def test_validate_and_run_agree_on_a_near_degenerate_gap(capsys, tmp_path, seed, dim, log_gap, k):
    rng = np.random.default_rng(seed)
    spectrum = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=dim - 1, replace=False)
    spectrum = np.append(spectrum, spectrum[0] + 10.0**log_gap)
    o0, _ = hermitian_with_spectrum(rng, 10.0**k * spectrum)
    doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
    doc.update(
        system_dim=dim,
        initial_state={"vector": encode_complex_array(random_state(rng, dim)).tolist()},
        observables={"O0": encode_complex_array(o0).tolist()},
        routes=[{"name": "once", "steps": ["O0"]}, {"name": "twice", "steps": ["O0", "O0"]}],
        target="O0",
    )
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    validated = run_cli(capsys, "validate", str(path))
    code, out, err = run_cli(capsys, "run", str(path))
    if validated[0] == 0:
        assert validated[1:] == ("OK\n", "")
        assert (code, err) == (0, "")
    else:
        assert validated[:2] == (2, "")
        assert validated[2].count("\n") == 1
        assert (code, out, err) == (2, "", "error: " + validated[2])


def _rotated_qutrit_file(path, k):
    """qutrit-paper with A and B in a seeded basis, scaled by 10**k; C = A @ B."""
    doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
    u = random_unitary(np.random.default_rng(7), 3)
    a = 10.0**k * (u * [1.0, 1.0, 0.0]) @ u.conj().T
    b = 10.0**k * (u * [0.0, 1.0, 1.0]) @ u.conj().T
    doc["observables"] = {label: encode_complex_array(m).tolist() for label, m in {"A": a, "B": b, "C": a @ b}.items()}
    doc["initial_state"]["vector"] = encode_complex_array(u @ np.full(3, 3**-0.5)).tolist()
    path.write_text(json.dumps(doc))
    return a, b


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [3, 6])
def test_rotated_qutrit_verdicts_do_not_depend_on_scale(capsys, tmp_path, k):
    _rotated_qutrit_file(tmp_path / "unscaled.json", 0)
    a, b = _rotated_qutrit_file(tmp_path / "scaled.json", k)
    assert product_observable(spectral_decompose(a), spectral_decompose(b)).dim == 3
    assert run_cli(capsys, "validate", str(tmp_path / "scaled.json")) == (0, "OK\n", "")
    for rule in ("luders", "von-neumann"):
        reports = []
        for name in ("unscaled.json", "scaled.json"):
            code, out, err = run_cli(capsys, "run", str(tmp_path / name), "--rule", rule, "--format", "json")
            assert (code, err) == (0, "")
            reports.append(json.loads(out)["comparison"])
        assert reports[1]["verdicts"] == reports[0]["verdicts"]
        assert np.allclose(
            reports[1]["pairwise_trace_distance"], reports[0]["pairwise_trace_distance"], rtol=0, atol=1e-12
        )


@pytest.mark.parametrize(
    "k, labels", [(0, ["1", "0"]), (3, ["1000000", "0"]), (6, ["1000000000000", "0"])]
)
def test_probe_labels_follow_the_spectrum_scale(capsys, tmp_path, k, labels):
    path = tmp_path / "scaled.json"
    _rotated_qutrit_file(path, k)
    code, out, err = run_cli(capsys, "run", str(path), "--probe", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["target_outcome_labels"] == labels
