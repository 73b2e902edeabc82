"""The exit-code policy: each error's family decides how ``qroutes run`` exits."""

import json
from math import prod

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import hermitian_with_spectrum, random_density, random_state
from qroutes import cli
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

    monkeypatch.setattr(cli, "_compare_routes", broken)
    code, out, err = run_cli(capsys, "run", "qutrit-paper")
    if issubclass(cls, InputError):
        assert (code, err) == (2, "error: boom\n")
    else:
        assert (code, err) == (3, "numerical invariant violation: boom\n")
    assert out == ""


_MIXED_REFUSAL = "error: initial_state: the probe cross-check needs a vector initial state\n"


# Seeded scenario files with well-separated spectra: every eigenvalue is an
# integer in [-2, 2], so distinct eigenvalues sit at least 1 apart. Returns
# the largest probe register any route needs.
def _scenario_file(path, seed, dim, n_obs, routes, mixed):
    rng = np.random.default_rng(seed)
    labels = [f"O{i}" for i in range(n_obs)]
    observables, group_counts = {}, {}
    for label in labels:
        spectrum = rng.integers(-2, 3, size=dim).astype(float)
        observables[label] = encode_complex_array(hermitian_with_spectrum(rng, spectrum)[0]).tolist()
        group_counts[label] = len(set(spectrum))
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
            {"name": f"R{i}", "steps": [labels[k % n_obs] for k in steps]} for i, steps in enumerate(routes)
        ],
        "target": labels[0],
    }
    path.write_text(json.dumps(doc))
    return max(dim * prod(group_counts[labels[k % n_obs]] for k in steps) for steps in routes)


@pytest.mark.filterwarnings("ignore::qroutes.RouteTargetWarning")
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 4),
    n_obs=st.integers(1, 3),
    routes=st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=6), min_size=2, max_size=3),
    mixed=st.booleans(),
)
@example(seed=0, dim=3, n_obs=2, routes=[[0], [1, 0]], mixed=False)
@example(seed=0, dim=3, n_obs=2, routes=[[0], [1, 0]], mixed=True)
@example(seed=0, dim=4, n_obs=1, routes=[[0], [0] * 5], mixed=False)  # a 4**6 register
def test_validated_files_exit_2_only_for_the_named_probe_refusals(
    capsys, tmp_path, seed, dim, n_obs, routes, mixed
):
    path = tmp_path / "scenario.json"
    register = _scenario_file(path, seed, dim, n_obs, routes, mixed)
    assert run_cli(capsys, "validate", str(path))[:2] == (0, "OK\n")
    for rule in ("luders", "von-neumann"):
        code, _, err = run_cli(capsys, "run", str(path), "--rule", rule)
        assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, "run", str(path), "--probe")
    if mixed:
        assert (code, out, err) == (2, "", _MIXED_REFUSAL)
    elif register > MAX_DIM:
        assert (code, out) == (2, "")
        assert err.startswith("error: route ") and err.endswith(f"exceeds the {MAX_DIM} limit\n")
    else:
        assert (code, err) == (0, "")
