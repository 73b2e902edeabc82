import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qroutes
from helpers import clear_builtins, degenerate_scenario
from qroutes import RouteTargetWarning, builtin, cli, parse_scenario, scenarios, serialize_scenario
from qroutes.cli import main, render_machine, run_scenario
from qroutes.scenarios import encode_complex_array

AMP = "0.7071067811865476,0,0.7071067811865476"


def sha256_of(m) -> str:
    """The digest a format-2 report gives an observable matrix."""
    return hashlib.sha256(np.asarray(m, "<c16").tobytes()).hexdigest()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_lists_builtins_alphabetically(self, capsys):
        code, out, err = run_cli(capsys, "list")
        assert code == 0
        assert err == ""
        names = [line.split(":")[0] for line in out.strip().splitlines()]
        assert names == [
            "nondegenerate-counterexample",
            "qutrit-paper",
            "two-qubit-rafasala",
        ]


class TestRunText:
    def test_default_scenario_runs(self, capsys):
        code, out, err = run_cli(capsys, "run", "qutrit-paper")
        assert code == 0
        assert err == ""
        assert "scenario: qutrit-paper" in out
        assert "DISTINCT" in out
        assert "completed in" in out

    def test_balanced_state_shows_half_distance(self, capsys):
        code, out, _ = run_cli(capsys, "run", "qutrit-paper", "--state", AMP)
        assert code == 0
        assert "trace distance = 0.500000" in out

    def test_state_is_normalized_before_use(self, capsys):
        _, reference, _ = run_cli(capsys, "run", "qutrit-paper", "--state", AMP)
        _, scaled, _ = run_cli(capsys, "run", "qutrit-paper", "--state", "5,0,5")
        strip = lambda text: [l for l in text.splitlines() if "completed in" not in l]
        assert strip(scaled) == strip(reference)

    def test_von_neumann_override_collapses_routes(self, capsys):
        code, out, _ = run_cli(capsys, "run", "qutrit-paper", "--rule", "von-neumann")
        assert code == 0
        assert "DISTINCT" not in out
        assert out.count("-> EQUAL") == 3

    def test_nondegenerate_routes_agree(self, capsys):
        code, out, _ = run_cli(capsys, "run", "nondegenerate-counterexample")
        assert code == 0
        assert "DISTINCT" not in out

    def test_two_qubit_report(self, capsys):
        code, out, _ = run_cli(capsys, "run", "two-qubit-rafasala")
        assert code == 0
        assert "trace distance = 0.500000" in out
        assert "DISTINCT" in out

    def test_probe_section(self, capsys):
        code, out, _ = run_cli(capsys, "run", "qutrit-paper", "--probe", "--state", AMP)
        assert code == 0
        assert "probe cross-check" in out
        assert "MISMATCH" not in out
        assert 'P("11")' in out

    def test_loose_tolerance_turns_verdicts_equal(self, capsys):
        code, out, _ = run_cli(capsys, "run", "qutrit-paper", "--tol", "0.9")
        assert code == 0
        assert "DISTINCT" not in out


class TestRunJson:
    def test_payload_structure(self, capsys):
        code, out, err = run_cli(capsys, "run", "qutrit-paper", "--format", "json", "--state", AMP)
        assert code == 0
        doc = json.loads(out)
        assert doc["scenario"]["name"] == "qutrit-paper"
        assert doc["target"] == "C"
        assert doc["target_eigenvalues"] == [1.0, 0.0]
        assert doc["target_outcome_labels"] == ["1", "0"]
        assert [r["name"] for r in doc["routes"]] == ["C", "AB", "BA"]
        assert doc["comparison"]["verdicts"][0][1] == "DISTINCT"
        assert doc["comparison"]["pairwise_trace_distance"][0][1] == pytest.approx(
            0.5, abs=1e-9
        )
        assert doc["probe"] is None
        assert "duration" not in json.dumps(doc)

    def test_full_precision_final_states(self, capsys):
        _, out, _ = run_cli(capsys, "run", "qutrit-paper", "--format", "json", "--state", AMP)
        doc = json.loads(out)
        direct = np.array(
            [[complex(re, im) for re, im in row] for row in doc["routes"][0]["final_state"]]
        )
        assert direct[0, 2] == pytest.approx(0.5, abs=1e-15)

    def test_byte_stable_across_runs(self, capsys):
        _, first, _ = run_cli(capsys, "run", "qutrit-paper", "--format", "json", "--probe")
        _, second, _ = run_cli(capsys, "run", "qutrit-paper", "--format", "json", "--probe")
        assert first == second

    def test_probe_payload(self, capsys):
        _, out, _ = run_cli(
            capsys, "run", "qutrit-paper", "--format", "json", "--probe", "--state", AMP
        )
        doc = json.loads(out)
        assert len(doc["probe"]) == 3
        for entry in doc["probe"]:
            assert entry["consistent"] is True
            assert entry["max_abs_deviation"] <= 1e-10
        signals = doc["probe"][1]["signals"]
        assert signals["10"] == pytest.approx(0.5, abs=1e-12)
        assert signals["01"] == pytest.approx(0.5, abs=1e-12)

    def test_probe_under_von_neumann_checks_against_lueders(self, capsys):
        # The register model realizes the Lueders rule; its reference must
        # not be the von Neumann final state the report shows.
        code, out, _ = run_cli(
            capsys, "run", "qutrit-paper", "--rule", "von-neumann", "--probe", "--format", "json"
        )
        assert code == 0
        for entry in json.loads(out)["probe"]:
            assert entry["consistent"] is True
            assert entry["max_abs_deviation"] <= 1e-10

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "run", "qutrit-paper", "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["scenario"]["name"] == "qutrit-paper"

    def test_format_2_names_each_observable_by_its_digest(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(serialize_scenario(degenerate_scenario(3)))
        code, out, _ = run_cli(capsys, "run", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert next(iter(doc)) == "format"
        assert doc["format"] == 2
        observables = parse_scenario(path.read_text()).observables
        assert doc["scenario"]["observables"] == {
            label: {"sha256": sha256_of(o.matrix)} for label, o in observables.items()
        }


def _legacy_render_machine(report) -> str:
    """Reference rendering of the JSON report: the scenario passes through
    ``serialize_scenario`` and ``json.loads``, each observable becomes the
    SHA-256 of its matrix, and every final-state entry passes through
    ``float(z.real), float(z.imag)``."""
    doc = json.loads(render_machine(report))
    doc["scenario"] = json.loads(serialize_scenario(report.scenario))
    doc["scenario"]["observables"] = {
        label: {"sha256": sha256_of(o.matrix)} for label, o in report.scenario.observables.items()
    }
    for entry, state in zip(doc["routes"], report.comparison.final_states):
        entry["final_state"] = [[[float(z.real), float(z.imag)] for z in row] for row in state.mat]
    return json.dumps(doc, indent=2) + "\n"


# Runs each argv list given as JSON through the CLI in one interpreter and
# prints every exit code and report; BLAS reads its thread count at start-up.
_RUN_MANY = """
import contextlib, io, json, sys
from qroutes.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(code, out.getvalue(), sep="\\n")
"""


class TestRunJsonStability:
    @pytest.mark.parametrize("make", [lambda: builtin("qutrit-paper"), lambda: degenerate_scenario(7)])
    def test_matches_legacy_rendering(self, make):
        report = run_scenario(make(), probe=False)
        assert render_machine(report) == _legacy_render_machine(report)

    def test_byte_stable_across_blas_thread_counts(self, tmp_path):
        path = tmp_path / "degenerate-24.json"
        path.write_text(serialize_scenario(degenerate_scenario(11)))
        sources = ["nondegenerate-counterexample", "qutrit-paper", "two-qubit-rafasala", str(path)]
        commands = [
            ["run", source, "--rule", rule, "--format", "json"]
            for source in sources
            for rule in ("luders", "von-neumann")
        ]
        src = str(Path(qroutes.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", _RUN_MANY, json.dumps(commands)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0].count("0\n{") == len(commands)
        assert outputs[0] == outputs[1]


class TestRunFromFile:
    def test_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "scen.json"
        path.write_text(serialize_scenario(builtin("two-qubit-rafasala")))
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 0
        assert "two-qubit-rafasala" in out

    def test_unknown_source(self, capsys):
        code, _, err = run_cli(capsys, "run", "no-such-thing")
        assert code == 2
        assert "error:" in err

    def test_unwritable_out_path(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "report.json"
        code, out, err = run_cli(capsys, "run", "qutrit-paper", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"

    def test_invalid_file_content(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 2

    def test_bad_state_argument(self, capsys):
        code, _, err = run_cli(capsys, "run", "qutrit-paper", "--state", "1,zebra,0")
        assert code == 2
        assert "--state" in err

    def test_zero_state_argument(self, capsys):
        code, _, err = run_cli(capsys, "run", "qutrit-paper", "--state", "0,0,0")
        assert code == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("state", ["1,nan,0", "inf,0,0"])
    def test_non_finite_state_argument(self, capsys, state):
        code, out, err = run_cli(capsys, "run", "qutrit-paper", "--state", state)
        assert (code, out) == (2, "")
        assert err == "error: --state: non-finite amplitude\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("state", ["1e200,1e200,0", "1e-200,1e-200,0"])
    def test_state_argument_far_from_unit_scale(self, capsys, state):
        # Normalised without overflow or underflow: runs as (1, 1, 0)/sqrt(2).
        code, out, err = run_cli(capsys, "run", "qutrit-paper", "--state", state, "--format", "json")
        assert (code, err) == (0, "")
        _, expected, _ = run_cli(capsys, "run", "qutrit-paper", "--state", "1,1,0", "--format", "json")
        got, want = json.loads(out), json.loads(expected)
        vectors = [r["scenario"]["initial_state"]["vector"] for r in (got, want)]
        assert np.allclose(*vectors, rtol=0, atol=1e-15)
        got, want = got["comparison"], want["comparison"]
        assert got["verdicts"] == want["verdicts"]
        assert np.allclose(got["pairwise_trace_distance"], want["pairwise_trace_distance"], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("state", ["3,0,1", "0.6,0.8j,0", "1e-5,2e-5j,3", "-0.0,1,-0.0j"])
    def test_state_argument_normalises_as_amplitudes_over_their_norm(self, state):
        amplitudes = np.array([complex(p) for p in state.split(",")])
        expected = amplitudes / np.linalg.norm(amplitudes)
        assert cli._parse_state(state).tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_only_an_all_zero_state_argument_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "run", "qutrit-paper", "--state", "0,0j,-0.0")
        assert (code, out, err) == (2, "", "error: --state: amplitudes have (near) zero norm\n")
        assert run_cli(capsys, "run", "qutrit-paper", "--state", "1e-300,0,0")[0] == 0

    def test_wrong_length_state(self, capsys):
        code, _, err = run_cli(capsys, "run", "qutrit-paper", "--state", "1,0")
        assert code == 2
        assert "initial_state" in err


class TestValidate:
    def test_valid_file(self, capsys, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(serialize_scenario(builtin("qutrit-paper")))
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 0
        assert out.strip() == "OK"
        assert err == ""

    def test_violations_are_listed_one_per_line(self, capsys, tmp_path):
        doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
        doc["observables"]["A"][0][1] = [5.0, 0.0]
        doc["target"] = "Z"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        lines = err.strip().splitlines()
        assert any(l.startswith("observables.A: not Hermitian") for l in lines)
        assert any(l.startswith("target: unresolved label 'Z'") for l in lines)

    def test_syntax_error(self, capsys, tmp_path):
        path = tmp_path / "syntax.json"
        path.write_text("{\n  broken")
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert err.startswith("syntax error: line 2")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", str(tmp_path / "absent.json"))
        assert code == 2


def _set_entry(doc, value):
    doc["observables"]["A"][0][0] = value


def _set_tolerance(doc, value):
    doc["tolerance"] = value


def _keep_one_route(doc, _):
    del doc["routes"][1:]


_HUGE = "HUGE"  # written to the file as the literal 1e400, which json reads as inf


def _put(*path):
    """An edit that sets the node at ``path[:-1]`` of a scenario document to ``path[-1]``."""
    *keys, value = path

    def edit(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value

    return edit


_QUBIT_ID = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def _encoded(a):
    return encode_complex_array(np.array(a, dtype=complex)).tolist()


def _diag(*values):
    return _encoded(np.diag(values))


# One edit of qutrit-paper per violation, with the exact line that names it.
VIOLATIONS = [
    ("system-dim-0", _put("system_dim", 0), "system_dim: must be positive, got 0"),
    ("system-dim-over-cap", _put("system_dim", 1100), "system_dim: 1100 exceeds the 1024 limit"),
    (
        "density-matrix-dim",
        _put("initial_state", {"density_matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}),
        "initial_state: dimension 2 != system_dim 3",
    ),
    ("huge-vector-entry", _put("initial_state", "vector", 0, [_HUGE, 0.0]), "initial_state.vector: non-finite amplitude"),
    ("huge-observable-entry", _put("observables", "A", 0, 0, [_HUGE, 0.0]), "observables.A: non-finite entry"),
    ("observable-shape", _put("observables", "A", _QUBIT_ID), "observables.A: shape (2, 2) != (3, 3)"),
    (
        "empty-vector",
        _put("initial_state", "vector", []),
        "initial_state.vector: expected a non-empty array of [re, im] pairs",
    ),
    ("empty-matrix", _put("observables", "A", []), "observables.A: expected a non-empty array of rows"),
    ("no-observables", _put("observables", {}), "observables: at least one observable required"),
    ("route-not-object", _put("routes", 0, "C"), "routes[0]: expected an object"),
    ("empty-steps", _put("routes", 0, "steps", []), "routes[0].steps: expected a non-empty array of labels"),
    (
        "route-rule",
        _put("routes", 0, "rule", "projective"),
        "routes[0].rule: unknown projection rule 'projective' (expected one of: luders, von-neumann)",
    ),
    ("route-name", _put("routes", 0, "name", 5), "routes[0].name: expected a string"),
    ("huge-tolerance-literal", _put("tolerance", _HUGE), "tolerance: must be finite, got inf"),
    ("unknown-field", _put("toleranse", 1.0), "toleranse: unknown field"),
    ("unknown-route-field", _put("routes", 0, "weight", 1.0), "routes[0].weight: unknown field"),
    (
        "ambiguous-gap",
        _put("observables", "A", _diag(1.0, 1.0 + 3e-8, 0.0)),
        "observables.A: eigenvalue gap 3.000e-08 falls inside (1.000e-08, 1.000e-07)",
    ),
    (
        "merged-below-unit-scale",
        _put("observables", "A", _diag(0.0, 1e-9, 2e-9)),
        "observables.A: eigenvalues merged into one group spread over 2.000e-09, more than the merge tolerance 1.000e-10",
    ),
    (
        "system-dim-4001-digits",
        _put("system_dim", 10**4000),
        "system_dim: 100000000000000000...0000000000000000000 exceeds the 1024 limit",
    ),
    (
        # |v| - 1 = 7e-11 is within UNIT_TOL, but |v|^2 - 1, the trace, is not
        "norm-squared-off-by-1.4e-10",
        _put("initial_state", "vector", _encoded(np.full(3, (1 + 7e-11) / np.sqrt(3)))),
        "initial_state.vector: density matrix trace deviates from 1 by 1.400e-10",
    ),
    (
        "density-matrix-1e308-coherence",
        _put("initial_state", {"density_matrix": _encoded([[1, 1e308, 0], [1e308, 0, 0], [0, 0, 0]])}),
        "initial_state.density_matrix: density matrix has negative eigenvalue -1.000e+308",
    ),
    (
        "eigenvalue-sum-past-float-range",
        _put("observables", "A", _diag(1.7e308, 1.7e308, 0.0)),
        "observables.A: eigenvalue inf is outside the float range",
    ),
    (
        "defect-past-float-range",
        _put("observables", "A", _encoded([[0, 1e308, 0], [-1e308, 0, 0], [0, 0, 0]])),
        "observables.A: not Hermitian (max |m - m†| = inf exceeds tolerance 1.000e+298)",
    ),
    (
        "eigenvalue-past-float-range",
        _put("observables", "A", _encoded(np.full((3, 3), 1.5e308))),
        "observables.A: eigenvalue inf is outside the float range",
    ),
]


class TestValidateAgreesWithRun:
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "edit, value, message",
        [
            (_set_entry, [10**400, 0], "observables.A[0][0]: number out of float range"),
            (_set_tolerance, 10**400, "tolerance: number out of float range"),
            (_keep_one_route, None, "routes: at least two routes required"),
        ],
        ids=["huge-entry", "huge-tolerance", "one-route"],
    )
    def test_input_problem_exits_2(self, capsys, tmp_path, command, edit, value, message):
        doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
        edit(doc, value)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert message in err

    def test_infinite_tol_option(self, capsys):
        code, out, err = run_cli(capsys, "run", "qutrit-paper", "--tol", "inf", "--format", "json")
        assert (code, out, err) == (2, "", "error: tolerance: must be finite, got inf\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the line is all a user sees
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("edit, line", [v[1:] for v in VIOLATIONS], ids=[v[0] for v in VIOLATIONS])
    def test_each_violation_is_named_by_both_commands(self, capsys, tmp_path, command, edit, line):
        doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
        edit(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc).replace(f'"{_HUGE}"', "1e400"))
        code, out, err = run_cli(capsys, command, str(path))
        prefix = "error: " if command == "run" else ""
        assert (code, out, err) == (2, "", f"{prefix}{line}\n")

    def test_observable_near_the_float_limit_runs_to_strict_json(self, capsys, tmp_path):
        doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
        doc["observables"]["A"] = _encoded([[0, 1e308, 0], [1e308, 0, 0], [0, 0, 0]])
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, "validate", str(path)) == (0, "OK\n", "")
        with pytest.warns(RouteTargetWarning):  # A·B is not C any more
            code, out, err = run_cli(capsys, "run", str(path), "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out, parse_constant=_refuse_non_finite)
        a = parse_scenario(path.read_text()).observables["A"].matrix
        assert a[1, 0] == 1e308
        assert report["scenario"]["observables"]["A"] == {"sha256": sha256_of(a)}

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"\xff\xfe{}", "byte 0: not UTF-8 (invalid start byte)"),
            ('{"name": "é"}'.encode("latin-1"), "byte 10: not UTF-8 (invalid continuation byte)"),
        ],
        ids=["utf16-bom", "latin-1"],
    )
    def test_file_that_is_not_utf8(self, capsys, tmp_path, command, content, reason):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, command, str(path))
        prefix = "error: " if command == "run" else "syntax error: "
        assert (code, out, err) == (2, "", f"{prefix}{reason}\n")

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_integer_literal_past_the_digit_limit(self, capsys, tmp_path, command):
        text = serialize_scenario(builtin("qutrit-paper")).replace("1e-08", "1" * 5000)
        path = tmp_path / "scenario.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""


def _refuse_non_finite(constant):
    raise ValueError(f"{constant} in a report that must be strict JSON")


def _nested(depth):
    """qutrit-paper with observable A a number nested ``depth`` arrays deep."""
    doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
    doc["observables"]["A"] = "NESTED"  # json.dumps itself recurses once per level
    return json.dumps(doc).replace('"NESTED"', "[" * depth + "0.0" + "]" * depth)


_QUTRIT_TEXT = json.dumps(json.loads(serialize_scenario(builtin("qutrit-paper"))))
_C_MATRIX = json.dumps(_diag(0.0, 1.0, 0.0))


class TestRefusedStructure:
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "text",
        ["[" * 100000 + "]" * 100000, _nested(100000)],
        ids=["brackets-100000", "observable-100000"],
    )
    def test_nesting_too_deep(self, capsys, tmp_path, command, text):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, command, str(path))
        prefix = "error: " if command == "run" else "syntax error: "
        assert (code, out, err) == (2, "", f"{prefix}nesting too deep\n")

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_nesting_near_the_recursion_limit(self, capsys, tmp_path, command):
        # Whether json.loads or the decoder refuses 990 levels depends on the
        # interpreter's recursion limits; either way it is one clipped line.
        path = tmp_path / "scenario.json"
        path.write_text(_nested(990))
        code, out, err = run_cli(capsys, command, str(path))
        prefix = "error: " if command == "run" else ""
        pair = "observables.A[0][0]: expected a [re, im] number pair, got [[[[[[[...]]]]]]]"
        assert (code, out) == (2, "")
        assert err in (f"{prefix or 'syntax error: '}nesting too deep\n", f"{prefix}{pair}\n")

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "old, new, key",
        [
            ('"tolerance": 1e-08', '"tolerance": 1e-08, "tolerance": 0.1', "tolerance"),
            ('"observables": {', f'"observables": {{"A": {_C_MATRIX}, ', "A"),
            ('"steps": ["C"]', '"steps": ["C"], "steps": ["A", "B"]', "steps"),
        ],
        ids=["top-level", "observable-label", "route-key"],
    )
    def test_duplicate_key(self, capsys, tmp_path, command, old, new, key):
        assert _QUTRIT_TEXT.count(old) == 1
        path = tmp_path / "scenario.json"
        path.write_text(_QUTRIT_TEXT.replace(old, new))
        code, out, err = run_cli(capsys, command, str(path))
        prefix = "error: " if command == "run" else "syntax error: "
        assert (code, out, err) == (2, "", f"{prefix}duplicate key {key!r}\n")


def _scenario_file(tmp_path, edit):
    doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
    edit(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _mixed_initial_state(doc):
    v = np.array([complex(re, im) for re, im in doc["initial_state"]["vector"]])
    rho = np.outer(v, v.conj())
    doc["initial_state"] = {"density_matrix": [[[z.real, z.imag] for z in row] for row in rho]}


def _deep_two_qubit_route(doc):
    doc["name"] = "two-qubit-deep"
    doc["system_dim"] = 4
    doc["initial_state"] = {"vector": [[0.5, 0.0]] * 4}
    signs = {"ZI": [1, 1, -1, -1], "IZ": [1, -1, 1, -1], "ZZ": [1, -1, -1, 1]}
    doc["observables"] = {
        label: encode_complex_array(np.diag(d).astype(complex)).tolist() for label, d in signs.items()
    }
    doc["routes"] = [{"name": "ZZ", "steps": ["ZZ"]}, {"name": "deep", "steps": ["ZI", "IZ", "ZZ"] * 3}]
    doc["target"] = "ZZ"


def _forbidden(*args, **kwargs):
    raise AssertionError("work started before the probe refusal")


class TestProbeRefusal:
    def test_mixed_state_is_refused_before_any_work(self, capsys, tmp_path, monkeypatch):
        path = _scenario_file(tmp_path, _mixed_initial_state)
        monkeypatch.setattr(scenarios, "compare_routes", _forbidden)
        monkeypatch.setattr(scenarios, "init_total", _forbidden)
        code, out, err = run_cli(capsys, "run", path, "--probe")
        assert code == 2
        assert out == ""
        assert err == "error: initial_state: the probe cross-check needs a vector initial state\n"

    def test_oversized_register_is_refused_before_any_route_runs(self, capsys, tmp_path, monkeypatch):
        # nine two-outcome steps on a two-qubit system need a 2**9 * 4 = 2048 register
        path = _scenario_file(tmp_path, _deep_two_qubit_route)
        assert run_cli(capsys, "validate", path)[:2] == (0, "OK\n")
        monkeypatch.setattr(scenarios, "compare_routes", _forbidden)
        code, out, err = run_cli(capsys, "run", path, "--probe")
        assert code == 2
        assert out == ""
        assert err == "error: route deep: total dimension 2048 exceeds the 1024 limit\n"

    def test_mixed_state_runs_without_probe(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "run", _scenario_file(tmp_path, _mixed_initial_state))
        assert code == 0
        assert err == ""
        assert "DISTINCT" in out


def _raise(exc):
    def broken(*args, **kwargs):
        raise exc

    return broken


def _coarse_grouping(doc):
    # Eigenvalues 1, 5e-9, 0: the last two merge (gap <= 1e-8), and the
    # merged group spreads wider than the merge tolerance 1e-10.
    doc["observables"]["A"] = [
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [5e-9, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    ]


class TestExitCodes:
    """Exit 3 is kept for numerical invariants; anything else propagates."""

    @pytest.mark.parametrize("exc", [ValueError("a plain ValueError"), ZeroDivisionError("a plain ZeroDivisionError")])
    def test_unforeseen_error_propagates(self, monkeypatch, exc):
        monkeypatch.setattr(scenarios, "compare_routes", _raise(exc))
        with pytest.raises(type(exc), match=str(exc)):
            main(["run", "qutrit-paper"])

    def test_linalg_error_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(scenarios, "compare_routes", _raise(np.linalg.LinAlgError("no convergence")))
        code, out, err = run_cli(capsys, "run", "qutrit-paper")
        assert code == 3
        assert err == "numerical invariant violation: no convergence\n"

    def test_failed_probe_cross_check_exits_3_after_the_report(self, capsys, monkeypatch):
        # |0><0| differs from every route's final state, each with diagonal 1/3
        wrong = qroutes.DensityMatrix.pure([1, 0, 0])
        monkeypatch.setattr(scenarios, "reduced_system_state", lambda total: wrong)
        code, out, err = run_cli(capsys, "run", "qutrit-paper", "--probe", "--format", "json")
        assert code == 3
        assert err == "numerical invariant violation: probe cross-check failed\n"
        assert [entry["consistent"] for entry in json.loads(out)["probe"]] == [False, False, False]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_reconstruction_failure_is_an_input_problem(self, capsys, tmp_path, command):
        # spectral_decompose raises AmbiguousGroupingError (exit 3 for a
        # library caller); a scenario reports it as a violation of its observable.
        path = _scenario_file(tmp_path, _coarse_grouping)
        code, out, err = run_cli(capsys, command, path)
        prefix = "error: " if command == "run" else ""
        assert (code, out) == (2, "")
        assert err == (
            f"{prefix}observables.A: eigenvalues merged into one group spread "
            "over 5.000e-09, more than the merge tolerance 1.000e-10\n"
        )


class TestOneDecompositionPerObservable:
    """A Scenario decomposes each observable on construction, and nothing after."""

    @pytest.fixture
    def calls(self, monkeypatch):
        clear_builtins()
        made = []
        decompose = scenarios.spectral_decompose

        def counted(m, *args, **kwargs):
            made.append(kwargs["label"])
            return decompose(m, *args, **kwargs)

        monkeypatch.setattr(scenarios, "spectral_decompose", counted)
        return made

    @pytest.mark.parametrize(
        "command, options",
        [
            ("validate", []),
            ("run", []),
            ("run", ["--rule", "von-neumann", "--state", AMP, "--tol", "0.1"]),
            ("run", ["--tol", "0.1", "--rule", "luders", "--probe", "--format", "json"]),
        ],
        ids=["validate", "run", "run-rule-state-tol", "run-tol-rule-probe"],
    )
    def test_once_per_command(self, capsys, tmp_path, calls, command, options):
        path = _scenario_file(tmp_path, lambda doc: None)  # dumps a built-in
        calls.clear()
        assert run_cli(capsys, command, path, *options)[0] == 0
        assert sorted(calls) == ["A", "B", "C"]

    def test_none_for_a_field_replace(self, calls):
        scenario = builtin("qutrit-paper")
        calls.clear()
        dataclasses.replace(scenario, initial_state=[0, 1, 0])
        assert calls == []
        dataclasses.replace(scenario, tolerance=0.1)
        assert calls == []

    def test_none_inside_run_scenario(self, calls):
        scenario = builtin("qutrit-paper", state=[1, 0, 0])
        scenario = dataclasses.replace(scenario.with_rule(qroutes.ProjectionRule.VON_NEUMANN), tolerance=0.1)
        assert sorted(calls) == ["A", "B", "C"]
        calls.clear()
        run_scenario(scenario)
        run_scenario(scenario, probe=True)
        assert calls == []


def _report(*options, probe=False):
    scenario = builtin("qutrit-paper")
    for option in options:
        scenario = option(scenario)
    return render_machine(run_scenario(scenario, probe=probe))


class TestRepeatedMain:
    """main reuses one parser; no option of one call reaches the next."""

    def test_parser_is_not_rebuilt(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_build_parser", _forbidden)
        assert run_cli(capsys, "run", "qutrit-paper")[0] == 0
        assert run_cli(capsys, "list")[0] == 0

    def test_probe_then_no_probe(self, capsys):
        _, first, _ = run_cli(capsys, "run", "qutrit-paper", "--probe", "--format", "json")
        _, second, _ = run_cli(capsys, "run", "qutrit-paper", "--format", "json")
        assert first == _report(probe=True)
        assert second == _report()

    def test_rule_then_default(self, capsys):
        von_neumann = lambda s: s.with_rule(qroutes.ProjectionRule.VON_NEUMANN)
        _, first, _ = run_cli(capsys, "run", "qutrit-paper", "--rule", "von-neumann", "--format", "json")
        _, second, _ = run_cli(capsys, "run", "qutrit-paper", "--format", "json")
        assert first == _report(von_neumann)
        assert second == _report()

    def test_out_then_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, first, _ = run_cli(capsys, "run", "qutrit-paper", "--format", "json", "--out", str(target))
        assert (code, first) == (0, "")
        written = target.read_text()
        code, second, _ = run_cli(capsys, "run", "qutrit-paper", "--format", "json")
        assert code == 0
        assert second == written == _report()
        assert target.read_text() == written

    def test_failed_state_then_good_run(self, capsys):
        code, out, err = run_cli(capsys, "run", "qutrit-paper", "--state", "1,zebra,0", "--format", "json")
        assert (code, out) == (2, "")
        assert "--state" in err
        code, out, err = run_cli(capsys, "run", "qutrit-paper", "--format", "json")
        assert (code, err) == (0, "")
        assert out == _report()

    def test_usage_error_then_good_run(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["run", "qutrit-paper", "--rule", "bogus"])
        assert caught.value.code == 2
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "run", "qutrit-paper", "--format", "json")
        assert code == 0
        assert out == _report()


class TestSharedBuiltinsKeepNoState:
    """Runs of a shared built-in leave nothing behind that a later run reads."""

    def test_interleaved_runs_match_cold_runs(self, capsys, tmp_path):
        names = list(qroutes.builtin_descriptions())

        def runs(name, *rules):
            return [["run", name, "--rule", rule, "--format", fmt] for rule in rules for fmt in ("text", "json")]

        validates = []
        for name in names:
            path = tmp_path / f"{name}.json"
            path.write_text(serialize_scenario(builtin(name)))
            validates.append(["validate", str(path)])
        probe = {name: ["run", name, "--probe", "--format", "json"] for name in names}
        first = [
            argv
            for name in names
            for argv in [*runs(name, "luders"), probe[name], *runs(name, "von-neumann")]
        ] + validates
        second = validates + [
            argv
            for name in reversed(names)
            for argv in [*runs(name, "von-neumann"), probe[name], *runs(name, "luders")]
        ]

        def output(argv):
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            return [line for line in out.splitlines() if not line.startswith("completed in")]

        cold = {}
        for argv in first:
            clear_builtins()
            cold[tuple(argv)] = output(argv)
        assert len(cold) == 18
        clear_builtins()
        for argv in first + second:
            assert output(argv) == cold[tuple(argv)], argv


def _readme_scenario() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```json\n(.*?)^```$", readme, flags=re.S | re.M)
    assert len(blocks) == 1, "README.md should hold exactly one json block"
    return blocks[0]


class TestReadmeScenario:
    """The README's ``qubit-demo`` file behaves as the README says."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "qubit-demo.json"
        path.write_text(_readme_scenario())
        return str(path)

    def test_validates(self, capsys, path):
        assert run_cli(capsys, "validate", path) == (0, "OK\n", "")

    def test_equal_under_luders(self, capsys, path):
        code, out, err = run_cli(capsys, "run", path, "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["scenario"]["name"] == "qubit-demo"
        assert report["comparison"]["verdicts"][0][1] == "EQUAL"

    def test_distinct_under_von_neumann(self, capsys, path):
        # A single-eigenvalue measurement maps the state to the maximally
        # mixed one: populations (0.64, 0.36) against (0.5, 0.5).
        code, out, err = run_cli(capsys, "run", path, "--rule", "von-neumann", "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["comparison"]["verdicts"][0][1] == "DISTINCT"
        assert report["comparison"]["pairwise_trace_distance"][0][1] == pytest.approx(0.14, abs=1e-12)
