import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qroutes
from helpers import degenerate_scenario
from qroutes import builtin, serialize_scenario
from qroutes.cli import main, render_machine, run_scenario

AMP = "0.7071067811865476,0,0.7071067811865476"


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


def _legacy_render_machine(report) -> str:
    """Reference rendering of the JSON report: the scenario passes through
    ``serialize_scenario`` and ``json.loads``, and every final-state entry
    through ``float(z.real), float(z.imag)``."""
    doc = json.loads(render_machine(report))
    doc["scenario"] = json.loads(serialize_scenario(report.scenario))
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

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_integer_literal_past_the_digit_limit(self, capsys, tmp_path, command):
        text = serialize_scenario(builtin("qutrit-paper")).replace("1e-08", "1" * 5000)
        path = tmp_path / "scenario.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
