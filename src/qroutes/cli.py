"""Command-line front end: run, list and validate scenarios.

Human output is fixed to six decimals; the machine format (--format json)
is full precision and byte-stable for identical inputs, so it can be
diffed across runs. It names its input by digest: the scenario's fields
as in its file, except that each observable is its matrix's SHA-256.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .errors import InputError, NumericalError, ParseError, UnknownScenarioError, ValidationError
from .linalg import unit_scaled
from .measurement import ProjectionRule
from .scenarios import RunReport, Scenario, builtin, builtin_descriptions, encode_complex_array
from .scenarios import observable_digest, parse_scenario, run_scenario, scenario_document, write_json


def _complex_cell(z: complex) -> str:
    return f"{z.real:+.6f}{z.imag:+.6f}j"


def _format_matrix(mat: np.ndarray, indent: str = "    ") -> str:
    return "\n".join(
        indent + "[" + "  ".join(_complex_cell(z) for z in row) + "]" for row in mat
    )


def render_text(report: RunReport) -> str:
    s = report.scenario
    cmp = report.comparison
    lines = [
        f"scenario: {s.name}",
        f"rule: {s.rule.value}   tolerance: {s.tolerance:g}   target: {s.target}",
        "",
    ]
    for name, state, stats in zip(
        cmp.route_names, cmp.final_states, cmp.final_observable_statistics
    ):
        lines.append(f"route {name}: final state")
        lines.append(_format_matrix(state.mat))
        rendered = ", ".join(
            f"P({label}) = {p:.6f}"
            for label, p in zip(report.target_outcome_labels, stats)
        )
        lines.append(f"  {s.target} outcome distribution: {rendered}")
        lines.append("")
    lines.append(f"pairwise comparison (EQUAL iff trace distance <= {cmp.tolerance:g}):")
    n = len(cmp.route_names)
    for i in range(n):
        for j in range(i + 1, n):
            lines.append(
                f"  {cmp.route_names[i]} vs {cmp.route_names[j]}: "
                f"trace distance = {cmp.pairwise_trace_distance[i, j]:.6f}, "
                f"max |diff| = {cmp.pairwise_max_abs_diff[i, j]:.6f}"
                f"  -> {cmp.verdicts[i][j].value}"
            )
    if report.probe_results is not None:
        lines.append("")
        lines.append("probe cross-check (register model vs Lueders updates):")
        for entry in report.probe_results:
            status = "ok" if entry["consistent"] else "MISMATCH"
            lines.append(
                f"  route {entry['route']}: max deviation = "
                f"{entry['max_abs_deviation']:.3e}  {status}"
            )
            rendered = ", ".join(
                f"P(\"{label}\") = {p:.6f}" for label, p in entry["signals"].items()
            )
            lines.append(f"    register readout: {rendered}")
    lines.append("")
    lines.append(f"completed in {report.duration_seconds:.3f} s")
    return "\n".join(lines) + "\n"


def render_machine(report: RunReport) -> str:
    s = report.scenario
    cmp = report.comparison
    payload = {
        "format": 2,
        "scenario": scenario_document(s, observable_digest),
        "rule": s.rule.value,
        "tolerance": cmp.tolerance,
        "target": cmp.target_label,
        "target_eigenvalues": list(cmp.target_eigenvalues),
        "target_outcome_labels": list(report.target_outcome_labels),
        "routes": [
            {
                "name": name,
                "final_state": encode_complex_array(state.mat),
                "target_statistics": list(stats),
            }
            for name, state, stats in zip(
                cmp.route_names, cmp.final_states, cmp.final_observable_statistics
            )
        ],
        "comparison": {
            "route_names": list(cmp.route_names),
            "pairwise_trace_distance": cmp.pairwise_trace_distance,
            "pairwise_max_abs_diff": cmp.pairwise_max_abs_diff,
            "verdicts": [[v.value for v in row] for row in cmp.verdicts],
        },
        "probe": None
        if report.probe_results is None
        else [dict(entry) for entry in report.probe_results],
    }
    return write_json(payload)


def _parse_state(text: str) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")]
    try:
        amplitudes = np.array([complex(p) for p in parts], dtype=complex)
    except ValueError as exc:
        raise ValidationError([f"--state: {exc}"]) from None
    if not np.isfinite(amplitudes).all():
        raise ValidationError(["--state: non-finite amplitude"])
    if not amplitudes.any():
        raise ValidationError(["--state: amplitudes have (near) zero norm"])
    unit, _ = unit_scaled(amplitudes)  # amplitudes / norm, without overflow
    return unit / np.linalg.norm(unit)


def _read_scenario(path) -> Scenario:
    """Parse a scenario file, whose JSON text must be UTF-8 (RFC 8259 section 8.1)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {exc.start}: not UTF-8 ({exc.reason})") from None
    return parse_scenario(text)


def _load_scenario(source: str) -> Scenario:
    if source in builtin_descriptions():
        return builtin(source)
    path = Path(source)
    if path.exists():
        return _read_scenario(path)
    raise UnknownScenarioError(
        f"{source!r} is neither a built-in scenario nor a readable file"
    )


def cmd_run(args) -> int:
    try:
        scenario = _load_scenario(args.scenario)
        if args.rule is not None:
            scenario = scenario.with_rule(ProjectionRule.from_name(args.rule))
        if args.state is not None:
            scenario = dataclasses.replace(scenario, initial_state=_parse_state(args.state))
        if args.tol is not None:
            scenario = dataclasses.replace(scenario, tolerance=args.tol)
        report = run_scenario(scenario, probe=args.probe)
        content = render_machine(report) if args.fmt == "json" else render_text(report)
        if args.out:
            Path(args.out).write_text(content)
        else:
            sys.stdout.write(content)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical invariant violation: {exc}", file=sys.stderr)
        return 3
    if report.probe_results is not None and not report.probe_consistent:
        print("numerical invariant violation: probe cross-check failed", file=sys.stderr)
        return 3
    return 0


def cmd_list(args) -> int:
    for name, description in builtin_descriptions().items():
        print(f"{name}: {description}")
    return 0


def cmd_validate(args) -> int:
    try:
        _read_scenario(args.file)
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("OK")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qroutes",
        description="Run projective measurement routes and compare their final states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and report the comparison")
    run_p.add_argument("scenario", help="built-in scenario name or scenario file path")
    run_p.add_argument(
        "--rule",
        choices=[r.value for r in ProjectionRule],
        help="override the projection rule for every route",
    )
    run_p.add_argument(
        "--state",
        help="comma-separated complex amplitudes (e.g. '0.707,0,0.707j'); "
        "normalized before use",
    )
    run_p.add_argument("--tol", type=float, help="equality tolerance on trace distance")
    run_p.add_argument(
        "--probe",
        action="store_true",
        help="also run the pointer-register model and cross-check the reduced states",
    )
    run_p.add_argument(
        "--format",
        dest="fmt",
        choices=["text", "json"],
        default="text",
        help="human text (default) or machine json",
    )
    run_p.add_argument("--out", help="write the report to this file instead of stdout")
    run_p.set_defaults(func=cmd_run)

    list_p = sub.add_parser("list", help="list built-in scenarios")
    list_p.set_defaults(func=cmd_list)

    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("file")
    val_p.set_defaults(func=cmd_validate)
    return parser


# Built once per process: parse_args reads it without changing it, so
# repeated in-process calls of main share it.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
