"""Command-line front end: run, list and validate scenarios.

Human output is fixed to six decimals; the machine format (--format json)
is full precision, self-describing and byte-stable for identical inputs,
so it can be diffed across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from dataclasses import dataclass
from math import prod
from pathlib import Path

import numpy as np

from .errors import CapacityError, InputError, NumericalError
from .errors import ParseError, UnknownScenarioError, ValidationError
from .linalg import MAX_DIM, UNIT_TOL, unit_scaled
from .measurement import ProjectionRule
from .probe import init_total, interact, probe_signal_distribution, reduced_system_state, stage_labels_for
from .routes import ComparisonReport, run_route
from .routes import compare_routes as _compare_routes
from .scenarios import (
    Scenario,
    builtin,
    builtin_descriptions,
    encode_complex_array,
    parse_scenario,
    scenario_document,
    write_json,
)


@dataclass(frozen=True, eq=False)
class RunReport:
    """Everything one scenario execution produced."""

    scenario: Scenario
    comparison: ComparisonReport
    target_outcome_labels: tuple[str, ...]
    probe_results: tuple[dict, ...] | None
    duration_seconds: float

    @property
    def probe_consistent(self) -> bool:
        if not self.probe_results:
            return True
        return all(r["consistent"] for r in self.probe_results)


def run_scenario(scenario: Scenario, probe: bool = False) -> RunReport:
    """Execute every route of the scenario and compare the final states."""
    start = time.perf_counter()
    if probe and not isinstance(scenario.initial_state, np.ndarray):
        raise ValidationError(
            ["initial_state: the probe cross-check needs a vector initial state"]
        )
    registry = scenario.observable_registry()
    if probe:
        # interact refuses the same register, but only once every route has run
        for route in scenario.routes:
            total = scenario.system_dim * prod(len(registry[s].groups) for s in route.steps)
            if total > MAX_DIM:
                raise CapacityError(
                    f"route {route.display_name}: total dimension {total} exceeds the {MAX_DIM} limit"
                )
    initial = scenario.initial_density()
    comparison = _compare_routes(
        initial, list(scenario.routes), registry, scenario.target, scenario.tolerance
    )
    probe_results = None
    if probe:
        probe_results = _probe_cross_check(scenario, registry, initial, comparison)
    duration = time.perf_counter() - start
    return RunReport(
        scenario=scenario,
        comparison=comparison,
        target_outcome_labels=stage_labels_for(registry[scenario.target]),
        probe_results=probe_results,
        duration_seconds=duration,
    )


def _probe_cross_check(scenario, registry, initial, comparison) -> tuple[dict, ...]:
    # The register model realizes the Lueders semantics, so each route is
    # checked against its Lueders evaluation whatever rule the report uses;
    # a Lueders route's final state from the comparison is that evaluation.
    # run_scenario has already refused a density-matrix initial state.
    results = []
    for route, final in zip(scenario.routes, comparison.final_states):
        total = init_total(scenario.initial_state)
        for label in route.steps:
            total = interact(total, registry[label])
        reduced = reduced_system_state(total)
        reference = final if route.rule is ProjectionRule.LUDERS else run_route(
            initial, dataclasses.replace(route, rule=ProjectionRule.LUDERS), registry
        )
        deviation = float(np.max(np.abs(reduced.mat - reference.mat)))
        results.append(
            {
                "route": route.display_name,
                "max_abs_deviation": deviation,
                "consistent": deviation <= UNIT_TOL,
                "signals": probe_signal_distribution(total),
            }
        )
    return tuple(results)


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
        "scenario": scenario_document(s),
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


def _load_scenario(source: str) -> Scenario:
    if source in builtin_descriptions():
        return builtin(source)
    path = Path(source)
    if path.exists():
        return parse_scenario(path.read_text())
    raise UnknownScenarioError(
        f"{source!r} is neither a built-in scenario nor a readable file"
    )


def cmd_run(args) -> int:
    try:
        scenario = _load_scenario(args.scenario)
        if args.rule is not None:
            scenario = scenario.with_rule(ProjectionRule.from_name(args.rule))
        if args.state is not None:
            scenario = scenario.with_state(_parse_state(args.state))
        if args.tol is not None:
            scenario = scenario.with_tolerance(args.tol)
        report = run_scenario(scenario, probe=args.probe)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical invariant violation: {exc}", file=sys.stderr)
        return 3
    content = render_machine(report) if args.fmt == "json" else render_text(report)
    if args.out:
        Path(args.out).write_text(content)
    else:
        sys.stdout.write(content)
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
        parse_scenario(Path(args.file).read_text())
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
