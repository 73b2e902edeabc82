"""The three workloads: seeded inputs, fixed op lists, and why each exists.

An op is one ``qroutes`` command line, run in-process through
``qroutes.cli.main``. A workload is a fixed list of ops; a run repeats that
list in whole passes. Inputs are drawn from the seed and written as files
with ``serialize_scenario``; the program under test only ever sees those
files. Every generated eigenvalue gap is at least 1, far from the grouping
band (1e-8, 1e-7), so no op is ambiguous.

Next to each scenario file sits ``<name>.ref.npz``: the eigenbasis and
spectra the generator used. Only the correctness check reads it.
"""

from __future__ import annotations

import numpy as np

BUILTINS = ("nondegenerate-counterexample", "qutrit-paper", "two-qubit-rafasala")
RULES = ("luders", "von-neumann")

WORKLOADS = ("cli-builtins", "degenerate-24", "probe-deep")


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _rotated(basis: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    return (basis * spectrum) @ basis.conj().T


def degenerate_spec(seed: int) -> dict:
    """Commuting degenerate A, B (spectra in {0,1,2}) and C = A·B, dim 24."""
    rng = np.random.default_rng([seed, 24])
    n = 24
    basis = _haar_unitary(rng, n)
    # Seeded orderings of one balanced multiset: every seed has the same
    # degeneracies, so the work per op varies little from seed to seed.
    a = rng.permutation(np.repeat([0.0, 1.0, 2.0], n // 3))
    b = rng.permutation(np.repeat([0.0, 1.0, 2.0], n // 3))
    mat_a, mat_b = _rotated(basis, a), _rotated(basis, b)
    return {
        "name": f"degenerate-24-seed{seed}",
        "state": _unit_vector(rng, n),
        "basis": basis,
        "spectra": {"A": a, "B": b, "C": a * b},
        "observables": {"A": mat_a, "B": mat_b, "C": mat_a @ mat_b},
        "routes": [("C", ["C"]), ("AB", ["A", "B"]), ("BA", ["B", "A"])],
        "target": "C",
    }


def _deep_sequence(rng: np.random.Generator, steps: int) -> list[str]:
    # ZI^a IZ^b ZZ^c = Z^(a+c) (x) Z^(b+c), which is ZZ iff a+c and b+c are odd,
    # so the sequence multiplies out to the target and raises no route warning.
    while True:
        seq = [str(x) for x in rng.choice(["ZI", "IZ", "ZZ"], steps)]
        a, b, c = (seq.count(k) for k in ("ZI", "IZ", "ZZ"))
        if (a + c) % 2 == 1 and (b + c) % 2 == 1:
            return seq


def probe_spec(seed: int) -> dict:
    """Two qubits, ZI, IZ, ZZ in a random basis; an 8-step route and its reverse."""
    rng = np.random.default_rng([seed, 4])
    basis = _haar_unitary(rng, 4)
    spectra = {
        "ZI": np.array([1.0, 1.0, -1.0, -1.0]),
        "IZ": np.array([1.0, -1.0, 1.0, -1.0]),
        "ZZ": np.array([1.0, -1.0, -1.0, 1.0]),
    }
    seq = _deep_sequence(rng, 8)
    return {
        "name": f"probe-deep-seed{seed}",
        "state": _unit_vector(rng, 4),
        "basis": basis,
        "spectra": spectra,
        "observables": {k: _rotated(basis, s) for k, s in spectra.items()},
        "routes": [("ZZ", ["ZZ"]), ("deep", seq), ("deep-reversed", seq[::-1])],
        "target": "ZZ",
    }


def _write_spec(spec: dict, workdir, qroutes) -> tuple[str, str]:
    scenario = qroutes.Scenario(
        name=spec["name"],
        system_dim=len(spec["state"]),
        initial_state=spec["state"],
        observables=spec["observables"],
        routes=tuple(qroutes.Route(tuple(steps), name=name) for name, steps in spec["routes"]),
        target=spec["target"],
    )
    path = workdir / f"{spec['name']}.json"
    ref = workdir / f"{spec['name']}.ref.npz"
    path.write_text(qroutes.serialize_scenario(scenario))
    np.savez(ref, basis=spec["basis"], **{f"spectrum_{k}": v for k, v in spec["spectra"].items()})
    return str(path), str(ref)


def _run_op(source: str, scenario: str, *flags: str, ref: str | None = None) -> dict:
    argv = ["run", source, *flags]
    return {
        "argv": argv,
        "scenario": scenario,
        "ref": ref,
        "rule": argv[argv.index("--rule") + 1] if "--rule" in argv else "luders",
        "fmt": argv[argv.index("--format") + 1],
        "probe": "--probe" in argv,
    }


def build(workload: str, seed: int, workdir, qroutes) -> list[dict]:
    """Write the workload's input files into ``workdir``; return its op list.

    A run op names in ``scenario`` the file the check reads its inputs from;
    for a built-in that is a dump the run op itself never reads.
    """
    if workload == "cli-builtins":
        # The commands users type. At dimension 3-4 fixed per-call cost
        # (argument parsing, validation, rendering) decides latency.
        dumps = {name: str(workdir / f"{name}.json") for name in BUILTINS}
        for name, path in dumps.items():
            with open(path, "w") as fh:
                fh.write(qroutes.serialize_scenario(qroutes.builtin(name)))
        ops = [
            _run_op(name, dumps[name], "--rule", rule, "--format", fmt)
            for name in BUILTINS
            for rule in RULES
            for fmt in ("text", "json")
        ]
        ops += [_run_op(name, dumps[name], "--probe", "--format", "json") for name in BUILTINS]
        ops += [{"argv": ["validate", dumps[name]], "validate": True} for name in BUILTINS]
        return ops
    if workload == "degenerate-24":
        # The paper's degenerate case. Eigendecomposition dominates; after
        # it, rendering and parsing three 24x24 matrices. The two rules use
        # the measurement module differently; the probe code stays idle.
        path, ref = _write_spec(degenerate_spec(seed), workdir, qroutes)
        return [_run_op(path, path, "--rule", rule, "--format", "json", ref=ref) for rule in RULES]
    if workload == "probe-deep":
        # The only workload where probe and partial_trace do real work: the
        # register reaches 2**8 * 4 = MAX_DIM, so memory peaks here.
        path, ref = _write_spec(probe_spec(seed), workdir, qroutes)
        return [_run_op(path, path, "--probe", "--format", "json", ref=ref)]
    raise ValueError(f"unknown workload {workload!r} (expected one of {WORKLOADS})")
