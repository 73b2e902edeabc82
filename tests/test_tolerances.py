"""The tolerance policy: every threshold is named in ``linalg`` and scales with
the input, and no public callable takes one as a parameter."""

import ast
import inspect
import re
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qroutes
from helpers import hermitian_with_spectrum
from qroutes import (
    AmbiguousGroupingError,
    HermiticityError,
    hermitian_eigendecomposition,
    spectral_decompose,
)
from qroutes.linalg import GROUP_TOL, MATRIX_TOL, scaled_tol, unit_scaled

SRC = Path(qroutes.__file__).parent

# Small literals that decide no closeness check, each with its reason.
ALLOWED: dict[tuple[str, str, float], str] = {}


def _is_policy_constant(node) -> bool:
    # linalg's policy block: module-level assignments to UPPER_CASE names
    return isinstance(node, ast.Assign) and all(
        isinstance(t, ast.Name) and t.id.isupper() for t in node.targets
    )


def _small_literals(path: Path) -> set[tuple[str, str, float]]:
    """(file, enclosing function, value) of each float literal in (0, 1e-6)."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if path.name == "linalg.py" and scope == "<module>" and _is_policy_constant(child):
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value, float):
                if 0 < child.value < 1e-6:
                    found.add((path.name, scope, child.value))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if named else scope)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_no_threshold_literal_outside_the_policy_block():
    found = set().union(*(_small_literals(p) for p in sorted(SRC.glob("*.py"))))
    assert found == set(ALLOWED), (
        "name every closeness threshold in linalg's tolerance policy block: "
        f"{sorted(found - set(ALLOWED))}; stale allow-list entries: {sorted(set(ALLOWED) - found)}"
    )


# The user's EQUAL threshold on trace distance (``--tol``, a scenario's
# ``tolerance``) is the one tolerance a caller sets; these carry it.
USER_THRESHOLD = {
    ("ComparisonReport", "tolerance"),
    ("Scenario", "tolerance"),
    ("compare_routes", "tol"),
}


def _tolerance_parameters(namespace) -> set[tuple[str, str]]:
    """(callable, parameter) of each parameter named like a tolerance ("tol"
    anywhere in its name) of a callable in ``namespace.__all__``, the public
    methods of a class included."""
    found = set()
    for name in namespace.__all__:
        obj = getattr(namespace, name)
        members = [(name, obj)]
        if isinstance(obj, type):
            members += [
                (f"{name}.{attr}", getattr(obj, attr))
                for attr in vars(obj)
                if not attr.startswith("_") and callable(getattr(obj, attr))
            ]
        for label, member in members:
            try:
                parameters = inspect.signature(member).parameters
            except (TypeError, ValueError):  # a builtin without a signature
                continue
            found |= {(label, p) for p in parameters if "tol" in p.lower()}
    return found


def test_no_public_callable_takes_a_tolerance_knob():
    found = _tolerance_parameters(qroutes)
    assert found == USER_THRESHOLD, (
        "thresholds come from linalg's tolerance policy, not from a parameter: "
        f"{sorted(found - USER_THRESHOLD)}; stale entries: {sorted(USER_THRESHOLD - found)}"
    )


def test_scan_sees_a_tolerance_knob():
    def commutes(a, b, tol=MATRIX_TOL):
        return True

    class Observable:
        def close_to(self, other, *, atol=0.0):
            return True

    namespace = types.SimpleNamespace(
        __all__=["commutes", "Observable"], commutes=commutes, Observable=Observable
    )
    assert _tolerance_parameters(namespace) == {("commutes", "tol"), ("Observable.close_to", "atol")}


def test_scan_sees_a_literal_at_a_call_site(tmp_path):
    path = tmp_path / "routes.py"
    path.write_text("def commutes(a, b):\n    return abs(a - b) <= 1e-10\n")
    assert _small_literals(path) == {("routes.py", "commutes", 1e-10)}
    path = tmp_path / "linalg.py"
    path.write_text("TOL = 1e-10\n\ndef f(x):\n    return x < -1e-12\n")
    assert _small_literals(path) == {("linalg.py", "f", 1e-12)}


@pytest.mark.parametrize("top", [0.0, 1e-20, 0.5, 1.0])
def test_at_or_below_unit_scale_a_threshold_is_its_constant(top):
    m = np.full((3, 3), top, dtype=complex)
    assert scaled_tol(MATRIX_TOL, m) == MATRIX_TOL
    assert scaled_tol(GROUP_TOL, np.array([top, -top])) == GROUP_TOL


@pytest.mark.parametrize("k", [3, 6])
def test_rescaled_observable_keeps_its_grouping(k):
    rng = np.random.default_rng(k)
    m, _ = hermitian_with_spectrum(rng, [1.0, 1.0, 0.0, -2.0, -2.0])
    base = spectral_decompose(m)
    scaled = spectral_decompose(10.0**k * m)
    assert [g.degeneracy for g in scaled.groups] == [g.degeneracy for g in base.groups]
    for g, h in zip(scaled.groups, base.groups):
        assert np.allclose(g.projector, h.projector, atol=1e-12)
        assert g.eigenvalue == pytest.approx(10.0**k * h.eigenvalue, abs=1e-9 * 10.0**k)


def test_hermiticity_threshold_scales_and_is_reported():
    m = 1e6 * np.diag([1.0, 0.0, -1.0]).astype(complex)
    m[0, 1] = 5e-5  # a defect of 5e-5 against a threshold of 1e-4
    assert len(hermitian_eigendecomposition(m)[0]) == 3
    m[0, 1] = 2e-4
    message = "max |m - m†| = 2.000e-04 exceeds tolerance 1.000e-04"
    with pytest.raises(HermiticityError, match=f"^{re.escape(message)}$"):
        hermitian_eigendecomposition(m)


class TestChainedSpectrum:
    def test_chain_of_small_gaps_names_its_spread(self):
        m = np.diag(np.arange(5) * 0.9e-8).astype(complex)
        message = (
            "eigenvalues merged into one group spread over 3.600e-08, "
            "more than the merge tolerance 1.000e-10"
        )
        with pytest.raises(AmbiguousGroupingError, match=f"^{re.escape(message)}$"):
            spectral_decompose(m)

    def test_chain_band_scales_with_the_spectrum(self):
        m = np.diag([1e3, 1e3 + 9e-6, 1e3 + 1.8e-5, 0.0]).astype(complex)
        message = "spread over 1.800e-05, more than the merge tolerance 1.000e-07"
        with pytest.raises(AmbiguousGroupingError, match=message):
            spectral_decompose(m)


# Zero or at least 1e-3 in magnitude: with exponent in [-90, 90] no square
# in norm(v) overflows or underflows.
_PART = st.one_of(st.just(0.0), st.floats(1e-3, 2), st.floats(-2, -1e-3))


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.tuples(_PART, _PART), min_size=1, max_size=6), exponent=st.integers(-90, 90))
def test_unit_scaled_normalises_bit_for_bit(parts, exponent):
    v = np.array(parts).view(complex).reshape(-1) * 10.0**exponent
    assume(v.any())
    u, scale = unit_scaled(v)
    assert 1 <= np.abs(u.view(float)).max() < 2
    assert float(np.linalg.norm(u)) * scale == float(np.linalg.norm(v))
    assert (u / np.linalg.norm(u)).tobytes() == (v / np.linalg.norm(v)).tobytes()

