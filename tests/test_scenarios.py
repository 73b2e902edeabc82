import dataclasses
import json
import sys
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import clear_builtins, decode_matrix, decode_vector, random_density, random_hermitian, random_state
from qroutes import (
    DensityMatrix,
    EigenGroup,
    ParseError,
    ProjectionRule,
    Route,
    Scenario,
    UnknownScenarioError,
    ValidationError,
    Verdict,
    builtin,
    builtin_descriptions,
    compare_routes,
    parse_scenario,
    run_scenario,
    serialize_scenario,
)
from qroutes import measurement, scenarios
from qroutes.scenarios import _decode, encode_complex_array, write_json

SQ3 = np.sqrt(3.0)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def qutrit_observables(**changed):
    """The observables of ``qutrit-paper`` as raw integer matrices, ``changed`` filed over them."""
    return {"A": np.diag([1, 1, 0]), "B": np.diag([0, 1, 1]), "C": np.diag([0, 1, 0]), **changed}


def spectrum(m):
    return np.sort(np.linalg.eigvalsh(m))  # independent of the package eigensolver


class TestBuiltinCatalogue:
    def test_descriptions_are_alphabetical(self):
        names = list(builtin_descriptions())
        assert names == sorted(names)
        assert names == [
            "nondegenerate-counterexample",
            "qutrit-paper",
            "two-qubit-rafasala",
        ]

    def test_unknown_name(self):
        with pytest.raises(UnknownScenarioError):
            builtin("qutrit")


def _arrays(node):
    """Every array reachable from ``node``, each group's derived arrays built."""
    if isinstance(node, np.ndarray):
        yield node
    elif isinstance(node, EigenGroup):
        yield from (node.basis, node.projector, node.refinement)
    elif dataclasses.is_dataclass(node):
        for field in dataclasses.fields(node):
            yield from _arrays(getattr(node, field.name))
    elif isinstance(node, Mapping):
        for value in node.values():
            yield from _arrays(value)
    elif isinstance(node, (tuple, list)):
        for item in node:
            yield from _arrays(item)


def _forbidden(*args, **kwargs):
    raise AssertionError("a shared built-in was built again")


class TestSharedBuiltins:
    """Each built-in is built once per process and shared, read-only, from then on."""

    @pytest.mark.parametrize("name", list(builtin_descriptions()))
    def test_every_reachable_array_is_read_only(self, name):
        s = builtin(name)
        found = list(_arrays(s))
        groups = [g for obs in s.observables.values() for g in obs.groups]
        # the vector and its checked density matrix, each matrix, each group's three arrays
        assert len(found) == 2 + len(s.observables) + 3 * len(groups)
        assert not any(a.flags.writeable for a in found)
        for g in groups:
            with pytest.raises(ValueError):
                g.projector[0, 0] = 0.0
            with pytest.raises(ValueError):
                g.refinement[0] *= -1.0

    @pytest.mark.parametrize("name", list(builtin_descriptions()))
    def test_later_calls_build_nothing(self, monkeypatch, name):
        clear_builtins()
        first = builtin(name)
        list(_arrays(first))  # builds every projector and refinement
        monkeypatch.setattr(scenarios, "spectral_decompose", _forbidden)
        monkeypatch.setattr(measurement, "_eigenspace_basis", _forbidden)
        assert builtin(name) is first
        varied = builtin(name, state=np.eye(first.system_dim)[0])
        assert varied is not first and varied.initial_state[0] == 1.0
        assert all(varied.observables[label] is obs for label, obs in first.observables.items())
        for rule in ProjectionRule:
            run_scenario(varied.with_rule(rule), probe=True)


class TestQutritBuiltin:
    def test_observable_matrices(self):
        s = builtin("qutrit-paper")
        assert np.array_equal(s.observables["A"].matrix, np.diag([1, 1, 0]))
        assert np.array_equal(s.observables["B"].matrix, np.diag([0, 1, 1]))
        assert np.array_equal(s.observables["C"].matrix, np.diag([0, 1, 0]))
        assert np.array_equal(
            s.observables["A"].matrix @ s.observables["B"].matrix, s.observables["C"].matrix
        )

    def test_default_state_is_uniform(self):
        s = builtin("qutrit-paper")
        assert np.allclose(s.initial_state, np.full(3, 1 / np.sqrt(3)), atol=1e-15)

    def test_routes_and_target(self):
        s = builtin("qutrit-paper")
        assert s.target == "C"
        assert tuple(r.steps for r in s.routes) == (("C",), ("A", "B"), ("B", "A"))
        assert all(r.rule is ProjectionRule.LUDERS for r in s.routes)

    def test_spectra(self):
        s = builtin("qutrit-paper")
        assert np.allclose(spectrum(s.observables["A"].matrix), [0, 1, 1], atol=1e-12)
        assert np.allclose(spectrum(s.observables["B"].matrix), [0, 1, 1], atol=1e-12)
        assert np.allclose(spectrum(s.observables["C"].matrix), [0, 0, 1], atol=1e-12)

    def test_state_override(self):
        v = np.array([1, 0, 0], dtype=complex)
        s = builtin("qutrit-paper", state=v)
        assert np.array_equal(s.initial_state, v)

    def test_state_override_must_fit(self):
        with pytest.raises(ValidationError):
            builtin("qutrit-paper", state=np.array([1, 0], dtype=complex))


class TestCounterexampleBuiltin:
    def test_third_observable_is_the_product(self):
        s = builtin("nondegenerate-counterexample")
        d1, d2, d3 = (s.observables[k].matrix for k in ("D1", "D2", "D3"))
        assert np.abs(d1 @ d2 - d3).max() <= 1e-10

    def test_pair_commutes(self):
        s = builtin("nondegenerate-counterexample")
        d1, d2 = s.observables["D1"].matrix, s.observables["D2"].matrix
        assert np.abs(d1 @ d2 - d2 @ d1).max() <= 1e-10

    def test_spectra_are_nondegenerate(self):
        s = builtin("nondegenerate-counterexample")
        assert np.allclose(
            spectrum(s.observables["D1"].matrix), sorted([1 + SQ3, 0, 1 - SQ3]), atol=1e-9
        )
        assert np.allclose(
            spectrum(s.observables["D2"].matrix), sorted([SQ3, 1, -SQ3]), atol=1e-9
        )
        assert np.allclose(
            spectrum(s.observables["D3"].matrix), sorted([3 + SQ3, 3 - SQ3, 0]), atol=1e-9
        )

    def test_default_state_is_normalized(self):
        s = builtin("nondegenerate-counterexample")
        assert np.linalg.norm(s.initial_state) == pytest.approx(1.0, abs=1e-12)


class TestTwoQubitBuiltin:
    def test_observables_are_pauli_products(self):
        s = builtin("two-qubit-rafasala")
        i2 = np.eye(2)
        assert np.array_equal(s.observables["M1"].matrix, np.kron(SIGMA_X, i2))
        assert np.array_equal(s.observables["M2"].matrix, np.kron(i2, SIGMA_Y))
        assert np.array_equal(s.observables["M3"].matrix, np.kron(SIGMA_X, SIGMA_Y))

    def test_family_is_mutually_commuting(self):
        s = builtin("two-qubit-rafasala")
        ms = [o.matrix for o in s.observables.values()]
        for a in ms:
            for b in ms:
                assert np.abs(a @ b - b @ a).max() <= 1e-12

    def test_spectra_are_doubly_degenerate(self):
        s = builtin("two-qubit-rafasala")
        for o in s.observables.values():
            assert np.allclose(spectrum(o.matrix), [-1, -1, 1, 1], atol=1e-12)

    def test_default_state_is_maximally_entangled(self):
        s = builtin("two-qubit-rafasala")
        expect = np.zeros(4)
        expect[0] = expect[3] = 1 / np.sqrt(2)
        assert np.allclose(s.initial_state, expect, atol=1e-15)


class TestScenarioMethods:
    def test_with_rule_rewrites_routes(self):
        s = builtin("qutrit-paper").with_rule(ProjectionRule.VON_NEUMANN)
        assert not hasattr(s, "rule")
        assert all(r.rule is ProjectionRule.VON_NEUMANN for r in s.routes)

    def test_with_tolerance(self):
        s = dataclasses.replace(builtin("qutrit-paper"), tolerance=1e-6)
        assert s.tolerance == 1e-6

    def test_registry_carries_labels(self):
        reg = builtin("qutrit-paper").observables
        assert set(reg) == {"A", "B", "C"}
        assert np.array_equal(reg["A"].matrix, np.diag([1.0, 1.0, 0.0]))

    def test_initial_density_from_vector(self):
        s = builtin("qutrit-paper")
        rho = s.initial_density()
        assert np.allclose(
            rho.mat, np.outer(s.initial_state, s.initial_state.conj()), atol=1e-15
        )

    def test_runs_start_from_the_checked_state(self, monkeypatch):
        s = builtin("qutrit-paper")
        assert s.initial_density() is s.initial_density()
        varied = builtin("qutrit-paper", state=np.eye(3)[0])
        assert np.array_equal(varied.initial_density().mat, np.diag([1.0, 0.0, 0.0]))
        built = []
        check = DensityMatrix.__post_init__

        def counted(rho):
            built.append(rho)
            check(rho)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
        run_scenario(s)
        # one state per update step; none for the initial state
        assert len(built) == sum(len(route.steps) for route in s.routes)

    def test_observables_are_read_only(self):
        s = builtin("qutrit-paper")
        with pytest.raises(ValueError):
            s.observables["A"].matrix[0, 0] = 5.0
        with pytest.raises(TypeError):
            s.observables["Z"] = np.eye(3)

    def test_overrides_hand_on_the_decomposed_observables(self):
        s = builtin("qutrit-paper")
        registry = s.observables
        for t in (
            s.with_rule(ProjectionRule.VON_NEUMANN),
            dataclasses.replace(s, initial_state=[0, 1, 0]),
            dataclasses.replace(s, tolerance=0.1),
        ):
            assert all(t.observables[label] is obs for label, obs in registry.items())

    def test_registry_is_a_new_dict(self):
        given = dict(builtin("qutrit-paper").observables)
        s = Scenario("copy", 3, [1, 0, 0], given, builtin("qutrit-paper").routes, "C")
        given.clear()
        assert set(s.observables) == {"A", "B", "C"}
        with pytest.raises(TypeError):
            del s.observables["A"]

    def test_observable_under_another_label_is_kept_as_given(self, monkeypatch):
        s = builtin("qutrit-paper")
        r = s.observables
        monkeypatch.setattr(scenarios, "spectral_decompose", None)  # any call fails
        t = Scenario(s.name, 3, s.initial_state, dict(r, A=r["B"]), s.routes, s.target)
        assert t.observables["A"] is r["B"]
        assert t.observables["B"] is r["B"]

    def test_observable_under_a_label_that_is_not_a_str_is_refused(self):
        # Accepted, it would be serialized under the key "5" and parse back under another label.
        s = builtin("qutrit-paper")
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(s, observables={5: s.observables["A"], **s.observables})
        assert info.value.violations == ["observables: expected str labels, got 5"]

    def test_tolerance_is_kept_as_a_float(self):
        s = builtin("qutrit-paper")
        doc = json.loads(serialize_scenario(s))
        doc["tolerance"] = 1
        for t in (dataclasses.replace(s, tolerance=1), parse_scenario(json.dumps(doc))):
            assert type(t.tolerance) is float and t.tolerance == 1.0
        doc["tolerance"] = -1
        with pytest.raises(ValidationError) as info:
            parse_scenario(json.dumps(doc))
        assert info.value.violations == ["tolerance: must be positive, got -1"]

    @pytest.mark.parametrize(
        "tol", [2**64, 10**20, int(sys.float_info.max) + 1], ids=["2**64", "10**20", "float-max-plus-1"]
    )
    def test_integer_tolerance_past_int64_is_read_as_the_nearest_float(self, tol):
        s = builtin("qutrit-paper")
        doc = json.loads(serialize_scenario(s))
        doc["tolerance"] = tol
        for t in (dataclasses.replace(s, tolerance=tol), parse_scenario(json.dumps(doc))):
            assert type(t.tolerance) is float and t.tolerance == float(tol)
        report = compare_routes(s.initial_density(), s.routes, s.observables, s.target, tol)
        assert report.verdict(0, 1) is Verdict.EQUAL

    def test_routes_that_are_not_routes_are_refused_one_line_each(self):
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(builtin("qutrit-paper"), routes=("C", "AB"))
        assert info.value.violations == [
            "routes[0]: expected a Route, got 'C'",
            "routes[1]: expected a Route, got 'AB'",
        ]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("observables", None, "observables: expected a mapping, got None"),
            ("observables", 5, "observables: expected a mapping, got 5"),
            ("routes", None, "routes: expected a sequence, got None"),
            ("initial_state", "x", "initial_state.vector: expected numbers, got 'x'"),
            ("initial_state", [1, {}], "initial_state.vector: expected numbers, got [1, {}]"),
            ("initial_state", None, "initial_state.vector: expected numbers, got None"),
            ("initial_state", "1", "initial_state.vector: expected numbers, got '1'"),
            (
                "initial_state",
                [True, False, False],
                "initial_state.vector: expected numbers, got [True, False, False]",
            ),
            ("observables", qutrit_observables(A=None), "observables.A: expected numbers, got None"),
            (
                "observables",
                qutrit_observables(A=[[True, False, False], [False, True, False], [False, False, False]]),
                "observables.A: expected numbers, got "
                "[[True, False, False], [False, True, False], [False, False, False]]",
            ),
        ],
    )
    def test_a_field_that_cannot_be_read_is_refused_by_name(self, field, value, message):
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(builtin("qutrit-paper"), **{field: value})
        assert info.value.violations == [message]

    def test_observable_that_is_not_numbers_is_refused_by_its_label(self):
        s = builtin("qutrit-paper")
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(s, observables={**s.observables, "A": "x", "B": [[{}]]})
        assert info.value.violations == [
            "observables.A: expected numbers, got 'x'",
            "observables.B: expected numbers, got [[{}]]",
        ]

    def test_value_problems_are_all_named_even_past_a_bad_dimension(self):
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(builtin("qutrit-paper"), name=5, system_dim=0, target="Z", tolerance=0)
        assert info.value.violations == [
            "name: expected str, got int",
            "target: unresolved label 'Z'",
            "tolerance: must be positive, got 0",
            "system_dim: must be positive, got 0",
        ]

    def test_dimension_past_the_cap_is_refused_before_any_decomposition(self, monkeypatch):
        s = builtin("qutrit-paper")
        monkeypatch.setattr(scenarios, "spectral_decompose", None)
        matrices = {label: o.matrix for label, o in s.observables.items()}
        with pytest.raises(ValidationError) as info:
            Scenario(s.name, 1100, s.initial_state, matrices, s.routes, s.target)
        assert info.value.violations == ["system_dim: 1100 exceeds the 1024 limit"]

    @pytest.mark.parametrize("dim, kind", [(True, "bool"), (3.0, "float"), ("3", "str")])
    def test_system_dim_that_is_not_an_int_is_refused_as_the_parser_refuses_it(self, dim, kind):
        # Accepted, it would be serialized to a file that parse_scenario refuses.
        s = builtin("qutrit-paper")
        message = f"system_dim: expected int, got {kind}"
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(s, system_dim=dim)
        assert info.value.violations == [message]
        doc = json.loads(serialize_scenario(s))
        doc["system_dim"] = dim
        with pytest.raises(ValidationError) as info:
            parse_scenario(json.dumps(doc))
        assert info.value.violations == [message]

    def test_shape(self):
        assert [f.name for f in dataclasses.fields(Scenario) if f.init] == [
            "name", "system_dim", "initial_state", "observables", "routes", "target", "tolerance"
        ]
        assert [f.name for f in dataclasses.fields(Scenario) if not f.init] == ["_initial_density"]
        assert not any(hasattr(Scenario, m) for m in ("observable_registry", "with_state", "with_tolerance"))


def test_known_fields_are_the_written_keys():
    doc = scenarios.scenario_document(builtin("qutrit-paper"))
    assert tuple(doc) == scenarios._WRITTEN_FIELDS
    assert scenarios._ACCEPTED_FIELDS == scenarios._WRITTEN_FIELDS + ("rule",)
    assert all(tuple(route) == scenarios._ROUTE_FIELDS for route in doc["routes"])


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ["qutrit-paper", "nondegenerate-counterexample", "two-qubit-rafasala"]
    )
    def test_builtin_round_trip_is_exact(self, name):
        first = builtin(name)
        text = serialize_scenario(first)
        second = parse_scenario(text)
        assert second.name == first.name
        assert second.system_dim == first.system_dim
        assert second.target == first.target
        assert second.tolerance == first.tolerance
        assert np.array_equal(second.initial_state, first.initial_state)
        assert set(second.observables) == set(first.observables)
        for label in first.observables:
            assert np.array_equal(second.observables[label].matrix, first.observables[label].matrix)
        assert tuple(r.steps for r in second.routes) == tuple(
            r.steps for r in first.routes
        )
        assert [r.rule for r in second.routes] == [r.rule for r in first.routes]

    def test_random_scenario_round_trip(self):
        rng = np.random.default_rng(111)
        for case in range(5):
            dim = int(rng.integers(2, 5))
            obs = {
                "O1": random_hermitian(rng, dim),
                "O2": random_hermitian(rng, dim),
            }
            s = Scenario(
                name=f"random-{case}",
                system_dim=dim,
                initial_state=random_state(rng, dim),
                observables=obs,
                routes=(
                    Route(("O1",), ProjectionRule.LUDERS, "one"),
                    Route(("O2", "O1"), ProjectionRule.VON_NEUMANN, "two"),
                ),
                target="O1",
                tolerance=float(rng.uniform(1e-10, 1e-6)),
            )
            back = parse_scenario(serialize_scenario(s))
            assert np.array_equal(back.initial_state, s.initial_state)
            for label in obs:
                assert np.array_equal(back.observables[label].matrix, s.observables[label].matrix)
            assert back.tolerance == s.tolerance
            assert [r.rule for r in back.routes] == [r.rule for r in s.routes]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("name", ""),
            ("name", 'é "%s" \\n'),
            ("tolerance", 1),
            ("tolerance", 0.25),
            ("tolerance", 5e-324),
            ("tolerance", 1.7976931348623157e308),
            ("tolerance", np.float64(1e-3)),
        ],
    )
    def test_accepted_name_and_tolerance_parse_back_equal(self, field, value):
        s = dataclasses.replace(builtin("qutrit-paper"), **{field: value})
        assert getattr(parse_scenario(serialize_scenario(s)), field) == value

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("name", 5, "name: expected str, got int"),
            ("name", None, "name: expected str, got NoneType"),
            ("name", ["qutrit"], "name: expected str, got list"),
            ("target", 5, "target: expected str, got int"),
            ("target", ["C"], "target: expected str, got list"),
            ("target", None, "target: expected str, got NoneType"),
            ("tolerance", True, "tolerance: expected number, got bool"),
            ("tolerance", "x", "tolerance: expected number, got str"),
            ("tolerance", None, "tolerance: expected number, got NoneType"),
            pytest.param("tolerance", 10**400, "tolerance: number out of float range", id="int-past-float-range"),
        ],
    )
    def test_refused_name_and_tolerance_give_the_parsers_line(self, field, value, message):
        # Accepted, each would be serialized to a file that parse_scenario refuses.
        s = builtin("qutrit-paper")
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(s, **{field: value})
        assert info.value.violations == [message]
        doc = json.loads(serialize_scenario(s))
        doc[field] = value
        with pytest.raises(ValidationError) as info:
            parse_scenario(json.dumps(doc))
        assert info.value.violations == [message]

    def test_top_level_rule_is_the_default_of_routes_that_name_none(self):
        doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
        del doc["routes"][0]["rule"], doc["routes"][1]["rule"]
        doc["routes"][2]["rule"] = "luders"
        doc["rule"] = "von-neumann"
        s = parse_scenario(json.dumps(doc))
        rules = [ProjectionRule.VON_NEUMANN, ProjectionRule.VON_NEUMANN, ProjectionRule.LUDERS]
        assert [r.rule for r in s.routes] == rules
        text = serialize_scenario(s)
        written = json.loads(text)
        assert "rule" not in written
        assert [r["rule"] for r in written["routes"]] == ["von-neumann", "von-neumann", "luders"]
        assert [r.rule for r in parse_scenario(text).routes] == rules

    def test_density_matrix_state_round_trip(self):
        rng = np.random.default_rng(112)
        s = builtin("qutrit-paper")
        mixed = dataclass_with_density(s, random_density(rng, 3))
        back = parse_scenario(serialize_scenario(mixed))
        assert isinstance(back.initial_state, DensityMatrix)
        assert np.array_equal(back.initial_state.mat, mixed.initial_state.mat)

    def test_serialization_is_deterministic(self):
        s = builtin("two-qubit-rafasala")
        assert serialize_scenario(s) == serialize_scenario(s)
        assert serialize_scenario(s).endswith("\n")


FINITE_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5])
EDGE_FLOATS = FINITE_EDGE_FLOATS | st.sampled_from([float("nan"), float("inf"), float("-inf")])
ARRAYS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=3),
    elements=EDGE_FLOATS | st.floats(),
)
SCALARS = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | EDGE_FLOATS | st.floats() | st.text()
)
# An array beside its negation and its magnitudes: each magnitude written
# with both signs, within one array and across several.
MIRRORED = ARRAYS.map(lambda a: [a, -a, np.concatenate([np.abs(a).ravel(), -a.ravel()])])
DOCUMENTS = st.recursive(
    SCALARS | ARRAYS | MIRRORED,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
PAIR_GRIDS = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.just(2)),
    elements=FINITE_EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False),
)


def as_lists(node):
    if isinstance(node, np.ndarray):
        return node.tolist()
    if isinstance(node, dict):
        return {k: as_lists(v) for k, v in node.items()}
    if isinstance(node, list):
        return [as_lists(v) for v in node]
    return node


class TestWriteJson:
    @settings(max_examples=300, deadline=None)
    @given(doc=DOCUMENTS, pairs=PAIR_GRIDS)
    def test_matches_json_dumps_and_decodes_bit_exactly(self, doc, pairs):
        assert write_json(doc) == json.dumps(as_lists(doc), indent=2) + "\n"
        z = pairs.view(complex)[..., 0]
        problems = []
        back = _decode(json.loads(write_json(encode_complex_array(z))), 2, "m", problems)
        assert problems == []
        # array_equal alone would not see the sign of a zero.
        assert np.array_equal(back.view(np.float64), z.view(np.float64))
        assert np.array_equal(np.signbit(back.view(np.float64)), np.signbit(z.view(np.float64)))

    @pytest.mark.parametrize(
        "doc",
        [
            np.array([0.25, -0.25, 0.0, -0.0, 0.25, -0.0]),
            {"a": np.array([[0.1, -0.0], [-0.1, 0.0]]), "b": [np.array([-0.1, 0.0, -0.0, 0.1]), -0.1]},
            encode_complex_array(random_density(np.random.default_rng(5), 4).mat),
            {"%s": [np.array([-1e-5]), "100%%"], "%d": {"%": 1e-5, "%r": np.array([])}},
        ],
        ids=["one-array", "two-arrays", "density-matrix", "percent-signs"],
    )
    def test_matches_json_dumps_on_chosen_documents(self, doc):
        assert write_json(doc) == json.dumps(as_lists(doc), indent=2) + "\n"


# Numbers a file's array entry may be, the integers among them past int64
# and past the float range; leaves a file may hold that are not numbers; and
# entries that are not [re, im] number pairs.
NUMBER_LEAVES = (
    st.floats() | st.integers(-2, 2) | st.sampled_from([-0.0, 2**63, 10**20, 10**400, -(10**400)])
)
OTHER_LEAVES = st.sampled_from([True, False, None, "1", "x"])
NUMBER_PAIRS = st.lists(NUMBER_LEAVES, min_size=2, max_size=2)
NOT_PAIRS = st.lists(NUMBER_LEAVES, max_size=3).filter(lambda p: len(p) != 2) | NUMBER_LEAVES | OTHER_LEAVES


@st.composite
def pair_nests(draw):
    """A rank, 1 or 2, and a nest of [re, im] pairs of that rank, left well
    formed or given up to two defects: a pair with a leaf that is not a
    number, an entry that is not a pair, a pair added or dropped (rows turn
    ragged or empty), or a row that is not an array."""
    rank = draw(st.integers(1, 2))
    width = draw(st.integers(1, 3))
    height = draw(st.integers(1, 3)) if rank == 2 else 1
    rows = [draw(st.lists(NUMBER_PAIRS, min_size=width, max_size=width)) for _ in range(height)]
    for _ in range(draw(st.integers(0, 2))):
        lists = [row for row in rows if isinstance(row, list) and row]
        if not lists:
            break
        row = draw(st.sampled_from(lists))
        j = draw(st.integers(0, len(row) - 1))
        defect = draw(st.sampled_from(["leaf", "pair", "add", "drop", "row"]))
        if defect == "leaf":
            row[j] = draw(st.permutations([draw(NUMBER_LEAVES), draw(OTHER_LEAVES)]))
        elif defect == "pair":
            row[j] = draw(NOT_PAIRS)
        elif defect == "add":
            row.insert(j, draw(NUMBER_PAIRS))
        elif defect == "drop":
            del row[j]
        else:
            rows[next(i for i, r in enumerate(rows) if r is row)] = draw(OTHER_LEAVES | st.just({}))
    return rank, rows if rank == 2 else rows[0]


class TestDecode:
    @settings(max_examples=1000, deadline=None)
    @given(nest=pair_nests())
    def test_agrees_with_the_entrywise_decoder(self, nest):
        rank, node = nest
        expected_problems, problems = [], []
        expected = (decode_vector if rank == 1 else decode_matrix)(node, "m", expected_problems)
        got = _decode(node, rank, "m", problems)
        assert problems == expected_problems
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.dtype == expected.dtype and got.shape == expected.shape
            # Bit for bit: the sign of a zero and every NaN's bits too.
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def dataclass_with_density(scenario, rho):
    import dataclasses

    return dataclasses.replace(scenario, initial_state=rho)


class TestParseErrors:
    def test_malformed_json(self):
        with pytest.raises(ParseError) as err:
            parse_scenario("{not json")
        assert "line 1" in str(err.value)

    def test_top_level_must_be_object(self):
        with pytest.raises(ParseError):
            parse_scenario("[1, 2, 3]")

    def test_missing_fields_are_all_reported(self):
        with pytest.raises(ValidationError) as err:
            parse_scenario("{}")
        text = str(err.value)
        for field in ("name", "system_dim", "initial_state", "observables", "routes", "target"):
            assert f"{field}: missing required field" in text

    def test_bad_complex_entry_names_the_path(self):
        pair = "expected a [re, im] number pair, got"
        cases = [
            (("initial_state", "vector", 1), "0.5", f"initial_state.vector[1]: {pair} '0.5'"),
            (("initial_state", "vector", 0), [True, 0],
             f"initial_state.vector[0]: {pair} [True, 0]"),
            (("observables", "A", 0, 1), [True, 0], f"observables.A[0][1]: {pair} [True, 0]"),
            (("observables", "A", 2, 0), [0.5, 0, 0], f"observables.A[2][0]: {pair} [0.5, 0, 0]"),
            (("observables", "B", 2, 2), None, f"observables.B[2][2]: {pair} None"),
            (("observables", "C", 1, 0), "1", f"observables.C[1][0]: {pair} '1'"),
            (("observables", "A", 1), [[0.0, 0.0]],
             "observables.A: rows have inconsistent lengths"),
        ]
        for path, value, message in cases:
            doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
            *parents, last = path
            node = doc
            for key in parents:
                node = node[key]
            node[last] = value
            with pytest.raises(ValidationError) as err:
                parse_scenario(json.dumps(doc))
            assert message in err.value.violations

    def test_bad_node_is_clipped_in_its_violation(self):
        pair = "expected a [re, im] number pair, got"
        doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
        doc["observables"]["A"][0][0] = [0.0] * 200000
        doc["routes"][0]["rule"] = [0] * 200000
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert err.value.violations == [
            f"observables.A[0][0]: {pair} [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, ...]",
            "routes[0].rule: unknown projection rule [0, 0, 0, 0, 0, 0, ...] (expected one of: luders, von-neumann)",
        ]
        node = 0.0
        for _ in range(990):
            node = [node]
        problems = []
        _decode([[node]], 2, "observables.A", problems)
        assert problems == [f"observables.A[0][0]: {pair} [[[[[[[...]]]]]]]"]

    def test_nonhermitian_observable_names_the_label(self):
        doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
        doc["observables"]["B"][0][2] = [5.0, 0.0]
        with pytest.raises(ValidationError, match="observables.B: not Hermitian"):
            parse_scenario(json.dumps(doc))

    def test_unnormalized_state_reports_deviation(self):
        doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
        doc["initial_state"]["vector"] = [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ValidationError, match="norm deviates from 1 by 4.142e-01"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.filterwarnings("error")
    def test_state_past_the_float_range_reports_its_true_deviation(self):
        doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
        doc["initial_state"]["vector"] = [[1e200, 0.0], [1e200, 0.0], [0.0, 0.0]]
        with pytest.raises(ValidationError, match=r"^initial_state\.vector: norm deviates from 1 by 1\.414e\+200$"):
            parse_scenario(json.dumps(doc))

    def test_unresolved_route_label(self):
        doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
        doc["routes"][1]["steps"] = ["A", "X"]
        with pytest.raises(ValidationError, match=r"routes\[1\]: unresolved label 'X'"):
            parse_scenario(json.dumps(doc))

    def test_unresolved_target(self):
        doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
        doc["target"] = "Z"
        with pytest.raises(ValidationError, match="target: unresolved label 'Z'"):
            parse_scenario(json.dumps(doc))

    def test_bad_rule_name(self):
        doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
        doc["rule"] = "projective"
        with pytest.raises(ValidationError, match="rule:"):
            parse_scenario(json.dumps(doc))

    def test_ragged_matrix_rows(self):
        doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
        doc["observables"]["A"] = [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        with pytest.raises(ValidationError, match="observables.A"):
            parse_scenario(json.dumps(doc))

    def test_wrong_field_type(self):
        doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
        doc["system_dim"] = "three"
        with pytest.raises(ValidationError, match="system_dim: expected int"):
            parse_scenario(json.dumps(doc))

    def test_negative_tolerance(self):
        doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
        doc["tolerance"] = -1.0
        with pytest.raises(ValidationError, match="tolerance: must be positive"):
            parse_scenario(json.dumps(doc))

    def test_state_needs_exactly_one_representation(self):
        doc = json.loads(serialize_scenario(builtin("qutrit-paper")))
        doc["initial_state"] = {"vector": [[1.0, 0.0]], "density_matrix": [[[1.0, 0.0]]]}
        with pytest.raises(ValidationError, match="exactly one of"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize(
        "rho, message",
        [
            ([[0.5, 1.0], [0.0, 0.5]], "density matrix not Hermitian: max |m - m†| = 1.000e+00"),
            ([[1.0, 0.0], [0.0, 1.0]], "density matrix trace deviates from 1 by 1.000e+00"),
            ([[1.5, 0.0], [0.0, -0.5]], "density matrix has negative eigenvalue -5.000e-01"),
        ],
        ids=["non-hermitian", "trace", "negative"],
    )
    def test_invalid_density_matrix_is_a_violation(self, rho, message):
        doc = json.loads(serialize_scenario(builtin("two-qubit-rafasala")))
        padded = np.pad(np.array(rho, dtype=complex), ((0, 2), (0, 2)))
        doc["initial_state"] = {"density_matrix": encode_complex_array(padded).tolist()}
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert err.value.violations == [f"initial_state.density_matrix: {message}"]

    def test_density_matrix_bug_propagates(self, monkeypatch):
        # only the errors DensityMatrix raises for a bad state become violations
        doc = json.loads(serialize_scenario(builtin("two-qubit-rafasala")))
        doc["initial_state"] = {"density_matrix": encode_complex_array(np.eye(4) / 4).tolist()}

        def broken(mat):
            raise ZeroDivisionError("a bug inside DensityMatrix")

        monkeypatch.setattr(scenarios, "DensityMatrix", broken)
        with pytest.raises(ZeroDivisionError, match="a bug inside DensityMatrix"):
            parse_scenario(json.dumps(doc))
