"""Every public entry point rejects a bad number with a ValueError that names it.

One table of entry point x bad value: non-numeric, None, complex (Python
and numpy), NaN, inf, an array where a scalar is required, a wrong type
for a roles, grid, angles or distribution argument and a bool for an
integer. The CLI cases check the same inputs as flag values: exit 2 and
one error line, never a traceback. The properties at the end draw any
value for the phase spec, the angles of ``run_scenario`` and
``BellAngles`` and the fields of ``GridSpec``: each input gives a valid
object or distribution, or a ValueError, and NaN or inf always the error.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topobell as tb
from topobell import _checks, closed_form, optics
from topobell.cli import main
from topobell.entangled import _SPEC_MODE, PhaseMode

ROLES = tb.RoleAssignment.STANDARD
C_FIELDS = {"mu": 1.0, "lambda_l": 0.3, "lambda_r": 0.0}

#: Bad values by label; "shape" and "list" are only bad where a scalar is required.
BAD = {
    "text": "x",
    "none": None,
    "complex": 1j,
    "numpy-complex": np.complex128(0.5),
    "nan": np.nan,
    "inf": np.inf,
    "huge-int": 10 ** 400,
    "ragged": [1.0, [2.0, 3.0]],
    "shape": np.array([0.1, 0.2]),
    "list": [1, 2],
}
ARRAY_BAD = [label for label in BAD if label not in ("shape", "list")]

#: (entry point, name of the argument the bad value goes into, call with it).
SCALAR_ENTRIES = [
    ("run_scenario", "theta_l", lambda v: tb.run_scenario(tb.Scenario.B, v, 0.0)),
    ("run_scenario", "theta_r", lambda v: tb.run_scenario(tb.Scenario.A, 0.0, v)),
    ("TopoPhaseSpec", "mu",
     lambda v: tb.TopoPhaseSpec(PhaseMode.SPIN_CONDITIONED, mu=v, lambda_l=0.0, lambda_r=0.0)),
    ("TopoPhaseSpec", "i_d_r",
     lambda v: tb.TopoPhaseSpec(PhaseMode.PATH_INTEGRALS, mu=1.0, i_u_l=0.0, i_d_l=0.0,
                                i_u_r=0.0, i_d_r=v)),
    ("TopoPhaseSpec.spin_conditioned", "lambda_l",
     lambda v: tb.TopoPhaseSpec.spin_conditioned(1.0, v, 0.0)),
    ("TopoPhaseSpec.aharonov_bohm", "flux", lambda v: tb.TopoPhaseSpec.aharonov_bohm(v)),
    ("TopoPhaseSpec.path_integrals", "i_u_l",
     lambda v: tb.TopoPhaseSpec.path_integrals(1.0, v, 0.0, 0.0, 0.0)),
    ("BellAngles", "theta_l", lambda v: tb.BellAngles(v, 0.0, 0.0, 0.0)),
    ("BellAngles", "theta_rp", lambda v: tb.BellAngles(0.0, 0.0, 0.0, v)),
    ("chsh_S", "c", lambda v: tb.chsh_S(tb.canonical_angles(), v, ROLES)),
    ("analytic_max_S", "c", lambda v: tb.analytic_max_S(v)),
    ("analytic_optimal_angles", "mu_lambda", lambda v: tb.analytic_optimal_angles(v)),
    ("grid_search_max_S", "c", lambda v: tb.grid_search_max_S(v, ROLES)),
    ("GridSpec", "shrink_factor", lambda v: tb.GridSpec(shrink_factor=v)),
    ("stationarity_check", "h",
     lambda v: tb.stationarity_check(tb.canonical_angles(), 0.5, ROLES, h=v)),
    ("stationarity_check", "c",
     lambda v: tb.stationarity_check(tb.canonical_angles(), v, ROLES, h=1e-4)),
    ("brute_force_distribution", "theta_l",
     lambda v: tb.brute_force_distribution(tb.Scenario.B, v, 0.0)),
    ("brute_force_distribution", "theta_r",
     lambda v: tb.brute_force_distribution(tb.Scenario.C, 0.0, v,
                                           tb.TopoPhaseSpec.spin_conditioned(1.0, 0.3, 0.0))),
    ("scenario_a_distribution", "theta_l", lambda v: closed_form.scenario_a_distribution(v, 0.0)),
    ("scenario_b_distribution", "theta_r", lambda v: closed_form.scenario_b_distribution(0.0, v)),
    ("scenario_c_distribution", "two_mu_lambda",
     lambda v: closed_form.scenario_c_distribution(0.0, 0.0, v)),
]

ARRAY_ENTRIES = [
    ("scenario_probabilities", "theta_l",
     lambda v: tb.scenario_probabilities(tb.Scenario.B, v, 0.0)),
    ("scenario_probabilities", "mu",
     lambda v: tb.scenario_probabilities(tb.Scenario.C, 0.0, 0.0, **{**C_FIELDS, "mu": v})),
    ("brute_force_probabilities", "theta_r",
     lambda v: tb.brute_force_probabilities(tb.Scenario.B, 0.0, v)),
    ("brute_force_probabilities", "flux",
     lambda v: tb.brute_force_probabilities(tb.Scenario.AB, 0.0, 0.0, flux=v)),
    ("chsh_S_values", "theta_lp",
     lambda v: tb.chsh.chsh_S_values(0.0, 0.1, v, 0.3, 0.5, ROLES)),
    ("chsh_S_values", "c", lambda v: tb.chsh.chsh_S_values(0.0, 0.1, 0.2, 0.3, v, ROLES)),
    ("expectation_closed_form", "theta_l", lambda v: tb.expectation_closed_form(v, 0.0, 0.5)),
    ("expectation_closed_form", "c", lambda v: tb.expectation_closed_form(0.3, 0.0, v)),
    ("contrast", "mu_lambda", lambda v: tb.contrast(v)),
    ("fixed_angle_curve_S", "mu_lambda", lambda v: tb.fixed_angle_curve_S(v)),
    ("scenario_b_probabilities", "theta_l",
     lambda v: closed_form.scenario_b_probabilities(v, 0.0)),
    ("scenario_c_probabilities", "theta_r",
     lambda v: closed_form.scenario_c_probabilities(0.0, v, 0.0)),
    ("phase_retarder", "theta", lambda v: optics.phase_retarder(v)),
    ("mach_zehnder", "theta", lambda v: optics.mach_zehnder(v)),
    ("path_phase_operator", "i_u", lambda v: optics.path_phase_operator(v, 0.0, 1.0)),
    ("path_phase_operator", "mu", lambda v: optics.path_phase_operator(0.5, 0.0, v)),
    ("spin_loop_phase", "mu", lambda v: optics.spin_loop_phase(1, v, 0.5)),
    ("spin_loop_phase", "lam", lambda v: optics.spin_loop_phase(-1, 0.5, v)),
]

#: (entry point, argument, label, bad value, call): a wrong type, or a bool for an integer.
TYPE_ENTRIES = [
    ("grid_search_max_S", "roles", "text", "standard", lambda v: tb.grid_search_max_S(0.5, v)),
    ("grid_search_max_S", "roles", "none", None, lambda v: tb.grid_search_max_S(0.5, v)),
    ("grid_search_max_S", "grid", "dict", {}, lambda v: tb.grid_search_max_S(0.5, ROLES, v)),
    ("grid_search_max_S", "grid", "int", 24, lambda v: tb.grid_search_max_S(0.5, ROLES, v)),
    ("stationarity_check", "roles", "text", "standard",
     lambda v: tb.stationarity_check(tb.canonical_angles(), 0.5, v, 1e-4)),
    ("stationarity_check", "angles", "tuple", (0.0, 0.5, 0.25, 0.75),
     lambda v: tb.stationarity_check(v, 0.5, ROLES, 1e-4)),
    ("GridSpec", "points_per_angle", "bool", True, lambda v: tb.GridSpec(points_per_angle=v)),
    ("GridSpec", "refinement_rounds", "bool", True, lambda v: tb.GridSpec(refinement_rounds=v)),
    ("GridSpec", "budget", "bool", True, lambda v: tb.GridSpec(budget=v)),
    ("chsh_S", "roles", "text", "standard", lambda v: tb.chsh_S(tb.canonical_angles(), 0.5, v)),
    ("chsh_S", "angles", "tuple", (0.0, 1.0, 2.0, 3.0), lambda v: tb.chsh_S(v, 0.5, ROLES)),
    ("chsh_S_values", "roles", "text", "standard",
     lambda v: tb.chsh.chsh_S_values(0, 0, 0, 0, 0.5, v)),
    ("chsh_terms", "roles", "text", "standard",
     lambda v: tb.chsh.chsh_terms(tb.canonical_angles(), 0.5, v)),
    ("chsh_terms", "angles", "tuple", (0.0, 1.0, 2.0, 3.0),
     lambda v: tb.chsh.chsh_terms(v, 0.5, ROLES)),
    ("expectation_from_distribution", "dist", "tuple", (0.25,) * 4,
     lambda v: tb.expectation_from_distribution(v)),
]

CASES = ([pytest.param(call, name, BAD[label], id=f"{entry}-{name}-{label}")
          for entry, name, call in SCALAR_ENTRIES for label in BAD]
         + [pytest.param(call, name, BAD[label], id=f"{entry}-{name}-{label}")
            for entry, name, call in ARRAY_ENTRIES for label in ARRAY_BAD]
         + [pytest.param(call, name, bad, id=f"{entry}-{name}-{label}")
            for entry, name, label, bad, call in TYPE_ENTRIES])


@pytest.mark.parametrize("call, name, bad", CASES)
def test_bad_value_is_a_value_error_naming_the_argument(call, name, bad):
    with pytest.raises(ValueError) as excinfo:
        call(bad)
    assert re.search(rf"\b{re.escape(name)}\b", str(excinfo.value)), str(excinfo.value)


@pytest.mark.parametrize("call, name", [pytest.param(call, name, id=f"{entry}-{name}")
                                        for entry, name, call in ARRAY_ENTRIES])
def test_complex_array_is_rejected_not_cast(call, name):
    with pytest.raises(ValueError, match=rf"\b{re.escape(name)}\b"):
        call(np.array([0.3 + 1j]))


def test_no_bound_means_any_real_float():
    values = [np.inf, -np.inf, 1e308, -2.0]
    out = _checks.finite_array("x", values, None)
    assert out.dtype == float and np.array_equal(out, values)
    assert np.isnan(_checks.finite_array("x", np.nan, None))
    assert _checks.finite_scalar("x", np.inf, None) == np.inf
    for bad in ("x", None, 1j, [1.0, [2.0]], 10 ** 400):
        with pytest.raises(ValueError, match=r"\bx must be real"):
            _checks.finite_array("x", bad, None)


#: Each optics constructor with arguments whose shapes do not broadcast.
UNBROADCASTABLE = {
    "path_phase_operator": lambda: optics.path_phase_operator(np.zeros(2), np.zeros(3), 1.0),
    "path_phase_operator-mu": lambda: optics.path_phase_operator(np.zeros(2), 0.0,
                                                                 np.ones(3)),
    "spin_loop_phase": lambda: optics.spin_loop_phase(1, np.ones(2), np.zeros(3)),
}


@pytest.mark.parametrize("call", UNBROADCASTABLE.values(), ids=list(UNBROADCASTABLE))
def test_optics_shapes_that_do_not_broadcast_are_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_optics_constructors_take_lists_as_arrays():
    assert optics.phase_retarder([0.1, 0.2]).shape == (2, 2, 2)
    assert optics.mach_zehnder([[0.1], [0.2]]).shape == (2, 1, 2, 2)
    assert optics.path_phase_operator([0.1, 0.2], 0.0, 1.0).shape == (2, 2, 2)
    assert optics.spin_loop_phase(-1, [1, 2], 0.5).shape == (2,)
    assert type(optics.spin_loop_phase(1, 1, 0.5)) is complex


@pytest.mark.parametrize("value", [True, "1", 1, np.float32(1.0), np.array(1.0)],
                         ids=["bool", "str", "int", "float32", "0-d-array"])
def test_phase_spec_fields_are_stored_as_floats(value):
    specs = [tb.TopoPhaseSpec(PhaseMode.SPIN_CONDITIONED, mu=value, lambda_l=0, lambda_r=0),
             tb.TopoPhaseSpec.spin_conditioned(value, 0, 0)]
    for spec in specs:
        assert type(spec.mu) is float and spec.mu == 1.0
        assert spec.field_values() == {"mu": 1.0, "lambda_l": 0.0, "lambda_r": 0.0}
        assert all(type(v) is float for v in spec.field_values().values())


@pytest.mark.parametrize("bad", [BAD["text"], BAD["none"], BAD["complex"], BAD["list"],
                                 np.array([0.5]), np.complex128(0.5), np.complex64(0.5)],
                         ids=["text", "none", "complex", "list", "one-entry-array",
                              "complex128", "complex64"])
def test_detection_distribution_rejects_a_non_real_probability(bad):
    with pytest.raises(ValueError, match="probabilities must be real numbers"):
        tb.DetectionDistribution(bad, 0.5, 0.0, 0.0)


def test_bell_angles_and_shrink_factor_are_stored_as_floats():
    angles = tb.BellAngles(np.float64(0.5), 1, True, "0.25")
    assert angles.as_tuple() == (0.5, 1.0, 1.0, 0.25)
    assert all(type(v) is float for v in angles.as_tuple())
    spec = tb.GridSpec(shrink_factor="0.5")
    assert type(spec.shrink_factor) is float and spec.shrink_factor == 0.5


def _cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: Flags that argparse parses as numbers, each in a command that is otherwise valid.
FLAG_COMMANDS = [
    ("--theta-l", ["simulate", "--scenario", "B", "--theta-r", "0"]),
    ("--flux", ["simulate", "--scenario", "AB", "--theta-l", "0", "--theta-r", "0"]),
    ("--mu", ["simulate", "--scenario", "C", "--theta-l", "0", "--theta-r", "0"]),
    ("--min", ["sweep", "--max", "1", "--points", "2"]),
    ("--lambda-l", ["optimize"]),
]


@pytest.mark.parametrize("flag, argv", FLAG_COMMANDS, ids=[f for f, _ in FLAG_COMMANDS])
@pytest.mark.parametrize("text", ["x", "None", "1j", "nan", "inf", "-inf"])
def test_cli_rejects_a_bad_number_flag(capsys, flag, argv, text):
    code, out, err = _cli(capsys, *argv, f"{flag}={text}")
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert f"argument {flag}" in err.splitlines()[-1]


@pytest.mark.parametrize("argv, fragment", [
    (["optimize", "--mu", "1e308", "--lambda-l", "1e308"], "mu_lambda"),
    (["sweep", "--min=-1e308", "--max", "1e308", "--points", "2"], "--max - --min"),
    (["sweep", "--min", "1e308", "--max", "1.5e308", "--points", "2"], "mu_lambda"),
    (["simulate", "--scenario", "A", "--theta-l", "0", "--theta-r", "0",
      "--mu", "1e308", "--i-u-l", "1e308"], "i_u_l"),
])
def test_cli_rejects_a_value_the_library_rejects_in_one_line(capsys, argv, fragment):
    code, out, err = _cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and fragment in err


def test_scenario_a_rejects_an_angle_difference_that_overflows():
    with pytest.raises(ValueError, match="theta_l - theta_r"):
        closed_form.scenario_a_distribution(1e308, -1e308)


# ---- the boundary, as properties -------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
non_finite = st.sampled_from([np.nan, np.inf, -np.inf]).flatmap(
    lambda v: st.sampled_from([v, np.float64(v), np.array(v), str(v)]))
#: Any value a caller might pass for a number: the table's bad values, non-finite
#: floats, integers past float range, bools, text and complex numbers.
anything = st.one_of(
    st.floats(), st.floats().map(np.float64), st.integers(-10 ** 400, 10 ** 400),
    st.booleans(), st.text(max_size=3), st.complex_numbers(allow_nan=False),
    st.sampled_from(list(BAD.values())),
)


def _inputs(data, names):
    """Finite floats for ``names``; in about half the draws one of them is ``anything``."""
    inputs = {name: data.draw(finite, label=name) for name in names}
    if data.draw(st.booleans()):
        inputs[data.draw(st.sampled_from(names))] = data.draw(anything, label="odd value")
    return inputs


def _assert_finite_floats(values):
    assert all(type(v) is float and math.isfinite(v) for v in values)


def _spec_and_distribution(scenario, mode, inputs):
    """The spec of ``mode`` (None for None) from ``inputs``, then ``run_scenario`` at its angles."""
    fields = {name: inputs[name] for name in tb.TopoPhaseSpec._FIELDS_BY_MODE.get(mode, ())}
    topo = None if mode is None else tb.TopoPhaseSpec(mode, **fields)
    if topo is not None:
        _assert_finite_floats(topo.field_values().values())
        assert list(topo.field_values()) == list(fields)
    return tb.run_scenario(scenario, inputs["theta_l"], inputs["theta_r"], topo)


@given(data=st.data(), scenario=st.sampled_from(list(tb.Scenario)),
       mode=st.sampled_from([None, *PhaseMode]))
@settings(max_examples=80, deadline=None)
def test_phase_spec_and_run_scenario_give_a_distribution_or_reject(data, scenario, mode):
    names = ["theta_l", "theta_r", *tb.TopoPhaseSpec._FIELDS_BY_MODE.get(mode, ())]
    try:
        dist = _spec_and_distribution(scenario, mode, _inputs(data, names))
    except ValueError:
        return
    p = dist.as_array()
    assert np.all((p >= 0.0) & (p <= 1.0)) and abs(p.sum() - 1.0) <= 1e-12


@given(data=st.data(), scenario=st.sampled_from(list(tb.Scenario)), bad=non_finite)
@settings(max_examples=40, deadline=None)
def test_phase_spec_and_run_scenario_reject_nan_and_inf(data, scenario, bad):
    mode = _SPEC_MODE[scenario]
    names = ["theta_l", "theta_r", *tb.TopoPhaseSpec._FIELDS_BY_MODE.get(mode, ())]
    inputs = {name: data.draw(finite, label=name) for name in names}
    inputs[data.draw(st.sampled_from(names))] = bad
    with pytest.raises(ValueError):
        _spec_and_distribution(scenario, mode, inputs)


ANGLE_SLOTS = ["theta_l", "theta_r", "theta_lp", "theta_rp"]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_bell_angles_are_four_finite_floats_or_rejected(data):
    try:
        angles = tb.BellAngles(**_inputs(data, ANGLE_SLOTS))
    except ValueError:
        return
    _assert_finite_floats(angles.as_tuple())


@given(data=st.data(), bad=non_finite)
@settings(max_examples=20, deadline=None)
def test_bell_angles_reject_nan_and_inf(data, bad):
    inputs = {name: data.draw(finite, label=name) for name in ANGLE_SLOTS}
    inputs[data.draw(st.sampled_from(ANGLE_SLOTS))] = bad
    with pytest.raises(ValueError):
        tb.BellAngles(**inputs)


grid_counts = st.integers(-3, 40) | st.integers(-10 ** 30, 10 ** 30)
grid_fields = {"points_per_angle": grid_counts, "refinement_rounds": grid_counts,
               "shrink_factor": st.floats(-0.5, 1.5), "budget": grid_counts}


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_grid_spec_is_valid_or_rejected(data):
    inputs = {name: data.draw(values, label=name) for name, values in grid_fields.items()}
    if data.draw(st.booleans()):
        inputs[data.draw(st.sampled_from(sorted(inputs)))] = data.draw(anything, label="odd value")
    try:
        spec = tb.GridSpec(**inputs)
    except ValueError:
        return
    assert spec.points_per_angle >= 2 and spec.refinement_rounds >= 0 and spec.budget > 0
    _assert_finite_floats([spec.shrink_factor])
    assert 0.0 < spec.shrink_factor < 1.0
    assert spec.total_evaluations() == spec.points_per_angle ** 2 * (spec.refinement_rounds + 1)


@given(name=st.sampled_from(sorted(grid_fields)), bad=non_finite)
@settings(max_examples=20, deadline=None)
def test_grid_spec_rejects_nan_and_inf(name, bad):
    with pytest.raises(ValueError):
        tb.GridSpec(**{name: bad})
