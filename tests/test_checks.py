"""Every public entry point rejects a bad number with a ValueError that names it.

One table of entry point x bad value: non-numeric, None, complex (Python
and numpy), NaN, inf, an array where a scalar is required, a wrong type
for a roles, grid, angles or distribution argument and a bool for an
integer. The CLI cases at the end check the same inputs as flag values:
exit 2 and one error line, never a traceback.
"""

import re

import numpy as np
import pytest

import topobell as tb
from topobell import closed_form, optics
from topobell.cli import main
from topobell.entangled import PhaseMode

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
    ("phase_retarder", "theta", lambda v: optics.phase_retarder(v)),
    ("mach_zehnder", "theta", lambda v: optics.mach_zehnder(v)),
    ("path_phase_operator", "i_u", lambda v: optics.path_phase_operator(v, 0.0, 1.0)),
    ("path_phase_operator", "mu", lambda v: optics.path_phase_operator(0.5, 0.0, v)),
    ("spin_loop_phase", "mu", lambda v: optics.spin_loop_phase(1, v, 0.5)),
    ("spin_loop_phase", "lam", lambda v: optics.spin_loop_phase(-1, 0.5, v)),
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
