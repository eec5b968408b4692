import argparse
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from topobell import chsh, cli, closed_form
from topobell.cli import (_angle_arg, _build_parser, _finite_arg, _flag, _positive_int_arg,
                          main)

#: Golden stdout files of the simulate, sweep and optimize commands, byte for byte.
GOLDEN = Path(__file__).parent / "golden"
GOLDENS = [
    ("sweep_readme.csv", ["sweep", "--min", "0", "--max", "3.14159", "--points", "25"]),
    ("sweep_literal.json", ["sweep", "--min", "0.1", "--max", "1.3", "--points", "4",
                            "--format", "json"]),
    # the default method, as the README runs it
    *((f"optimize_analytic_{roles}.json",
       ["optimize", "--method", "analytic", "--mu", "1", "--lambda-l", "0.3", "--roles", roles])
      for roles in ("standard", "literal")),
    ("optimize_grid_standard.json", ["optimize", "--method", "grid", "--mu", "1",
                                     "--lambda-l", "0.3", "--roles", "standard"]),
    ("optimize_grid_literal.json", ["optimize", "--method", "grid", "--mu", "1",
                                    "--lambda-l", "0.3", "--roles", "literal"]),
    # c = 1, -1 and 0 (to rounding), where the maximisers form continuous families and the
    # search's first-maximum rule picks the printed angles
    *((f"optimize_grid_{name}_{roles}.json",
       ["optimize", "--method", "grid", "--mu", "1", "--lambda-l", lambda_l, "--roles", roles])
      for name, lambda_l in (("c1", "0"), ("cminus1", "1.5707963267948966"),
                             ("c0", "0.7853981633974483"))
      for roles in ("standard", "literal")),
    ("simulate_a.json", ["simulate", "--scenario", "A", "--theta-l", "0.3", "--theta-r", "1.1"]),
    ("simulate_a_integrals.json", ["simulate", "--scenario", "A", "--theta-l", "0.3",
                                   "--theta-r", "1.1", "--mu", "0.7", "--i-u-l", "0.3",
                                   "--i-d-l", "-1.1", "--i-u-r", "2.0", "--i-d-r", "0.4"]),
    ("simulate_b.json", ["simulate", "--scenario", "B", "--theta-l", "0.4", "--theta-r", "2.2"]),
    ("simulate_c.json", ["simulate", "--scenario", "C", "--theta-l", "0.3", "--theta-r", "1.1",
                         "--mu", "1.3", "--lambda-l", "0.7", "--lambda-r", "-0.4"]),
    ("simulate_ab.csv", ["simulate", "--scenario", "AB", "--theta-l", "0.3", "--theta-r", "1.1",
                         "--flux", "2.1", "--format", "csv"]),
]


#: Every phase flag's field, and the fields each scenario accepts in record order.
PHASE_FIELDS = ["mu", "lambda_l", "lambda_r", "flux", "i_u_l", "i_d_l", "i_u_r", "i_d_r"]
SCENARIO_FIELDS = {
    "A": ["mu", "i_u_l", "i_d_l", "i_u_r", "i_d_r"],
    "B": [],
    "C": ["mu", "lambda_l", "lambda_r"],
    "AB": ["flux"],
}

#: Golden stdout of ``verify --budget 1000``, byte for byte.
VERIFY_BUDGET_1000 = (
    "linalg-unitarity: PASS  worst residual 2.229e-16 (tol 1.0e-12)\n"
    "optics-compact-form: PASS  worst residual 3.564e-15 (tol 1.0e-12)\n"
    "distribution-validity: PASS  worst residual 1.776e-15 (tol 1.0e-12)\n"
    "scenario-b-closed-form: PASS  worst residual 7.772e-16 (tol 1.0e-12)\n"
    "scenario-c-closed-form: PASS  worst residual 8.882e-16 (tol 1.0e-12)\n"
    "scenario-c-gauge: PASS  worst residual 6.106e-16 (tol 1.0e-12)\n"
    "scenario-a-topo-invariance: PASS  worst residual 3.331e-16 (tol 1.0e-12)\n"
    "scenario-ab-reduction: PASS  worst residual 4.441e-16 (tol 1.0e-12)\n"
    "degiorgio-offset: PASS  worst residual 4.441e-16 (tol 1.0e-12)\n"
    "oracle-equivalence: PASS  worst residual 7.772e-16 (tol 1.0e-12)\n"
    "chsh-consistency: PASS  worst residual 1.554e-15 (tol 1.0e-12)\n"
    "chsh-bounds: PASS  worst residual 8.882e-16 (tol 1.0e-09)\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def any_exit(capsys, *argv):
    """Exit code, stdout and stderr of any invocation, usage errors and --help included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_exit(capsys, *argv):
    """Exit code and stderr of an invocation that argparse or main may reject."""
    code, out, err = any_exit(capsys, *argv)
    assert out == ""
    return code, err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestSimulate:
    def test_scenario_b_quarter_wave(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--scenario", "B",
                               "--theta-l", "0", "--theta-r", "1.5707963267948966")
        assert code == 0
        record = json.loads(out)[0]
        assert record["p_d0p_d0"] == pytest.approx(0.25, abs=1e-11)
        assert record["norm_residual"] < 1e-11

    def test_scenario_c_half_turn_loop(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--scenario", "C",
                               "--theta-l", "1.5707963267948966",
                               "--theta-r", "1.5707963267948966",
                               "--mu", "1", "--lambda-l", "1.5707963267948966",
                               "--lambda-r", "0")
        assert code == 0
        record = json.loads(out)[0]
        assert record["p_d0p_d0"] == pytest.approx(0.5, abs=1e-11)
        assert record["mu_lambda"] == pytest.approx(np.pi / 2, abs=1e-11)

    def test_scenario_ab_equals_scenario_b(self, capsys):
        _, out_ab, _ = run_cli(capsys, "simulate", "--scenario", "AB",
                               "--theta-l", "0.4", "--theta-r", "2.2",
                               "--flux", "1.7")
        _, out_b, _ = run_cli(capsys, "simulate", "--scenario", "B",
                              "--theta-l", "0.4", "--theta-r", "2.2")
        ab = json.loads(out_ab)[0]
        b = json.loads(out_b)[0]
        for key in ("p_d0p_d0", "p_d0p_d1", "p_d1p_d0", "p_d1p_d1", "expectation"):
            assert ab[key] == pytest.approx(b[key], abs=1e-12)

    def test_degree_suffix(self, capsys):
        _, out_deg, _ = run_cli(capsys, "simulate", "--scenario", "B",
                                "--theta-l", "0", "--theta-r", "90deg")
        _, out_rad, _ = run_cli(capsys, "simulate", "--scenario", "B",
                                "--theta-l", "0", "--theta-r", str(np.pi / 2))
        assert json.loads(out_deg)[0]["p_d0p_d0"] == pytest.approx(
            json.loads(out_rad)[0]["p_d0p_d0"], abs=1e-12)

    @pytest.mark.parametrize("flag", ["--theta-l", "--theta-r"])
    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_degrees_whose_product_with_pi_overflows(self, capsys, flag, sign):
        # 1e308 * pi overflows; 1e308 / 180 * pi is a finite angle
        code, out, err = run_cli(capsys, "simulate", "--scenario", "B", "--theta-l", "0",
                                 "--theta-r", "0", f"{flag}={sign}1e308deg")
        assert (code, err) == (0, "")
        assert f'"{flag[2:].replace("-", "_")}": {sign}1.745329251994e+306,' in out

    @given(degrees=st.floats(-5e307, 5e307))
    def test_degrees_keep_the_bits_of_the_left_to_right_product(self, degrees):
        # dividing by 180 first would move the last bit of about a third of all angles
        assert repr(_angle_arg(f"{degrees!r}deg")) == repr(degrees * np.pi / 180.0)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--scenario", "B",
                               "--theta-l", "0", "--theta-r", "0", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "scenario"
        assert len(rows) == 1
        assert float(rows[0]["p_d1p_d0"]) == pytest.approx(0.5, abs=1e-11)

    @pytest.mark.parametrize("flag", [f"--{name.replace('_', '-')}" for name in PHASE_FIELDS])
    @pytest.mark.parametrize("scenario", list(SCENARIO_FIELDS))
    def test_mode_mismatched_flags_are_rejected(self, capsys, scenario, flag):
        fields = SCENARIO_FIELDS[scenario]
        name = flag[2:].replace("-", "_")
        code, out, err = run_cli(capsys, "simulate", "--scenario", scenario,
                                 "--theta-l", "0", "--theta-r", "0", flag, "0.5")
        if name not in fields:
            assert code == 2
            assert out == ""
            assert err.count("\n") == 1
            assert flag in err
            return
        assert code == 0 and err == ""
        record = json.loads(out)[0]
        # the mode's fields follow the angles in order; mu defaults to 1, the rest to 0
        assert list(record)[3:3 + len(fields)] == fields
        for field in fields:
            default = 1.0 if field == "mu" else 0.0
            assert record[field] == (0.5 if field == name else default)

    @pytest.mark.parametrize("scenario, name", [(scenario, name)
                                                for scenario, fields in SCENARIO_FIELDS.items()
                                                for name in fields])
    def test_a_negative_zero_phase_flag_keeps_its_sign(self, capsys, scenario, name):
        flag = f"--{name.replace('_', '-')}=-0"
        code, out, _ = run_cli(capsys, "simulate", "--scenario", scenario,
                               "--theta-l", "0.3", "--theta-r", "1.1", flag)
        assert code == 0
        record = json.loads(out)[0]
        assert record[name] == 0.0 and np.signbit(record[name])
        others = [field for field in SCENARIO_FIELDS[scenario] if field != name]
        assert not any(np.signbit(record[field]) for field in others)

    def test_invalid_angle_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--scenario", "B", "--theta-l", "abc", "--theta-r", "0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "nandeg"])
    def test_non_finite_angle_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--scenario", "B", f"--theta-l={value}", "--theta-r", "0"])
        assert excinfo.value.code == 2
        assert "invalid angle" in capsys.readouterr().err


    @pytest.mark.parametrize("flags", [
        ["--scenario", "C", "--mu", "nan", "--lambda-l", "0", "--lambda-r", "0"],
        ["--scenario", "C", "--mu", "1", "--lambda-l=-inf"],
        ["--scenario", "C", "--mu", "1", "--lambda-r", "1e309"],
        ["--scenario", "AB", "--flux", "inf"],
        ["--scenario", "A", "--i-u-l", "nan"],
        ["--scenario", "A", "--i-d-l", "inf"],
        ["--scenario", "A", "--i-u-r=-inf"],
        ["--scenario", "A", "--i-d-r", "nan"],
    ])
    def test_non_finite_phase_flag_is_a_usage_error(self, capsys, flags):
        code, err = usage_exit(capsys, "simulate", "--theta-l", "0", "--theta-r", "0", *flags)
        assert code == 2
        assert "invalid finite number" in err

    @pytest.mark.parametrize("flags, phase", [
        (["--scenario", "C", "--mu", "1e308", "--lambda-l", "1e308", "--lambda-r", "0"],
         "mu*lambda_l"),
        (["--scenario", "C", "--mu", "1", "--lambda-l", "1e308", "--lambda-r=-1e308"],
         "mu*(lambda_l - lambda_r)"),
        (["--scenario", "A", "--mu", "1e308", "--i-u-l", "1e308"], "mu*i_u_l"),
    ])
    def test_overflowing_phase_product_is_a_usage_error(self, capsys, flags, phase):
        code, err = usage_exit(capsys, "simulate", "--theta-l", "0", "--theta-r", "0", *flags)
        assert code == 2
        assert err.count("\n") == 1
        assert phase in err


class TestSweep:
    def test_full_contrast_endpoints(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--min", "0",
                               "--max", str(np.pi), "--points", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["mu_lambda", "c", "s_fixed_angles", "s_max_analytic",
                          "s_max_grid", "theta_r_opt"]
        assert len(rows) == 3
        for row in rows:
            # |cos| = 1 at 0, pi/2 and pi
            assert float(row["s_fixed_angles"]) == pytest.approx(2 * np.sqrt(2), abs=1e-11)

    def test_second_point_at_zero_contrast(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--min", "0",
                            "--max", str(np.pi / 4), "--points", "2")
        _, rows = parse_csv(out)
        assert float(rows[1]["s_fixed_angles"]) == pytest.approx(np.sqrt(2), abs=1e-11)
        assert float(rows[1]["s_max_grid"]) == pytest.approx(2.0, abs=1e-6)

    def test_csv_round_trips_against_fresh_computation(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--min", "0.1",
                            "--max", "1.3", "--points", "4")
        _, rows = parse_csv(out)
        for row in rows:
            mu_lambda = float(row["mu_lambda"])
            assert float(row["c"]) == pytest.approx(chsh.contrast(mu_lambda), abs=1e-12)
            assert float(row["s_fixed_angles"]) == pytest.approx(
                chsh.fixed_angle_curve_S(mu_lambda), abs=1e-12)
            assert float(row["s_max_analytic"]) == pytest.approx(
                chsh.analytic_max_S(chsh.contrast(mu_lambda)), abs=1e-12)
            assert float(row["theta_r_opt"]) == pytest.approx(
                chsh.analytic_optimal_angles(mu_lambda).theta_r, abs=1e-12)

    def test_grid_column_between_curve_and_analytic(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--min", "0", "--max", "1.0",
                            "--points", "3")
        _, rows = parse_csv(out)
        for row in rows:
            grid, analytic = float(row["s_max_grid"]), float(row["s_max_analytic"])
            assert grid <= analytic + 1e-6
            assert float(row["s_fixed_angles"]) <= grid + 1e-6

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "sweep", "--min", "0", "--max", "1", "--points", "3")
        _, second, _ = run_cli(capsys, "sweep", "--min", "0", "--max", "1", "--points", "3")
        assert first == second

    def test_json_mirrors_csv(self, capsys):
        args = ["sweep", "--min", "0", "--max", "1", "--points", "2"]
        _, csv_out, _ = run_cli(capsys, *args)
        _, json_out, _ = run_cli(capsys, *args, "--format", "json")
        _, rows = parse_csv(csv_out)
        objects = json.loads(json_out)
        assert len(objects) == len(rows) == 2
        for obj, row in zip(objects, rows):
            assert list(obj.keys()) == list(row.keys())
            for key in obj:
                assert obj[key] == pytest.approx(float(row[key]), abs=1e-12)

    def test_grid_maximum_matches_analytic_near_zero_contrast(self, capsys):
        # near c = 0 the maximum exceeds 2 by only about c², which a coarse grid can miss
        code, out, _ = run_cli(capsys, "sweep", "--min", "0.7835", "--max", "0.786",
                               "--points", "6")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 6
        for row in rows:
            assert abs(float(row["s_max_grid"]) - float(row["s_max_analytic"])) <= 1e-6

    def test_budget_exceeded_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--min", "0", "--max", "1",
                                 "--points", "5", "--budget", "17279")
        assert (code, out) == (1, "")
        assert err == "error: sweep needs 17280 grid evaluations, budget is 17279\n"

    def test_a_budget_of_exactly_the_needed_evaluations_passes(self, capsys):
        args = ["sweep", "--min", "0", "--max", "1", "--points", "5"]
        code, out, err = run_cli(capsys, *args, "--budget", "17280")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *args)[1]

    @pytest.mark.parametrize("points", [2, 3, 4])
    def test_the_budget_needed_is_3456_evaluations_a_point(self, capsys, points):
        args = ["sweep", "--min", "0", "--max", "1", "--points", str(points)]
        needed = 3456 * points
        code, out, err = run_cli(capsys, *args, "--budget", str(needed - 1))
        assert (code, out) == (1, "")
        assert err == f"error: sweep needs {needed} grid evaluations, budget is {needed - 1}\n"
        code, out, err = run_cli(capsys, *args, "--budget", str(needed))
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *args)[1]

    def test_the_budget_is_checked_against_the_searchs_evaluations(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_EVALUATIONS", 1152)
        args = ["sweep", "--min", "0", "--max", "1", "--points", "2"]
        code, out, err = run_cli(capsys, *args, "--budget", "2303")
        assert (code, out) == (1, "")
        assert err == "error: sweep needs 2304 grid evaluations, budget is 2303\n"
        assert run_cli(capsys, *args, "--budget", "2304")[0] == 0

    def test_bad_range_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--min", "2", "--max", "1", "--points", "3")
        assert code == 2
        assert "--min" in err

    def test_roles_is_not_a_sweep_option(self, capsys):
        code, err = usage_exit(capsys, "sweep", "--min", "0", "--max", "1", "--points", "2",
                               "--roles", "literal")
        assert code == 2
        assert "--roles" in err

    @pytest.mark.parametrize("flags", [
        ["--min=-inf", "--max", "1"],
        ["--min", "0", "--max", "nan"],
        ["--min", "0", "--max", "1", "--budget", "0"],
        ["--min", "0", "--max", "1", "--budget=-5"],
        ["--min", "0", "--max", "1", "--budget", "1e6"],
        ["--min=-1e308", "--max", "1e308"],
        ["--min", "1e308", "--max", "1.5e308"],
    ])
    def test_non_finite_range_or_bad_budget_is_a_usage_error(self, capsys, flags):
        code, err = usage_exit(capsys, "sweep", "--points", "2", *flags)
        assert code == 2
        assert "error:" in err

    # linspace's last point can round past the float maximum before it is set to --max
    @pytest.mark.parametrize("flags, expected", [
        ("--min=-8.988465674311579e307 --max 8.988465674311579e307 --points 4", 0),
        ("--min=-.5 --max 1.7976931348623157e308 --points 7", 2),
        ("--min 8.988465674311579e307 --max 1.7976931348623157e308 --points 7", 2),
    ])
    def test_a_range_up_to_the_float_maximum_prints_no_warning(self, capsys, flags, expected):
        code, _, err = any_exit(capsys, "sweep", *flags.split())
        assert code == expected
        assert (err == "") if code == 0 else (err.count("\n") == 1 and err.startswith("error: "))


class TestOptimize:
    def test_analytic_at_zero_loop(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--method", "analytic")
        assert code == 0
        record = json.loads(out)[0]
        assert record["theta_r"] == pytest.approx(np.pi / 4, abs=1e-11)
        assert record["theta_lp"] == pytest.approx(np.pi / 2, abs=1e-11)
        assert record["theta_rp"] == pytest.approx(3 * np.pi / 4, abs=1e-11)
        assert record["s"] == pytest.approx(2 * np.sqrt(2), abs=1e-11)
        assert record["evaluations"] == 0

    def test_grid_at_zero_contrast(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--method", "grid",
                               "--mu", "1", "--lambda-l", str(np.pi / 4))
        assert code == 0
        record = json.loads(out)[0]
        assert record["s"] == pytest.approx(2.0, abs=1e-6)
        assert record["evaluations"] > 0

    def test_analytic_with_literal_roles_attains_the_same_maximum(self, capsys):
        _, out, _ = run_cli(capsys, "optimize", "--method", "analytic",
                            "--mu", "1", "--lambda-l", "0.3", "--roles", "literal")
        record = json.loads(out)[0]
        expected = 2 * np.sqrt(1 + np.cos(0.6) ** 2)
        assert record["s"] == pytest.approx(expected, abs=1e-11)

    @pytest.mark.parametrize("roles", ["standard", "literal"])
    def test_grid_budget_exceeded_is_an_error(self, capsys, roles):
        code, out, err = run_cli(capsys, "optimize", "--method", "grid", "--roles", roles,
                                 "--budget", "3455")
        assert (code, out) == (1, "")
        assert err == "error: grid search needs 3456 evaluations, budget is 3455\n"

    @pytest.mark.parametrize("roles", ["standard", "literal"])
    def test_a_grid_budget_of_exactly_the_needed_evaluations_passes(self, capsys, roles):
        args = ["optimize", "--method", "grid", "--roles", roles]
        code, out, err = run_cli(capsys, *args, "--budget", "3456")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *args)[1]

    def test_the_grid_budget_is_checked_against_the_searchs_evaluations(self, capsys,
                                                                        monkeypatch):
        monkeypatch.setattr(cli, "_EVALUATIONS", 1728)
        args = ["optimize", "--method", "grid", "--mu", "1", "--lambda-l", "0.3"]
        code, out, err = run_cli(capsys, *args, "--budget", "1727")
        assert (code, out) == (1, "")
        assert err == "error: grid search needs 1728 evaluations, budget is 1727\n"
        code, out, err = run_cli(capsys, *args, "--budget", "1728")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *args)[1]

    def test_the_analytic_method_ignores_the_budget(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--method", "analytic", "--budget", "1")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "optimize", "--method", "analytic")[1]

    def test_grid_agrees_with_analytic(self, capsys):
        _, grid_out, _ = run_cli(capsys, "optimize", "--method", "grid",
                                 "--mu", "1", "--lambda-l", "0.3")
        _, analytic_out, _ = run_cli(capsys, "optimize", "--method", "analytic",
                                     "--mu", "1", "--lambda-l", "0.3")
        s_grid = json.loads(grid_out)[0]["s"]
        s_analytic = json.loads(analytic_out)[0]["s"]
        assert abs(s_grid - s_analytic) <= 1e-6


    @pytest.mark.parametrize("flags", [
        ["--mu", "nan"],
        ["--lambda-l", "inf"],
        ["--lambda-r=-inf"],
        ["--method", "grid", "--mu", "1e308", "--lambda-l", "1e308"],
        # the phase is checked before the budget
        ["--method", "grid", "--budget", "10", "--mu", "1e308", "--lambda-l", "1e308"],
        ["--method", "analytic", "--mu", "1e308", "--lambda-l", "1e308"],
        ["--method", "grid", "--mu", "0", "--lambda-l", "1e308", "--lambda-r=-1e308"],
        ["--method", "grid", "--budget=-1"],
        ["--method", "grid", "--budget", "0"],
        ["--method", "grid", "--budget", "2.5"],
    ])
    def test_non_finite_phase_or_bad_budget_is_a_usage_error(self, capsys, flags):
        code, err = usage_exit(capsys, "optimize", *flags)
        assert code == 2
        assert "error:" in err


@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_budget_help_names_the_evaluations_a_search_needs_and_the_default(capsys, command):
    code, out, _ = any_exit(capsys, command, "--help")
    assert code == 0
    text = " ".join(out.split())
    budget_help = text[text.index("--budget BUDGET most grid evaluations"):]
    assert "3456" in budget_help.split("(default")[0]
    assert budget_help.split("(default ")[1].startswith("50000000)")


class TestVerify:
    def test_reduced_budget_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--budget", "100")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 12
        assert all("PASS" in line for line in lines)

    def test_budget_1000_output_is_byte_identical_to_the_golden_lines(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--budget", "1000")
        assert code == 0
        assert out == VERIFY_BUDGET_1000

    def test_a_planted_fault_fails_and_names_the_suite(self, capsys, monkeypatch):
        # the sign of scenario C's interference term flipped in its closed form
        scenario_c = closed_form.scenario_c_probabilities
        monkeypatch.setattr(closed_form, "scenario_c_probabilities",
                            lambda tl, tr, k: scenario_c(tl, tr, np.pi - k))
        code, out, _ = run_cli(capsys, "verify", "--budget", "50")
        assert code == 1
        failing = [line for line in out.strip().split("\n") if "FAIL" in line]
        assert len(failing) == 1
        assert failing[0].startswith("scenario-c-closed-form")

    def test_there_is_no_fault_option(self, capsys):
        code, err = usage_exit(capsys, "verify", "--inject-fault", "scenario-c-sign")
        assert code == 2
        assert "unrecognized arguments: --inject-fault" in err

    @pytest.mark.parametrize("budget", ["0", "-1", "abc"])
    def test_budget_must_be_a_positive_integer(self, capsys, budget):
        code, err = usage_exit(capsys, "verify", f"--budget={budget}")
        assert code == 2
        assert "positive integer" in err


@pytest.mark.parametrize("name, argv", GOLDENS, ids=[name for name, _ in GOLDENS])
def test_command_stdout_is_byte_identical_to_the_golden(capsys, name, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("argv, message", [
    (["optimize", "--mu", "-inf"], "invalid finite number '-inf'"),
    (["sweep", "--min", "-Infinity", "--max", "1", "--points", "2"], "invalid finite number"),
    (["simulate", "--scenario", "B", "--theta-l", "-nan", "--theta-r", "0"], "invalid angle"),
], ids=["optimize", "sweep", "simulate"])
def test_a_negative_non_finite_value_after_a_space_is_refused_by_its_type(capsys, argv, message):
    code, err = usage_exit(capsys, *argv)
    assert code == 2 and message in err


#: Each subcommand's required flags; a flag given again after them overrides its value.
REQUIRED = {
    "simulate": ["simulate", "--scenario", "C", "--theta-l", "0", "--theta-r", "0"],
    "sweep": ["sweep", "--min", "0", "--max", "1", "--points", "2"],
    "optimize": ["optimize"],
    "verify": ["verify"],
}


def numeric_options(*types):
    """``(command, action)`` for every option of every subcommand whose type is in ``types``."""
    commands = next(action for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    return [(name, action) for name, command in commands.items()
            for action in command._actions if action.type in types]


FLOAT_OPTIONS = numeric_options(_angle_arg, _finite_arg)
INT_OPTIONS = numeric_options(int, _positive_int_arg)


def negative_values(action):
    """Negative values in exponent and leading-dot form, and in degrees for an angle flag."""
    values = {"-2.5e-1": -0.25, "-.7": -0.7, "-1E2": -100.0}
    if action.type is _angle_arg:
        values["-90deg"] = -np.pi / 2
    return values.items()


FLOAT_CASES = [(command, action, text, value) for command, action in FLOAT_OPTIONS
               for text, value in negative_values(action)]


@pytest.mark.parametrize("command, action, text, value", FLOAT_CASES,
                         ids=[f"{name} {action.option_strings[0]} {text}"
                              for name, action, text, _ in FLOAT_CASES])
def test_every_float_flag_takes_a_negative_value_after_a_space(command, action, text, value):
    flag = action.option_strings[0]
    spaced = _build_parser().parse_args([*REQUIRED[command], flag, text])
    assert getattr(spaced, action.dest) == value
    assert spaced == _build_parser().parse_args([*REQUIRED[command], f"{flag}={text}"])


@pytest.mark.parametrize("command, action", INT_OPTIONS,
                         ids=[f"{name} {action.option_strings[0]}" for name, action in INT_OPTIONS])
def test_every_integer_flag_refuses_a_negative_exponent_by_its_type(capsys, command, action):
    flag = action.option_strings[0]
    code, err = usage_exit(capsys, *REQUIRED[command], flag, "-1e3")
    assert code == 2
    assert f"argument {flag}: invalid" in err and "'-1e3'" in err


class TestParserReuse:
    """``main`` reuses one parser per process; reuse must not change any answer."""

    B_POINT = ["simulate", "--scenario", "B", "--theta-l", "0.4", "--theta-r", "2.2"]

    @pytest.mark.parametrize("first, first_code", [
        (["simulate", "--scenario", "B", "--theta-l", "abc", "--theta-r", "0"], 2),
        (["simulate", "--scenario", "B", "--theta-l", "0", "--theta-r", "0", "--mu", "2"], 2),
        (["simulate", "--scenario", "C", "--theta-l", "0.4", "--theta-r", "2.2",
          "--mu", "2", "--lambda-l", "0.3", "--lambda-r", "0.1"], 0),
    ], ids=["argparse-usage-error", "main-usage-error", "scenario-c"])
    def test_a_reused_parser_answers_like_a_fresh_one(self, capsys, first, first_code):
        _build_parser.cache_clear()
        fresh = any_exit(capsys, *self.B_POINT)
        assert fresh[0] == 0 and fresh[2] == ""
        _build_parser.cache_clear()
        assert any_exit(capsys, *first)[0] == first_code
        assert any_exit(capsys, *self.B_POINT) == fresh

    def test_help_follows_columns_set_after_the_first_call(self, capsys, monkeypatch):
        _build_parser.cache_clear()
        monkeypatch.setenv("COLUMNS", "200")
        wide = any_exit(capsys, "sweep", "--help")
        monkeypatch.setenv("COLUMNS", "40")
        narrow = any_exit(capsys, "sweep", "--help")
        _build_parser.cache_clear()
        assert narrow == any_exit(capsys, "sweep", "--help")
        assert narrow != wide

    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "topobell":
                built.append(self)
            init(self, *args, **kwargs)

        _build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (self.B_POINT, ["sweep", "--min", "0", "--max", "1", "--points", "1"],
                     ["optimize"], self.B_POINT):
            any_exit(capsys, *argv)
        assert len(built) == 1


# ---- every command, as properties ------------------------------------------

#: Finite flag values, moderate and extreme, as the text a shell would pass.
finite_texts = st.one_of(
    st.sampled_from([1e308, -1e308, 5e-324, -5e-324, -0.0]),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
).map(repr)
non_finite_texts = st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity"])
#: Mostly finite, so that most draws of several flags reach the command's work.
number_texts = st.integers(0, 4).flatmap(lambda k: finite_texts if k else non_finite_texts)
angle_texts = number_texts | finite_texts.map(lambda text: text + "deg")

#: The record fields that hold text rather than a number.
LABELS = {"scenario", "method", "roles"}

#: capsys is read and emptied after every call, so its examples may share it.
cli_settings = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def assert_finite_output_or_one_error(capsys, argv):
    """Exit 0 printing only finite numbers, or exit 2 with one error line; never a traceback."""
    code, out, err = any_exit(capsys, *argv)
    if code == 0:
        assert err == ""
        records = json.loads(out) if out.startswith("[") else parse_csv(out)[1]
        assert records
        assert all(math.isfinite(float(value)) for record in records
                   for key, value in record.items() if key not in LABELS), out
    else:
        assert (code, out) == (2, ""), err
        lines = err.splitlines()
        assert lines and [line for line in lines if "error:" in line] == lines[-1:], err


@given(data=st.data(), scenario=st.sampled_from(sorted(SCENARIO_FIELDS)))
@settings(cli_settings, max_examples=30)
def test_simulate_prints_finite_numbers_or_one_error(capsys, data, scenario):
    argv = ["simulate", "--scenario", scenario,
            *(f"{flag}={data.draw(angle_texts, label=flag)}"
              for flag in ("--theta-l", "--theta-r")),
            *(f"{_flag(field)}={data.draw(number_texts, label=field)}"
              for field in SCENARIO_FIELDS[scenario]),
            "--format", data.draw(st.sampled_from(["json", "csv"]))]
    assert_finite_output_or_one_error(capsys, argv)


@given(low=number_texts, high=number_texts, points=st.integers(1, 4),
       fmt=st.sampled_from(["csv", "json"]))
@settings(cli_settings, max_examples=30)
def test_sweep_prints_finite_numbers_or_one_error(capsys, low, high, points, fmt):
    assert_finite_output_or_one_error(
        capsys, ["sweep", f"--min={low}", f"--max={high}", f"--points={points}", "--format", fmt])


@given(mu=number_texts, lambda_l=number_texts, lambda_r=number_texts,
       method=st.sampled_from(["analytic", "grid"]),
       roles=st.sampled_from(["standard", "literal"]))
@settings(cli_settings, max_examples=20)
def test_optimize_prints_finite_numbers_or_one_error(capsys, mu, lambda_l, lambda_r, method,
                                                     roles):
    assert_finite_output_or_one_error(
        capsys, ["optimize", f"--mu={mu}", f"--lambda-l={lambda_l}", f"--lambda-r={lambda_r}",
                 "--method", method, "--roles", roles])


@given(budget=st.integers(1, 20))
@settings(cli_settings, max_examples=5)
def test_verify_passes_every_suite_at_a_small_budget(capsys, budget):
    code, out, err = run_cli(capsys, "verify", "--budget", str(budget))
    lines = out.splitlines()
    assert (code, err, len(lines)) == (0, "", 12)
    assert all(": PASS " in line for line in lines)
