import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from topobell import chsh
from topobell.cli import _build_parser, main

#: Golden stdout files of the grid and simulate commands, byte for byte.
GOLDEN = Path(__file__).parent / "golden"
GOLDENS = [
    ("sweep_readme.csv", ["sweep", "--min", "0", "--max", "3.14159", "--points", "25"]),
    ("sweep_literal.json", ["sweep", "--min", "0.1", "--max", "1.3", "--points", "4",
                            "--format", "json"]),
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
        code, _, err = run_cli(capsys, "sweep", "--min", "0", "--max", "1",
                               "--points", "5", "--budget", "1000")
        assert code == 1
        assert "budget" in err

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

    def test_injected_fault_fails_and_names_the_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--budget", "50",
                               "--inject-fault", "scenario-c-sign")
        assert code == 1
        failing = [line for line in out.strip().split("\n") if "FAIL" in line]
        assert len(failing) == 1
        assert failing[0].startswith("scenario-c-closed-form")

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
