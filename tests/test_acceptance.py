"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion. Every tolerance is pinned here; nothing is deferred.
"""

import time

import numpy as np

from topobell import chsh, verify
from topobell.chsh import RoleAssignment
from topobell.cli import main
from topobell.oracle import GridSpec, grid_search_max_S

RNG_SEED = 424242

#: Default `topobell verify` stdout, byte for byte.
VERIFY_DEFAULT = (
    "linalg-unitarity: PASS  worst residual 2.229e-16 (tol 1.0e-12)\n"
    "optics-compact-form: PASS  worst residual 3.564e-15 (tol 1.0e-12)\n"
    "distribution-validity: PASS  worst residual 1.776e-15 (tol 1.0e-12)\n"
    "scenario-b-closed-form: PASS  worst residual 7.772e-16 (tol 1.0e-12)\n"
    "scenario-c-closed-form: PASS  worst residual 8.882e-16 (tol 1.0e-12)\n"
    "scenario-c-gauge: PASS  worst residual 8.604e-16 (tol 1.0e-12)\n"
    "scenario-a-topo-invariance: PASS  worst residual 6.106e-16 (tol 1.0e-12)\n"
    "scenario-ab-reduction: PASS  worst residual 4.441e-16 (tol 1.0e-12)\n"
    "degiorgio-offset: PASS  worst residual 6.106e-16 (tol 1.0e-12)\n"
    "oracle-equivalence: PASS  worst residual 8.882e-16 (tol 1.0e-12)\n"
    "chsh-consistency: PASS  worst residual 1.554e-15 (tol 1.0e-12)\n"
    "chsh-bounds: PASS  worst residual 8.882e-16 (tol 1.0e-09)\n"
)


def _check(result: verify.SuiteResult, tolerance: float) -> None:
    assert result.passed, f"{result.name}: residual {result.worst_residual}"
    assert result.worst_residual <= tolerance


def _report(number: int, description: str, residual: float) -> None:
    print(f"PASS criterion {number}: {description} (worst residual {residual:.3e})")


def test_criterion_01_scenario_b_closed_form():
    start = time.perf_counter()
    result = verify._suite_scenario_b_closed_form()
    elapsed = time.perf_counter() - start
    _check(result, 1e-12)
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s, budget 1s"
    _report(1, f"interferometer pipeline matches closed form on 100x100 grid "
               f"in {elapsed:.2f}s", result.worst_residual)


def test_criterion_02_scenario_c_closed_form():
    start = time.perf_counter()
    result = verify._suite_scenario_c_closed_form(None)
    elapsed = time.perf_counter() - start
    _check(result, 1e-12)
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s, budget 5s"
    _report(2, f"loop-phase pipeline matches closed form on 20x20x25 grid "
               f"in {elapsed:.2f}s", result.worst_residual)


def test_criterion_03_expectation_closed_form():
    result = verify._suite_chsh_consistency()
    _check(result, 1e-12)
    _report(3, "expectation values match the closed form, reducing to "
               "-cos(difference) at zero loop", result.worst_residual)


def test_criterion_04_fixed_angle_curve():
    worst = 0.0
    for mu_lambda in np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False):
        literal = chsh.chsh_S(chsh.canonical_angles(), chsh.contrast(mu_lambda),
                              RoleAssignment.LITERAL)
        curve = np.sqrt(2.0) + np.sqrt(2.0) * abs(np.cos(2.0 * mu_lambda))
        worst = max(worst, abs(literal - curve))
        worst = max(worst, abs(chsh.fixed_angle_curve_S(mu_lambda) - curve))
    at_zero = chsh.chsh_S(chsh.canonical_angles(), 1.0, RoleAssignment.LITERAL)
    worst = max(worst, abs(at_zero - 2.0 * np.sqrt(2.0)))
    assert worst <= 1e-12
    _report(4, "canonical-angle S equals sqrt2 + sqrt2*|cos(2 mu lambda)| over "
               "1000 loop phases, 2*sqrt2 at zero loop", worst)


def test_criterion_05_analytic_and_grid_maxima():
    start = time.perf_counter()
    worst_analytic, worst_grid = 0.0, 0.0
    for c in (0.0, 0.25, 0.5, 0.75, 1.0):
        mu_lambda = 0.5 * np.arccos(c)
        angles = chsh.analytic_optimal_angles(mu_lambda)
        assert abs(np.cos(2 * mu_lambda) - c) < 1e-12
        s_analytic = chsh.chsh_S(angles, c, RoleAssignment.STANDARD)
        worst_analytic = max(worst_analytic, abs(s_analytic - 2.0 * np.sqrt(1.0 + c * c)))
        result = grid_search_max_S(c, RoleAssignment.STANDARD, GridSpec())
        worst_grid = max(worst_grid, abs(result.best_s - 2.0 * np.sqrt(1.0 + c * c)))
    elapsed = time.perf_counter() - start
    assert worst_analytic <= 1e-12
    assert worst_grid <= 1e-6
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.2f}s, budget 60s"
    _report(5, f"extremal angles give 2*sqrt(1+c^2) (residual {worst_analytic:.3e}) "
               f"and default grid search agrees in {elapsed:.1f}s", worst_grid)


def test_criterion_06_bounds_over_a_million_draws():
    # 100 * 10^4 = 10^6 draws of four angles and a contrast, both role assignments
    result = verify._suite_chsh_bounds(np.random.default_rng(RNG_SEED), 10_000)
    _check(result, 1e-9)
    _report(6, "no draw among 10^6 beats 2*sqrt(1+c^2) at its contrast or 2 at zero contrast, "
               "and the fixed-angle curve stays below 2*sqrt(1+c^2)", result.worst_residual)


def test_criterion_07_open_geometry_topo_invariance():
    result = verify._suite_scenario_a_topo_invariance(np.random.default_rng(RNG_SEED + 7), 1000)
    _check(result, 1e-12)
    _report(7, "symmetric arm integrals leave the open geometry unchanged "
               "over 10^3 draws", result.worst_residual)


def test_criterion_08_flux_invariance():
    result = verify._suite_scenario_ab_reduction(np.random.default_rng(RNG_SEED + 8), 1000)
    _check(result, 1e-12)
    _report(8, "spin-independent flux leaves the interferometer unchanged "
               "over 10^3 draws", result.worst_residual)


def test_criterion_09_degiorgio_offset():
    result = verify._suite_degiorgio(np.random.default_rng(RNG_SEED + 9), 1000)
    _check(result, 1e-12)
    _report(9, "open-geometry p(D0',D0) equals interferometer p(D1',D0) "
               "over 10^3 draws", result.worst_residual)


def test_criterion_10_oracle_equivalence():
    result = verify._suite_oracle_equivalence(np.random.default_rng(RNG_SEED + 10), 10_000)
    _check(result, 1e-12)
    _report(10, "explicit matrix oracle matches every scenario over 10^4 "
                "draws each", result.worst_residual)


def test_criterion_11_invariant_suites_pass(capsys):
    exit_code = main(["verify"])
    out = capsys.readouterr().out
    assert exit_code == 0
    lines = [line for line in out.strip().split("\n") if line]
    assert len(lines) == 12
    assert all("PASS" in line for line in lines)
    assert out == VERIFY_DEFAULT
    worst = max(verify.run_suites(heavy_draws=100, light_draws=20),
                key=lambda r: r.worst_residual / r.tolerance)
    with capsys.disabled():
        _report(11, "all invariant suites pass under the verify command "
                    "with exit code 0", worst.worst_residual)
