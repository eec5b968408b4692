import numpy as np
import pytest
from numpy.testing import assert_allclose

from topobell import chsh, oracle
from topobell.chsh import BellAngles, RoleAssignment
from topobell.entangled import Scenario, TopoPhaseSpec, run_scenario
from topobell.oracle import (
    BudgetExceededError,
    GridSpec,
    StationarityOutcome,
    brute_force_distribution,
    grid_search_max_S,
    stationarity_check,
)


class TestBruteForceDistribution:
    def test_scenario_b_quarter_wave(self):
        dist = brute_force_distribution(Scenario.B, np.pi / 2, 0.0)
        assert dist.p_d0p_d0 == pytest.approx(0.25, abs=1e-12)

    def test_scenario_c_with_zero_loop_equals_scenario_b(self, rng):
        for _ in range(50):
            theta_l, theta_r = rng.uniform(0, 2 * np.pi, 2)
            c = brute_force_distribution(Scenario.C, theta_l, theta_r,
                                         TopoPhaseSpec.spin_conditioned(1.3, 0.4, 0.4))
            b = brute_force_distribution(Scenario.B, theta_l, theta_r)
            assert_allclose(c.as_array(), b.as_array(), atol=1e-12)

    def test_scenario_a_symmetric_integrals_are_invisible(self, rng):
        for _ in range(50):
            theta_l, theta_r = rng.uniform(0, 2 * np.pi, 2)
            topo = TopoPhaseSpec.path_integrals(0.9, 1.2, -0.3, 1.2, -0.3)
            with_topo = brute_force_distribution(Scenario.A, theta_l, theta_r, topo)
            without = brute_force_distribution(Scenario.A, theta_l, theta_r)
            assert_allclose(with_topo.as_array(), without.as_array(), atol=1e-12)

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_agrees_with_the_simulators(self, rng, scenario):
        for _ in range(300):
            theta_l, theta_r = rng.uniform(0, 2 * np.pi, 2)
            if scenario is Scenario.A:
                topo = TopoPhaseSpec.path_integrals(rng.uniform(-2, 2),
                                                    *rng.uniform(-3, 3, 4))
            elif scenario is Scenario.B:
                topo = None
            elif scenario is Scenario.C:
                topo = TopoPhaseSpec.spin_conditioned(rng.uniform(-2, 2),
                                                      *rng.uniform(-3, 3, 2))
            else:
                topo = TopoPhaseSpec.aharonov_bohm(rng.uniform(-6, 6))
            brute = brute_force_distribution(scenario, theta_l, theta_r, topo)
            simulated = run_scenario(scenario, theta_l, theta_r, topo)
            assert_allclose(brute.as_array(), simulated.as_array(), atol=1e-12)

    def test_rejects_mode_mismatch(self):
        with pytest.raises(ValueError):
            brute_force_distribution(Scenario.C, 0.0, 0.0,
                                     TopoPhaseSpec.aharonov_bohm(1.0))
        with pytest.raises(ValueError):
            brute_force_distribution(Scenario.B, 0.0, 0.0,
                                     TopoPhaseSpec.aharonov_bohm(1.0))


SPIN = TopoPhaseSpec.spin_conditioned(1.0, 0.3, 0.0)
PATH = TopoPhaseSpec.path_integrals(1.0, 0.1, 0.2, 0.3, 0.4)

#: Every way to pass a scenario the wrong phase spec: a spec of another mode,
#: a spec where none is taken, none where one is needed, an object that is no
#: spec, and a value that is no scenario.
BAD_SPECS = {
    "A-spin-conditioned": (Scenario.A, SPIN),
    "B-spin-conditioned": (Scenario.B, SPIN),
    "C-path-integrals": (Scenario.C, PATH),
    "C-missing": (Scenario.C, None),
    "AB-spin-conditioned": (Scenario.AB, SPIN),
    "AB-missing": (Scenario.AB, None),
    "C-dict": (Scenario.C, {"mu": 1.0, "lambda_l": 0.3, "lambda_r": 0.0}),
    "unknown-scenario": ("C", SPIN),
}


@pytest.mark.parametrize("scenario, topo", BAD_SPECS.values(), ids=BAD_SPECS)
def test_both_one_point_entry_points_reject_a_bad_spec_alike(scenario, topo):
    messages = []
    for entry in (run_scenario, brute_force_distribution):
        with pytest.raises(ValueError) as excinfo:
            entry(scenario, 0.0, 0.0, topo)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


class TestGridSpec:
    def test_defaults_fit_their_budget(self):
        spec = GridSpec()
        assert spec.total_evaluations() <= spec.budget

    @pytest.mark.parametrize("kwargs", [
        {"points_per_angle": 1},
        {"refinement_rounds": -1},
        {"shrink_factor": 0.0},
        {"shrink_factor": 1.0},
        {"budget": 0},
        {"points_per_angle": 2.5},
        {"points_per_angle": 24.0},
        {"refinement_rounds": 1.5},
        {"budget": 1e6},
        {"shrink_factor": np.nan},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)

    @pytest.mark.parametrize("name", ["points_per_angle", "refinement_rounds", "budget"])
    def test_rejects_a_bool_for_an_integer(self, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got True"):
            GridSpec(**{name: True})


class TestGridSearch:
    # near c = 0 the maximum exceeds 2 by only about c², which a coarse grid can miss
    @pytest.mark.parametrize("roles", list(RoleAssignment))
    @pytest.mark.parametrize("c", [1.0, 0.0, 0.5, 0.0022, -0.0022, 0.005, -0.005,
                                   0.0105, -0.0105])
    def test_finds_the_analytic_maximum(self, c, roles):
        result = grid_search_max_S(c, roles)
        assert result.best_s == pytest.approx(2 * np.sqrt(1 + c * c), abs=1e-6)
        assert result.evaluations == 3456

    def test_monotone_across_refinement_rounds(self):
        previous = -np.inf
        for rounds in range(5):
            spec = GridSpec(points_per_angle=10, refinement_rounds=rounds)
            result = grid_search_max_S(0.37, RoleAssignment.STANDARD, spec)
            assert result.best_s >= previous - 1e-15
            previous = result.best_s

    def test_deterministic(self):
        spec = GridSpec(points_per_angle=8, refinement_rounds=2)
        first = grid_search_max_S(0.25, RoleAssignment.LITERAL, spec)
        second = grid_search_max_S(0.25, RoleAssignment.LITERAL, spec)
        assert first == second

    def test_result_reevaluates_to_its_own_value(self):
        result = grid_search_max_S(0.7, RoleAssignment.STANDARD,
                                   GridSpec(points_per_angle=10, refinement_rounds=2))
        fresh = chsh.chsh_S(result.best_angles, 0.7, RoleAssignment.STANDARD)
        assert result.best_s == pytest.approx(fresh, abs=1e-12)

    def test_reports_evaluation_count(self):
        spec = GridSpec(points_per_angle=6, refinement_rounds=3)
        result = grid_search_max_S(0.0, RoleAssignment.STANDARD, spec)
        assert result.evaluations == spec.total_evaluations() == 6 ** 2 * 4

    def test_budget_exceeded_names_the_count(self):
        spec = GridSpec(points_per_angle=24, refinement_rounds=3, budget=1000)
        with pytest.raises(BudgetExceededError) as excinfo:
            grid_search_max_S(0.0, RoleAssignment.STANDARD, spec)
        assert excinfo.value.evaluations == spec.total_evaluations()
        assert str(excinfo.value.evaluations) in str(excinfo.value)

    @pytest.mark.parametrize("args", [(0.5, "standard"), (0.5, RoleAssignment.STANDARD, {})],
                             ids=["roles", "grid"])
    def test_rejects_a_wrong_type_before_searching(self, monkeypatch, args):
        def no_search(*_):
            raise AssertionError("searched before checking its arguments")

        monkeypatch.setattr(oracle, "_bound", no_search)
        with pytest.raises(ValueError, match="must be a (RoleAssignment|GridSpec)"):
            grid_search_max_S(*args)

    def test_rejects_an_array_contrast(self):
        with pytest.raises(ValueError, match="c must be a scalar"):
            grid_search_max_S(np.array([0.1, 0.2]), RoleAssignment.STANDARD)

    def test_rejects_contrast_outside_unit_interval(self):
        with pytest.raises(ValueError):
            grid_search_max_S(1.2, RoleAssignment.STANDARD)

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_rejects_non_finite_contrast(self, c):
        with pytest.raises(ValueError, match="contrast"):
            grid_search_max_S(c, RoleAssignment.STANDARD)


def _evaluate_grid_on_full_mesh(axes, c, roles):
    """Reference: S on every cell of the raveled 4-D meshgrid, first maximum wins."""
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = [m.ravel() for m in mesh]
    values = chsh.chsh_S_values(flat[0], flat[1], flat[2], flat[3], c, roles)
    best = int(np.argmax(values))
    angles = np.array([flat[0][best], flat[1][best], flat[2][best], flat[3][best]])
    return angles, float(values[best])


class TestSearchAgainstTheFullMesh:
    """The 2-D search is at least the 4-D mesh maximum and never above the optimum."""

    @pytest.mark.parametrize("roles", list(RoleAssignment))
    @pytest.mark.parametrize("c", [-1.0, 0.0, 0.0022, 0.5, 1.0])
    @pytest.mark.parametrize("points", [5, 6, 7, 8])
    def test_search_is_bounded_by_the_mesh_and_the_optimum(self, roles, c, points):
        spec = GridSpec(points_per_angle=points, refinement_rounds=3)
        result = grid_search_max_S(c, roles, spec)
        axes = [np.linspace(0.0, 2 * np.pi, points, endpoint=False)] * 4
        _, mesh_best = _evaluate_grid_on_full_mesh(axes, c, roles)
        assert result.best_s >= mesh_best - 1e-15
        assert result.best_s <= 2 * np.sqrt(1 + c * c) + 1e-12


class TestMaxOverB:
    def test_closed_form_is_attained_and_dominates_random_b(self):
        rng = np.random.default_rng(20260)
        for _ in range(50):
            a, a_prime = rng.uniform(0, 2 * np.pi, 2)
            c = rng.uniform(-1, 1)
            value, b, b_prime = oracle._max_over_b(a, a_prime, c)
            for roles in RoleAssignment:
                attained = chsh.chsh_S(roles.bell_angles(a, a_prime, b, b_prime), c, roles)
                assert value == pytest.approx(attained, abs=1e-12)
            # STANDARD slots are (a, b, a', b')
            b_rand, bp_rand = rng.uniform(0, 2 * np.pi, (2, 1000))
            sampled = chsh.chsh_S_values(a, b_rand, a_prime, bp_rand, c,
                                         RoleAssignment.STANDARD)
            assert value >= sampled.max()


class TestStationarityCheck:
    def test_analytic_optimum_is_stationary(self):
        angles = chsh.analytic_optimal_angles(0.0)
        outcome = stationarity_check(angles, 1.0, RoleAssignment.STANDARD, 1e-4)
        assert outcome is StationarityOutcome.PASSED

    def test_stationary_across_loop_phases(self):
        for mu_lambda in np.linspace(0.0, np.pi, 11):
            c = chsh.contrast(mu_lambda)
            angles = chsh.analytic_optimal_angles(mu_lambda)
            outcome = stationarity_check(angles, c, RoleAssignment.STANDARD, 1e-4)
            # near zero contrast one combination argument vanishes: kink
            assert outcome in (StationarityOutcome.PASSED, StationarityOutcome.SKIPPED)
            if abs(c) > 0.01:
                assert outcome is StationarityOutcome.PASSED

    def test_non_stationary_point_fails(self):
        angles = BellAngles(0.3, 1.0, 2.0, 0.7)
        outcome = stationarity_check(angles, 1.0, RoleAssignment.LITERAL, 1e-4)
        assert outcome is StationarityOutcome.FAILED

    def test_kink_at_coincident_angles_is_skipped(self):
        # all-equal angles zero out the first combination argument
        outcome = stationarity_check(BellAngles(0, 0, 0, 0), 1.0,
                                     RoleAssignment.STANDARD, 1e-4)
        assert outcome is StationarityOutcome.SKIPPED

    def test_argument_within_ten_steps_of_zero_is_skipped(self):
        angles = chsh.analytic_optimal_angles(np.pi / 4)  # second argument is 0 at c=0
        outcome = stationarity_check(angles, 0.0, RoleAssignment.STANDARD, 1e-4)
        assert outcome is StationarityOutcome.SKIPPED

    def test_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            stationarity_check(BellAngles(1, 2, 3, 4), 0.5, RoleAssignment.STANDARD, 0.0)

    # 1e-17 and 1e-300 leave every angle unchanged, so all quotients would be 0
    @pytest.mark.parametrize("h", [np.nan, np.inf, 1e-17, 1e-300])
    def test_rejects_nan_step_naming_h(self, h):
        with pytest.raises(ValueError, match="step h"):
            stationarity_check(BellAngles(1, 2, 3, 4), 0.5, RoleAssignment.STANDARD, h)
