import numpy as np
import pytest
from numpy.testing import assert_allclose

from topobell import chsh
from topobell.chsh import BellAngles, RoleAssignment
from topobell.entangled import Scenario, TopoPhaseSpec, run_scenario

TWO_SQRT_TWO = 2 * np.sqrt(2)


class TestExpectationFromDistribution:
    def test_equal_angles_give_perfect_anticorrelation(self):
        dist = run_scenario(Scenario.B, 0.8, 0.8)
        assert chsh.expectation_from_distribution(dist) == pytest.approx(-1.0, abs=1e-12)

    def test_quarter_wave_gives_zero(self):
        dist = run_scenario(Scenario.B, np.pi / 2, 0.0)
        assert chsh.expectation_from_distribution(dist) == pytest.approx(0.0, abs=1e-12)

    def test_half_turn_loop_flips_the_correlation(self):
        topo = TopoPhaseSpec.spin_conditioned(1.0, np.pi / 2, 0.0)
        dist = run_scenario(Scenario.C, np.pi / 2, np.pi / 2, topo)
        assert chsh.expectation_from_distribution(dist) == pytest.approx(1.0, abs=1e-12)


class TestExpectationClosedForm:
    def test_full_contrast_is_cosine_of_difference(self, rng):
        for _ in range(200):
            a, b = rng.uniform(-6, 6, 2)
            assert chsh.expectation_closed_form(a, b, 1.0) == pytest.approx(
                -np.cos(a - b), abs=1e-12)

    def test_left_angle_zero_ignores_contrast(self, rng):
        for c in rng.uniform(-1, 1, 20):
            assert chsh.expectation_closed_form(0.0, 1.3, c) == pytest.approx(
                -np.cos(1.3), abs=1e-12)

    def test_right_angles_at_zero_contrast(self):
        assert chsh.expectation_closed_form(np.pi / 2, np.pi / 2, 0.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_rejects_contrast_outside_unit_interval(self):
        with pytest.raises(ValueError):
            chsh.expectation_closed_form(0.0, 0.0, 1.5)

    @pytest.mark.parametrize("c", [np.nan, np.inf, np.array([0.5, np.nan])])
    def test_rejects_non_finite_contrast(self, c):
        with pytest.raises(ValueError):
            chsh.expectation_closed_form(0.0, 0.0, c)

    @pytest.mark.parametrize("theta_l, theta_r, name", [
        (np.nan, 0.0, "theta_l"),
        (0.0, np.inf, "theta_r"),
        (-np.inf, 0.0, "theta_l"),
        (np.array([0.0, np.nan]), 0.3, "theta_l"),
        (0.3, np.array([0.0, -np.inf]), "theta_r"),
    ])
    def test_rejects_non_finite_angles(self, theta_l, theta_r, name):
        with pytest.raises(ValueError, match=name):
            chsh.expectation_closed_form(theta_l, theta_r, 0.5)

    def test_matches_pipeline_distribution(self, rng):
        for _ in range(100):
            theta_l, theta_r = rng.uniform(0, 2 * np.pi, 2)
            mu_lambda = rng.uniform(0, np.pi)
            dist = run_scenario(Scenario.C, theta_l, theta_r,
                                TopoPhaseSpec.spin_conditioned(1.0, mu_lambda, 0.0))
            expected = chsh.expectation_closed_form(theta_l, theta_r,
                                                    np.cos(2 * mu_lambda))
            assert chsh.expectation_from_distribution(dist) == pytest.approx(
                expected, abs=1e-12)

    def test_stays_in_the_unit_interval(self, rng):
        for _ in range(500):
            a, b = rng.uniform(-10, 10, 2)
            c = rng.uniform(-1, 1)
            assert abs(chsh.expectation_closed_form(a, b, c)) <= 1 + 1e-12
        for _ in range(100):
            theta_l, theta_r = rng.uniform(0, 2 * np.pi, 2)
            dist = run_scenario(Scenario.B, theta_l, theta_r)
            assert abs(chsh.expectation_from_distribution(dist)) <= 1 + 1e-12


class TestChshS:
    def test_canonical_angles_at_full_contrast(self):
        s = chsh.chsh_S(chsh.canonical_angles(), 1.0, RoleAssignment.LITERAL)
        assert s == pytest.approx(TWO_SQRT_TWO, abs=1e-12)

    def test_canonical_angles_at_zero_contrast(self):
        s = chsh.chsh_S(chsh.canonical_angles(), 0.0, RoleAssignment.LITERAL)
        assert s == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_rejects_an_array_contrast(self):
        with pytest.raises(ValueError, match="c must be a scalar"):
            chsh.chsh_S(chsh.canonical_angles(), np.array([0.1, 0.2]), RoleAssignment.LITERAL)

    def test_all_equal_angles_give_two(self, rng):
        for c in rng.uniform(-1, 1, 20):
            for roles in RoleAssignment:
                s = chsh.chsh_S(BellAngles(0, 0, 0, 0), c, roles)
                assert s == pytest.approx(2.0, abs=1e-12)

    def test_role_assignments_pair_the_slots_differently(self):
        angles = BellAngles(0.1, 0.7, 1.9, 2.6)
        c = 0.4
        e = chsh.expectation_closed_form
        literal = (abs(e(0.1, 0.7, c) - e(0.1, 1.9, c))
                   + abs(e(2.6, 0.7, c) + e(2.6, 1.9, c)))
        standard = (abs(e(0.1, 0.7, c) - e(0.1, 2.6, c))
                    + abs(e(1.9, 0.7, c) + e(1.9, 2.6, c)))
        assert chsh.chsh_S(angles, c, RoleAssignment.LITERAL) == pytest.approx(
            literal, abs=1e-15)
        assert chsh.chsh_S(angles, c, RoleAssignment.STANDARD) == pytest.approx(
            standard, abs=1e-15)
        assert literal != pytest.approx(standard, abs=1e-3)

    @pytest.mark.parametrize("roles", list(RoleAssignment))
    def test_bell_angles_inverts_slots(self, roles):
        angles = BellAngles(0.1, 0.7, 1.9, 2.6)
        assert roles.bell_angles(*roles.slots(angles)) == angles
        assert roles.slots(roles.bell_angles(0.1, 0.7, 1.9, 2.6)) == (0.1, 0.7, 1.9, 2.6)

    def test_array_evaluation_matches_scalar(self, rng):
        thetas = rng.uniform(0, 2 * np.pi, size=(4, 50))
        values = chsh.chsh_S_values(*thetas, 0.3, RoleAssignment.STANDARD)
        for i in range(50):
            scalar = chsh.chsh_S(BellAngles(*thetas[:, i]), 0.3, RoleAssignment.STANDARD)
            assert values[i] == pytest.approx(scalar, abs=1e-15)

    @pytest.mark.parametrize("roles", list(RoleAssignment))
    @pytest.mark.parametrize("contrast", ["zero", "scalar", "per-angle", "two-rows"])
    def test_values_equal_the_four_term_formula_bit_for_bit(self, roles, contrast):
        rng = np.random.default_rng([20261018, list(RoleAssignment).index(roles)])
        n = 2_000
        thetas = rng.uniform(-10.0, 10.0, size=(4, n))
        c = {"zero": 0.0, "scalar": 0.6180339887,
             "per-angle": rng.uniform(-1.0, 1.0, n),
             "two-rows": rng.uniform(-1.0, 1.0, (2, n))}[contrast]
        t_l, t_r, t_lp, t_rp = thetas
        a, a_p, b, b_p = ((t_l, t_rp, t_r, t_lp) if roles is RoleAssignment.LITERAL
                          else (t_l, t_lp, t_r, t_rp))

        def e(x, y):
            return -np.cos(x) * np.cos(y) - np.sin(x) * np.sin(y) * c

        expected = np.abs(e(a, b) - e(a, b_p)) + np.abs(e(a_p, b) + e(a_p, b_p))
        values = chsh.chsh_S_values(*thetas, c, roles)
        assert values.shape == expected.shape == np.broadcast_shapes(np.shape(c), (n,))
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("roles", list(RoleAssignment))
    def test_trig_helper_equals_values_bit_for_bit(self, roles, rng):
        # a drawn contrast row and a zero row over cos/sin taken once, as chsh-bounds does
        n = 2_000
        thetas = rng.uniform(0.0, 2 * np.pi, size=(4, n))
        c = np.zeros((2, n))
        c[0] = rng.uniform(-1.0, 1.0, n)
        trig = [(np.cos(t), np.sin(t)) for t in thetas]
        values = chsh._S_from_trig(*roles._roles_of(*trig), c)
        expected = chsh.chsh_S_values(*thetas, c, roles)
        assert values.shape == expected.shape == (2, n)
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))

    def test_both_roles_helper_equals_the_trig_helper_bit_for_bit(self, rng):
        # random columns, then every tuple of special angles at each special contrast
        special = np.array([0.0, -0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        corners = np.array(np.meshgrid(*[special] * 4, indexing="ij")).reshape(4, -1)
        special_c = np.array([0.0, -0.0, 1.0, -1.0])
        thetas = np.hstack([rng.uniform(0.0, 2 * np.pi, size=(4, 20_000)),
                            np.repeat(corners, special_c.size, axis=1)])
        c = np.concatenate([rng.uniform(-1.0, 1.0, 20_000), np.tile(special_c, corners.shape[1])])
        trig = [(np.cos(t), np.sin(t)) for t in thetas]
        both = chsh._S_both_roles(trig, c)
        assert len(both) == len(RoleAssignment)
        for roles, rows in zip(RoleAssignment, both):
            expected = chsh._S_from_trig(*roles._roles_of(*trig), np.array([c, np.zeros_like(c)]))
            assert np.array(rows).shape == expected.shape == (2, c.size)
            assert np.array(rows).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("slot", range(4))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_angle_by_name(self, slot, bad):
        angles = [np.array([0.0, 0.4]), 0.1, 0.2, 0.3]
        angles[slot] = np.array([0.0, bad]) if slot == 0 else bad
        name = ("theta_l", "theta_r", "theta_lp", "theta_rp")[slot]
        for roles in RoleAssignment:
            with pytest.raises(ValueError, match=name):
                chsh.chsh_S_values(*angles, 0.5, roles)


class TestExpectationFromProbabilities:
    def test_rows_match_the_scalar_expectation(self, rng):
        theta_l, theta_r = rng.uniform(0, 2 * np.pi, size=(2, 200))
        rows = np.array([run_scenario(Scenario.B, a, b).as_array()
                         for a, b in zip(theta_l, theta_r)])
        scalar = [chsh.expectation_from_distribution(run_scenario(Scenario.B, a, b))
                  for a, b in zip(theta_l, theta_r)]
        assert np.array_equal(chsh.expectation_from_probabilities(rows), scalar)
        assert chsh.expectation_from_probabilities(rows.reshape(10, 20, 4)).shape == (10, 20)

    @pytest.mark.parametrize("p", [np.full(3, 0.25), np.full((2, 5), 0.2), 0.5,
                                   [0.25, 0.25, np.nan, 0.25], [[0.5, 0, 0, np.inf]]])
    def test_rejects_malformed_rows(self, p):
        with pytest.raises(ValueError):
            chsh.expectation_from_probabilities(p)


class TestFixedAngleCurve:
    def test_zero_loop_attains_the_quantum_maximum(self):
        assert chsh.fixed_angle_curve_S(0.0) == pytest.approx(TWO_SQRT_TWO, abs=1e-12)

    def test_eighth_turn_drops_to_sqrt_two(self):
        assert chsh.fixed_angle_curve_S(np.pi / 4) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_quarter_turn_recovers_the_maximum(self):
        assert chsh.fixed_angle_curve_S(np.pi / 2) == pytest.approx(TWO_SQRT_TWO, abs=1e-12)

    def test_matches_literal_combination_everywhere(self):
        for mu_lambda in np.linspace(0, 2 * np.pi, 1000, endpoint=False):
            literal = chsh.chsh_S(chsh.canonical_angles(), chsh.contrast(mu_lambda),
                                  RoleAssignment.LITERAL)
            assert literal == pytest.approx(chsh.fixed_angle_curve_S(mu_lambda), abs=1e-12)

    def test_even_and_periodic(self, rng):
        probe = rng.uniform(-10, 10, 100)
        assert_allclose(chsh.fixed_angle_curve_S(probe), chsh.fixed_angle_curve_S(-probe),
                        atol=1e-12)
        assert_allclose(chsh.fixed_angle_curve_S(probe),
                        chsh.fixed_angle_curve_S(probe + np.pi), atol=1e-12)


    @pytest.mark.parametrize("mu_lambda", [np.nan, np.inf, -np.inf, 1e308,
                                           np.array([0.1, np.nan]), np.array([0.1, 1e308])])
    def test_rejects_mu_lambda_without_a_finite_contrast(self, mu_lambda):
        with pytest.raises(ValueError, match="finite contrast"):
            chsh.fixed_angle_curve_S(mu_lambda)


class TestContrast:
    def test_broadcasts_like_the_scalar_call(self):
        mu_lambdas = np.linspace(0.0, 2 * np.pi, 50)
        assert np.array_equal(chsh.contrast(mu_lambdas),
                              [chsh.contrast(float(x)) for x in mu_lambdas])
        assert isinstance(chsh.contrast(0.3), float)

    @pytest.mark.parametrize("mu_lambda", [np.nan, np.inf, -np.inf, 1e308, -1e308])
    def test_rejects_mu_lambda_without_a_finite_contrast(self, mu_lambda):
        with pytest.raises(ValueError, match="finite contrast"):
            chsh.contrast(mu_lambda)


class TestAnalyticOptimum:
    def test_full_contrast_angles_and_value(self):
        angles = chsh.analytic_optimal_angles(0.0)
        assert_allclose(angles.as_tuple(), (0, np.pi / 4, np.pi / 2, 3 * np.pi / 4),
                        atol=1e-15)
        s = chsh.chsh_S(angles, 1.0, RoleAssignment.STANDARD)
        assert s == pytest.approx(TWO_SQRT_TWO, abs=1e-12)

    def test_zero_contrast_angles_and_value(self):
        angles = chsh.analytic_optimal_angles(np.pi / 4)
        assert_allclose(angles.as_tuple(), (0, 0, np.pi / 2, np.pi), atol=1e-15)
        s = chsh.chsh_S(angles, 0.0, RoleAssignment.STANDARD)
        assert s == pytest.approx(2.0, abs=1e-12)

    def test_value_is_analytic_max_for_any_contrast(self):
        for mu_lambda in np.linspace(0, np.pi, 101):
            angles = chsh.analytic_optimal_angles(mu_lambda)
            c = chsh.contrast(mu_lambda)
            s = chsh.chsh_S(angles, c, RoleAssignment.STANDARD)
            assert s == pytest.approx(chsh.analytic_max_S(c), abs=1e-12)

    def test_rejects_array_inputs(self):
        with pytest.raises(ValueError, match="c must be a scalar"):
            chsh.analytic_max_S(np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="mu_lambda must be a scalar"):
            chsh.analytic_optimal_angles(np.array([0.1, 0.2]))

    def test_beats_random_sampling(self, rng):
        # sampling oracle: a million random angle tuples never beat the
        # analytic optimum at any of 25 loop phases
        draws = rng.uniform(0, 2 * np.pi, size=(4, 1_000_000))
        # the draws' cos/sin are taken once and serve every contrast
        trig = RoleAssignment.STANDARD._roles_of(*((np.cos(t), np.sin(t)) for t in draws))
        for mu_lambda in np.linspace(0, np.pi, 25):
            c = chsh.contrast(mu_lambda)
            sampled = chsh._S_from_trig(*trig, c)
            analytic = chsh.chsh_S(chsh.analytic_optimal_angles(mu_lambda), c,
                                   RoleAssignment.STANDARD)
            assert analytic >= float(np.max(sampled)) - 1e-9


class TestBounds:
    def test_tsirelson_ceiling(self, rng):
        angles = rng.uniform(0, 2 * np.pi, size=(4, 200_000))
        contrasts = rng.uniform(-1, 1, size=200_000)
        for roles in RoleAssignment:
            values = chsh.chsh_S_values(*angles, contrasts, roles)
            assert float(np.max(values)) <= chsh.TSIRELSON_BOUND + 1e-9

    def test_classical_bound_at_zero_contrast(self, rng):
        angles = rng.uniform(0, 2 * np.pi, size=(4, 200_000))
        for roles in RoleAssignment:
            values = chsh.chsh_S_values(*angles, 0.0, roles)
            assert float(np.max(values)) <= 2.0 + 1e-9

    def test_fixed_angle_curve_never_beats_the_reoptimized_maximum(self):
        mu_lambdas = np.linspace(0, np.pi, 1001)
        curve = chsh.fixed_angle_curve_S(mu_lambdas)
        best = 2 * np.sqrt(1 + np.cos(2 * mu_lambdas) ** 2)
        assert np.all(curve <= best + 1e-9)
        at_full = np.abs(np.abs(np.cos(2 * mu_lambdas)) - 1) < 1e-12
        assert np.max(np.abs(curve[at_full] - best[at_full])) < 1e-9
        away = np.abs(np.cos(2 * mu_lambdas)) < 0.999
        assert np.min(best[away] - curve[away]) > 1e-9


class TestBellAngles:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BellAngles(0.0, np.nan, 0.0, 0.0)

    def test_tuple_round_trip(self):
        angles = BellAngles(0.1, 0.2, 0.3, 0.4)
        assert angles.as_tuple() == (0.1, 0.2, 0.3, 0.4)
