import numpy as np
import pytest
from numpy.testing import assert_allclose

from topobell import chsh
from topobell.chsh import BellAngles, RoleAssignment
from topobell.entangled import Scenario, TopoPhaseSpec, run_scenario

TWO_SQRT_TWO = 2 * np.sqrt(2)


class TestExpectationFromDistribution:
    @pytest.mark.parametrize("scenario, theta_l, theta_r, topo, e", [
        (Scenario.B, 0.8, 0.8, None, -1.0),
        (Scenario.B, np.pi / 2, 0.0, None, 0.0),
        (Scenario.C, np.pi / 2, np.pi / 2,
         TopoPhaseSpec.spin_conditioned(1.0, np.pi / 2, 0.0), 1.0),
    ], ids=["equal-angles-anticorrelate", "quarter-wave-gives-zero", "half-turn-loop-flips"])
    def test_point_values(self, scenario, theta_l, theta_r, topo, e):
        dist = run_scenario(scenario, theta_l, theta_r, topo)
        assert chsh.expectation_from_distribution(dist) == pytest.approx(e, abs=1e-12)


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
    @pytest.mark.parametrize("c, s", [(1.0, TWO_SQRT_TWO), (0.0, np.sqrt(2))],
                             ids=["full-contrast", "zero-contrast"])
    def test_canonical_angles(self, c, s):
        assert chsh.chsh_S(chsh.canonical_angles(), c, RoleAssignment.LITERAL) == pytest.approx(
            s, abs=1e-12)

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
    @pytest.mark.parametrize("mu_lambda, s", [
        (0.0, TWO_SQRT_TWO), (np.pi / 4, np.sqrt(2)), (np.pi / 2, TWO_SQRT_TWO),
    ], ids=["zero-loop-quantum-maximum", "eighth-turn-sqrt-two", "quarter-turn-maximum-again"])
    def test_point_values(self, mu_lambda, s):
        assert chsh.fixed_angle_curve_S(mu_lambda) == pytest.approx(s, abs=1e-12)

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
    @pytest.mark.parametrize("mu_lambda, c, expected, s", [
        (0.0, 1.0, (0, np.pi / 4, np.pi / 2, 3 * np.pi / 4), TWO_SQRT_TWO),
        (np.pi / 4, 0.0, (0, 0, np.pi / 2, np.pi), 2.0),
    ], ids=["full-contrast", "zero-contrast"])
    def test_angles_and_value(self, mu_lambda, c, expected, s):
        angles = chsh.analytic_optimal_angles(mu_lambda)
        assert_allclose(angles.as_tuple(), expected, atol=1e-15)
        assert chsh.chsh_S(angles, c, RoleAssignment.STANDARD) == pytest.approx(s, abs=1e-12)

    def test_value_is_analytic_max_for_any_contrast(self):
        for mu_lambda in np.linspace(0, np.pi, 101):
            angles = chsh.analytic_optimal_angles(mu_lambda)
            c = chsh.contrast(mu_lambda)
            s = chsh.chsh_S(angles, c, RoleAssignment.STANDARD)
            assert s == pytest.approx(chsh.analytic_max_S(c), abs=1e-12)


class TestBellAngles:
    def test_tuple_round_trip(self):
        angles = BellAngles(0.1, 0.2, 0.3, 0.4)
        assert angles.as_tuple() == (0.1, 0.2, 0.3, 0.4)
