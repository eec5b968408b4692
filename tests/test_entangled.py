import numpy as np
import pytest
from numpy.testing import assert_allclose

from topobell import closed_form
from topobell.entangled import (
    DetectionDistribution,
    PhaseMode,
    Scenario,
    TopoPhaseSpec,
    run_scenario,
    run_scenario_a,
    run_scenario_ab,
    run_scenario_b,
    run_scenario_c,
)


class TestTopoPhaseSpec:
    def test_mode_constructors(self):
        spin = TopoPhaseSpec.spin_conditioned(1.0, 0.5, -0.5)
        assert spin.mode is PhaseMode.SPIN_CONDITIONED
        ab = TopoPhaseSpec.aharonov_bohm(2.0)
        assert ab.mode is PhaseMode.SPIN_INDEPENDENT_AB
        path = TopoPhaseSpec.path_integrals(1.0, 0.1, 0.2, 0.3, 0.4)
        assert path.mode is PhaseMode.PATH_INTEGRALS

    def test_rejects_fields_outside_mode(self):
        with pytest.raises(ValueError, match="flux"):
            TopoPhaseSpec(PhaseMode.SPIN_CONDITIONED, mu=1.0, lambda_l=0.0,
                          lambda_r=0.0, flux=1.0)

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="lambda_r"):
            TopoPhaseSpec(PhaseMode.SPIN_CONDITIONED, mu=1.0, lambda_l=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TopoPhaseSpec.aharonov_bohm(np.inf)

    @pytest.mark.parametrize("build, label", [
        (lambda: TopoPhaseSpec.spin_conditioned(1e308, 1e308, 0.0), "mu\\*lambda_l"),
        (lambda: TopoPhaseSpec.spin_conditioned(1e308, 0.0, -1e308), "mu\\*lambda_r"),
        (lambda: TopoPhaseSpec.spin_conditioned(1.0, 1e308, -1e308), "lambda_l - lambda_r"),
        (lambda: TopoPhaseSpec.path_integrals(1e308, 0.0, 0.0, 0.0, 1e308), "mu\\*i_d_r"),
    ])
    def test_rejects_phase_products_that_overflow(self, build, label):
        with pytest.raises(ValueError, match=label):
            build()


class TestDetectionDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            DetectionDistribution(0.5, 0.5, 0.5, 0.5)

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError):
            DetectionDistribution(-0.5, 0.5, 0.5, 0.5)

    @pytest.mark.parametrize("values", [
        (np.nan, np.nan, np.nan, np.nan),
        (np.nan, 0.5, 0.5, 0.0),
        (np.inf, 0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0, -np.inf),
    ])
    def test_rejects_non_finite_probabilities(self, values):
        with pytest.raises(ValueError):
            DetectionDistribution(*values)

    def test_array_round_trip(self):
        dist = DetectionDistribution(0.1, 0.2, 0.3, 0.4)
        assert_allclose(DetectionDistribution.from_array(dist.as_array()).as_array(),
                        dist.as_array(), atol=0)


class TestScenarioA:
    def test_equal_angles_correlate_the_first_detectors(self):
        dist = run_scenario_a(0.7, 0.7)
        assert dist.p_d0p_d0 == pytest.approx(0.5, abs=1e-12)
        assert dist.p_d1p_d0 == pytest.approx(0.0, abs=1e-12)

    def test_quarter_wave_difference(self):
        dist = run_scenario_a(np.pi / 2, 0.0)
        assert dist.p_d0p_d0 == pytest.approx(0.25, abs=1e-12)
        assert dist.p_d1p_d0 == pytest.approx(0.25, abs=1e-12)

    def test_matches_closed_form_on_grid(self):
        for theta_l in np.linspace(0, 2 * np.pi, 17):
            for theta_r in np.linspace(0, 2 * np.pi, 17):
                simulated = run_scenario_a(theta_l, theta_r).as_array()
                reference = closed_form.scenario_a_distribution(theta_l, theta_r).as_array()
                assert_allclose(simulated, reference, atol=1e-12)

    def test_symmetric_arm_integrals_are_invisible(self, rng):
        for _ in range(200):
            theta_l, theta_r = rng.uniform(0, 2 * np.pi, 2)
            mu, i_u, i_d = rng.uniform(-3, 3, 3)
            topo = TopoPhaseSpec.path_integrals(mu, i_u, i_d, i_u, i_d)
            assert_allclose(run_scenario_a(theta_l, theta_r, topo).as_array(),
                            run_scenario_a(theta_l, theta_r).as_array(), atol=1e-12)

    def test_asymmetric_arm_integrals_do_shift_probabilities(self):
        # total per-side integral differs between sides, so the branch
        # phases no longer cancel
        topo = TopoPhaseSpec.path_integrals(1.0, 1.3, 0.0, 0.0, 0.0)
        shifted = run_scenario_a(0.4, 1.1, topo).as_array()
        plain = run_scenario_a(0.4, 1.1).as_array()
        assert np.max(np.abs(shifted - plain)) > 1e-3

    def test_rejects_wrong_mode(self):
        with pytest.raises(ValueError, match="path-integrals"):
            run_scenario_a(0.0, 0.0, TopoPhaseSpec.aharonov_bohm(1.0))


class TestScenarioB:
    def test_equal_angles_anticorrelate(self):
        dist = run_scenario_b(1.1, 1.1)
        assert dist.p_d0p_d0 == pytest.approx(0.0, abs=1e-12)
        assert dist.p_d1p_d0 == pytest.approx(0.5, abs=1e-12)

    def test_quarter_wave_difference(self):
        dist = run_scenario_b(np.pi / 2, 0.0)
        assert dist.p_d0p_d0 == pytest.approx(0.25, abs=1e-12)

    def test_matches_closed_form_on_grid(self):
        for theta_l in np.linspace(0, 2 * np.pi, 17):
            for theta_r in np.linspace(0, 2 * np.pi, 17):
                simulated = run_scenario_b(theta_l, theta_r).as_array()
                reference = closed_form.scenario_b_distribution(theta_l, theta_r).as_array()
                assert_allclose(simulated, reference, atol=1e-12)

    def test_degiorgio_offset_against_scenario_a(self, rng):
        # open geometry and full interferometer differ by a quarter-wave:
        # sin^2 and cos^2 swap roles
        for _ in range(200):
            theta_l, theta_r = rng.uniform(0, 2 * np.pi, 2)
            a = run_scenario_a(theta_l, theta_r)
            b = run_scenario_b(theta_l, theta_r)
            assert a.p_d0p_d0 == pytest.approx(b.p_d1p_d0, abs=1e-12)


class TestScenarioC:
    def test_zero_loop_reduces_to_scenario_b(self, rng):
        for _ in range(100):
            theta_l, theta_r = rng.uniform(0, 2 * np.pi, 2)
            topo = TopoPhaseSpec.spin_conditioned(rng.uniform(-2, 2), 0.7, 0.7)
            assert_allclose(run_scenario_c(theta_l, theta_r, topo).as_array(),
                            run_scenario_b(theta_l, theta_r).as_array(), atol=1e-12)

    def test_quarter_turn_contrast(self):
        # 2*mu*lambda = pi/2 kills the interference term at right angles
        topo = TopoPhaseSpec.spin_conditioned(1.0, np.pi / 4, 0.0)
        dist = run_scenario_c(np.pi / 2, np.pi / 2, topo)
        assert dist.p_d0p_d0 == pytest.approx(0.25, abs=1e-12)

    def test_half_turn_contrast(self):
        # 2*mu*lambda = pi flips the interference term sign
        topo = TopoPhaseSpec.spin_conditioned(1.0, np.pi / 2, 0.0)
        dist = run_scenario_c(np.pi / 2, np.pi / 2, topo)
        assert dist.p_d0p_d0 == pytest.approx(0.5, abs=1e-12)

    def test_matches_closed_form_on_grid(self):
        for theta_l in np.linspace(0, 2 * np.pi, 9):
            for theta_r in np.linspace(0, 2 * np.pi, 9):
                for mu_lambda in np.linspace(0, np.pi, 9):
                    topo = TopoPhaseSpec.spin_conditioned(1.0, mu_lambda, 0.0)
                    simulated = run_scenario_c(theta_l, theta_r, topo).as_array()
                    reference = closed_form.scenario_c_distribution(
                        theta_l, theta_r, 2.0 * mu_lambda).as_array()
                    assert_allclose(simulated, reference, atol=1e-12)

    def test_only_the_loop_difference_matters(self, rng):
        for _ in range(100):
            theta_l, theta_r = rng.uniform(0, 2 * np.pi, 2)
            mu, lam_l, lam_r, shift = rng.uniform(-3, 3, 4)
            base = run_scenario_c(theta_l, theta_r,
                                  TopoPhaseSpec.spin_conditioned(mu, lam_l, lam_r))
            shifted = run_scenario_c(theta_l, theta_r,
                                     TopoPhaseSpec.spin_conditioned(mu, lam_l + shift,
                                                                    lam_r + shift))
            assert_allclose(base.as_array(), shifted.as_array(), atol=1e-12)

    def test_loop_sign_is_invisible(self, rng):
        for _ in range(100):
            theta_l, theta_r = rng.uniform(0, 2 * np.pi, 2)
            mu, lam = rng.uniform(-3, 3, 2)
            plus = run_scenario_c(theta_l, theta_r,
                                  TopoPhaseSpec.spin_conditioned(mu, lam, 0.0))
            minus = run_scenario_c(theta_l, theta_r,
                                   TopoPhaseSpec.spin_conditioned(mu, -lam, 0.0))
            assert_allclose(plus.as_array(), minus.as_array(), atol=1e-12)

    def test_rejects_wrong_mode(self):
        with pytest.raises(ValueError, match="spin-conditioned"):
            run_scenario_c(0.0, 0.0, TopoPhaseSpec.aharonov_bohm(1.0))


class TestScenarioAB:
    def test_zero_flux_equals_scenario_b(self):
        dist = run_scenario_ab(0.3, 1.2, TopoPhaseSpec.aharonov_bohm(0.0))
        assert_allclose(dist.as_array(), run_scenario_b(0.3, 1.2).as_array(), atol=1e-15)

    def test_any_flux_equals_scenario_b(self, rng):
        for _ in range(200):
            theta_l, theta_r = rng.uniform(0, 2 * np.pi, 2)
            flux = rng.uniform(-10, 10)
            ab = run_scenario_ab(theta_l, theta_r, TopoPhaseSpec.aharonov_bohm(flux))
            assert_allclose(ab.as_array(), run_scenario_b(theta_l, theta_r).as_array(),
                            atol=1e-12)

    def test_flux_values_a_turn_apart_agree(self):
        one = run_scenario_ab(0.9, 0.2, TopoPhaseSpec.aharonov_bohm(np.pi))
        other = run_scenario_ab(0.9, 0.2, TopoPhaseSpec.aharonov_bohm(3 * np.pi))
        assert_allclose(one.as_array(), other.as_array(), atol=1e-15)

    def test_rejects_wrong_mode(self):
        with pytest.raises(ValueError, match="spin-independent"):
            run_scenario_ab(0.0, 0.0, TopoPhaseSpec.spin_conditioned(1.0, 0.0, 0.0))


class TestOneFormula:
    def test_zero_phases_reproduce_scenario_b_exactly(self, rng):
        # B, C and AB share one joint amplitude and one side matrix, so
        # branch phases of exactly 1 must give B's numbers bit for bit
        for _ in range(10_000):
            theta_l, theta_r = rng.uniform(-10, 10, 2)
            mu = rng.uniform(-2, 2)
            b = run_scenario_b(theta_l, theta_r).as_array()
            ab = run_scenario_ab(theta_l, theta_r, TopoPhaseSpec.aharonov_bohm(0.0))
            c = run_scenario_c(theta_l, theta_r, TopoPhaseSpec.spin_conditioned(mu, 0.0, 0.0))
            assert np.array_equal(ab.as_array(), b)
            assert np.array_equal(c.as_array(), b)


class TestDispatcher:
    def test_dispatches_each_scenario(self):
        assert_allclose(run_scenario(Scenario.B, 0.1, 0.2).as_array(),
                        run_scenario_b(0.1, 0.2).as_array(), atol=0)
        topo = TopoPhaseSpec.spin_conditioned(1.0, 0.3, 0.1)
        assert_allclose(run_scenario(Scenario.C, 0.1, 0.2, topo).as_array(),
                        run_scenario_c(0.1, 0.2, topo).as_array(), atol=0)

    def test_scenario_b_rejects_topo(self):
        with pytest.raises(ValueError):
            run_scenario(Scenario.B, 0.0, 0.0, TopoPhaseSpec.aharonov_bohm(0.0))

    def test_scenario_c_requires_topo(self):
        with pytest.raises(ValueError, match="spin-conditioned"):
            run_scenario(Scenario.C, 0.0, 0.0)

    def test_scenario_ab_requires_topo(self):
        with pytest.raises(ValueError, match="spin-independent-ab"):
            run_scenario(Scenario.AB, 0.0, 0.0)

    def test_distributions_are_valid_for_random_draws(self, rng):
        for _ in range(500):
            scenario = rng.choice(list(Scenario))
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
            p = run_scenario(scenario, theta_l, theta_r, topo).as_array()
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p > -1e-12) and np.all(p < 1 + 1e-12)
