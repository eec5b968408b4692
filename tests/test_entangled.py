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
    scenario_probabilities,
)
from topobell.oracle import brute_force_distribution
from topobell.verify import _uniform_columns


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

    @pytest.mark.parametrize("mode, fields", [
        ("spin-conditioned", {"mu": 1.0, "lambda_l": 0.0, "lambda_r": 0.0}),
        (None, {}),
    ])
    def test_rejects_unknown_mode(self, mode, fields):
        with pytest.raises(ValueError, match=f"unknown phase mode {mode!r}"):
            TopoPhaseSpec(mode, **fields)

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
        dist = run_scenario(Scenario.A, 0.7, 0.7)
        assert dist.p_d0p_d0 == pytest.approx(0.5, abs=1e-12)
        assert dist.p_d1p_d0 == pytest.approx(0.0, abs=1e-12)

    def test_quarter_wave_difference(self):
        dist = run_scenario(Scenario.A, np.pi / 2, 0.0)
        assert dist.p_d0p_d0 == pytest.approx(0.25, abs=1e-12)
        assert dist.p_d1p_d0 == pytest.approx(0.25, abs=1e-12)

    def test_matches_closed_form_on_grid(self):
        for theta_l in np.linspace(0, 2 * np.pi, 17):
            for theta_r in np.linspace(0, 2 * np.pi, 17):
                simulated = run_scenario(Scenario.A, theta_l, theta_r).as_array()
                reference = closed_form.scenario_a_distribution(theta_l, theta_r).as_array()
                assert_allclose(simulated, reference, atol=1e-12)

    def test_asymmetric_arm_integrals_do_shift_probabilities(self):
        # total per-side integral differs between sides, so the branch
        # phases no longer cancel
        topo = TopoPhaseSpec.path_integrals(1.0, 1.3, 0.0, 0.0, 0.0)
        shifted = run_scenario(Scenario.A, 0.4, 1.1, topo).as_array()
        plain = run_scenario(Scenario.A, 0.4, 1.1).as_array()
        assert np.max(np.abs(shifted - plain)) > 1e-3


class TestScenarioB:
    def test_equal_angles_anticorrelate(self):
        dist = run_scenario(Scenario.B, 1.1, 1.1)
        assert dist.p_d0p_d0 == pytest.approx(0.0, abs=1e-12)
        assert dist.p_d1p_d0 == pytest.approx(0.5, abs=1e-12)

    def test_quarter_wave_difference(self):
        dist = run_scenario(Scenario.B, np.pi / 2, 0.0)
        assert dist.p_d0p_d0 == pytest.approx(0.25, abs=1e-12)


class TestScenarioC:
    # 2*mu*lambda = pi/2 kills the interference term at right angles, pi flips its sign
    @pytest.mark.parametrize("lambda_l, p", [(np.pi / 4, 0.25), (np.pi / 2, 0.5)],
                             ids=["quarter-turn", "half-turn"])
    def test_contrast(self, lambda_l, p):
        topo = TopoPhaseSpec.spin_conditioned(1.0, lambda_l, 0.0)
        dist = run_scenario(Scenario.C, np.pi / 2, np.pi / 2, topo)
        assert dist.p_d0p_d0 == pytest.approx(p, abs=1e-12)


class TestScenarioAB:
    def test_zero_flux_equals_scenario_b(self):
        dist = run_scenario(Scenario.AB, 0.3, 1.2, TopoPhaseSpec.aharonov_bohm(0.0))
        assert_allclose(dist.as_array(), run_scenario(Scenario.B, 0.3, 1.2).as_array(), atol=1e-15)

    def test_flux_values_a_turn_apart_agree(self):
        one = run_scenario(Scenario.AB, 0.9, 0.2, TopoPhaseSpec.aharonov_bohm(np.pi))
        other = run_scenario(Scenario.AB, 0.9, 0.2, TopoPhaseSpec.aharonov_bohm(3 * np.pi))
        assert_allclose(one.as_array(), other.as_array(), atol=1e-15)


class TestOneFormula:
    def test_zero_phases_reproduce_scenario_b_exactly(self, rng):
        # B, C and AB share one joint amplitude and one side matrix, so
        # branch phases of exactly 1 must give B's numbers bit for bit;
        # the columns are the draws of 10,000 per-point rng.uniform calls
        theta_l, theta_r, mu = _uniform_columns(rng, 10_000, (-10, 10), (-10, 10), (-2, 2))
        b = scenario_probabilities(Scenario.B, theta_l, theta_r)
        ab = scenario_probabilities(Scenario.AB, theta_l, theta_r, flux=0.0)
        c = scenario_probabilities(Scenario.C, theta_l, theta_r, mu=mu, lambda_l=0.0, lambda_r=0.0)
        assert np.array_equal(ab, b)
        assert np.array_equal(c, b)


class TestDispatcher:
    def test_dispatches_each_scenario(self):
        # each scenario reaches its own physics: A sits a quarter wave from B,
        # C carries the contrast of 2*mu*(lambda_l - lambda_r) = 0.4, AB equals B
        theta_l, theta_r = 0.1, 1.2
        cases = {
            Scenario.A: (None, closed_form.scenario_a_distribution(theta_l, theta_r)),
            Scenario.B: (None, closed_form.scenario_b_distribution(theta_l, theta_r)),
            Scenario.C: (TopoPhaseSpec.spin_conditioned(1.0, 0.3, 0.1),
                         closed_form.scenario_c_distribution(theta_l, theta_r, 0.4)),
            Scenario.AB: (TopoPhaseSpec.aharonov_bohm(0.7),
                          closed_form.scenario_b_distribution(theta_l, theta_r)),
        }
        for scenario, (topo, reference) in cases.items():
            assert_allclose(run_scenario(scenario, theta_l, theta_r, topo).as_array(),
                            reference.as_array(), atol=1e-12)


# ---- every one-point message, in full and in the order of the checks --------

_SPIN = TopoPhaseSpec.spin_conditioned(1.0, 0.5, -0.5)
_AB = TopoPhaseSpec.aharonov_bohm(2.0)
_NAN, _INF = float("nan"), float("inf")

#: (id, arguments after the entry point, message). Where two inputs are bad, the
#: message names the one checked first: the scenario, then the spec, then theta_l.
POINT_MESSAGES = [
    ("unknown-scenario", ("C", 0.1, 0.2, _SPIN), "unknown scenario 'C'"),
    ("unknown-scenario-first", ("X", _NAN, 0.2, _AB), "unknown scenario 'X'"),
    ("spec-for-B", (Scenario.B, 0.1, 0.2, _AB),
     "scenario B takes no topological phase spec, got spin-independent-ab"),
    ("no-spec-for-C", (Scenario.C, 0.1, 0.2, None),
     "scenario C requires a spin-conditioned phase spec, got NoneType"),
    ("no-spec-for-AB", (Scenario.AB, 0.1, 0.2, None),
     "scenario AB requires a spin-independent-ab phase spec, got NoneType"),
    ("wrong-mode-C", (Scenario.C, 0.1, 0.2, _AB),
     "scenario C requires a spin-conditioned phase spec, got spin-independent-ab"),
    ("wrong-mode-A", (Scenario.A, 0.1, 0.2, _SPIN),
     "scenario A requires a path-integrals phase spec, got spin-conditioned"),
    ("not-a-spec", (Scenario.C, 0.1, 0.2, {"mu": 1.0}),
     "scenario C requires a spin-conditioned phase spec, got dict"),
    ("spec-before-angle", (Scenario.AB, _NAN, 0.2, _SPIN),
     "scenario AB requires a spin-independent-ab phase spec, got spin-conditioned"),
    ("nan", (Scenario.B, _NAN, 0.2), "theta_l must be finite, got nan"),
    ("inf", (Scenario.C, 0.1, _INF, _SPIN), "theta_r must be finite, got inf"),
    ("minus-inf", (Scenario.A, -_INF, 0.2), "theta_l must be finite, got -inf"),
    ("complex", (Scenario.AB, 1 + 2j, 0.2, _AB), "theta_l must be a real number, got (1+2j)"),
    ("numpy-complex", (Scenario.B, 0.1, np.complex128(0.5)),
     f"theta_r must be a real number, got {np.complex128(0.5)!r}"),
    ("text", (Scenario.B, "abc", 0.2), "theta_l must be a real number, got 'abc'"),
    ("shape-1", (Scenario.C, np.array([0.1]), 0.2, _SPIN),
     "theta_l must be a scalar, got shape (1,)"),
    ("theta-l-first", (Scenario.B, _INF, _NAN), "theta_l must be finite, got inf"),
]


@pytest.mark.parametrize("entry", [run_scenario, brute_force_distribution],
                         ids=["run_scenario", "brute_force_distribution"])
@pytest.mark.parametrize("args, message", [case[1:] for case in POINT_MESSAGES],
                         ids=[case[0] for case in POINT_MESSAGES])
def test_one_point_messages_are_exact(entry, args, message):
    with pytest.raises(ValueError) as exc:
        entry(*args)
    assert str(exc.value) == message


#: (id, constructor call, message); the mode is checked first, then foreign
#: fields, missing fields, each field in the mode's order, and each phase label.
SPEC_MESSAGES = [
    ("unknown-mode", lambda: TopoPhaseSpec("spin-conditioned", mu=_NAN),
     "unknown phase mode 'spin-conditioned'"),
    ("unknown-mode-complete", lambda: TopoPhaseSpec("spin-conditioned", mu=1.0, lambda_l=0.0,
                                                    lambda_r=0.0),
     "unknown phase mode 'spin-conditioned'"),
    ("no-mode", lambda: TopoPhaseSpec(None), "unknown phase mode None"),
    ("foreign-field", lambda: TopoPhaseSpec(PhaseMode.SPIN_CONDITIONED, mu=1.0, flux=_NAN),
     "field 'flux' is not part of spin-conditioned mode"),
    ("foreign-field-complete", lambda: TopoPhaseSpec(PhaseMode.SPIN_CONDITIONED, mu=1.0,
                                                     lambda_l=0.0, lambda_r=0.0, flux=1.0),
     "field 'flux' is not part of spin-conditioned mode"),
    ("missing-field", lambda: TopoPhaseSpec(PhaseMode.SPIN_CONDITIONED, mu=_NAN, lambda_l=0.0),
     "spin-conditioned mode requires field 'lambda_r'"),
    ("missing-field-finite", lambda: TopoPhaseSpec(PhaseMode.SPIN_CONDITIONED, mu=1.0,
                                                   lambda_l=0.0),
     "spin-conditioned mode requires field 'lambda_r'"),
    ("nan-field", lambda: TopoPhaseSpec.spin_conditioned(_NAN, _INF, 0.0),
     "field 'mu' must be finite, got nan"),
    ("inf-field", lambda: TopoPhaseSpec.path_integrals(1.0, 0.0, 0.0, -_INF, _NAN),
     "field 'i_u_r' must be finite, got -inf"),
    ("nan-flux", lambda: TopoPhaseSpec.aharonov_bohm(_NAN), "field 'flux' must be finite, got nan"),
    ("text-field", lambda: TopoPhaseSpec.aharonov_bohm("abc"),
     "field 'flux' must be a real number, got 'abc'"),
    ("complex-field", lambda: TopoPhaseSpec.spin_conditioned(1.0, 1j, 0.0),
     "field 'lambda_l' must be a real number, got 1j"),
    ("field-before-phase", lambda: TopoPhaseSpec.spin_conditioned(1e308, 1e308, _NAN),
     "field 'lambda_r' must be finite, got nan"),
    ("mu*lambda_l", lambda: TopoPhaseSpec.spin_conditioned(1e308, 1e308, 1e308),
     "phase mu*lambda_l must be finite, got inf"),
    ("mu*lambda_l-alone", lambda: TopoPhaseSpec.spin_conditioned(1e308, 1e308, 0.0),
     "phase mu*lambda_l must be finite, got inf"),
    ("mu*lambda_r", lambda: TopoPhaseSpec.spin_conditioned(-1e308, 0.0, 1e308),
     "phase mu*lambda_r must be finite, got -inf"),
    ("mu*(lambda_l - lambda_r)", lambda: TopoPhaseSpec.spin_conditioned(1.0, 1e308, -1e308),
     "phase mu*(lambda_l - lambda_r) must be finite, got inf"),
    ("mu*i_u_l", lambda: TopoPhaseSpec.path_integrals(1e308, 1e308, 0.0, 0.0, 1e308),
     "phase mu*i_u_l must be finite, got inf"),
    ("mu*i_d_r", lambda: TopoPhaseSpec.path_integrals(1e308, 0.0, 0.0, 0.0, 1e308),
     "phase mu*i_d_r must be finite, got inf"),
]

#: (id, the four values, message); whether each value is a real number is checked
#: first, then the range, then the sum.
DISTRIBUTION_MESSAGES = [
    ("bad-sum", (0.5, 0.5, 0.5, 0.5), "probabilities sum to 2.0, expected 1"),
    ("out-of-range", (-0.5, 0.5, 0.5, 0.5), "probabilities out of [0, 1]: [-0.5, 0.5, 0.5, 0.5]"),
    ("range-before-sum", (2.0, 0.0, 0.0, 0.0), "probabilities out of [0, 1]: [2.0, 0.0, 0.0, 0.0]"),
    ("nan", (_NAN, 0.5, 0.5, 0.0), "probabilities out of [0, 1]: [nan, 0.5, 0.5, 0.0]"),
    ("complex", (0.5 + 0j, 0.5, 0, 0),
     "probabilities must be real numbers, got ((0.5+0j), 0.5, 0, 0)"),
    ("numpy-complex", (np.complex128(0.5), 0.5, 0.0, 0.0),
     f"probabilities must be real numbers, got ({np.complex128(0.5)!r}, 0.5, 0.0, 0.0)"),
    ("text-before-range", ("a", 2.0, 0.0, 0.0), "probabilities must be real numbers, got "
     "('a', 2.0, 0.0, 0.0)"),
]


@pytest.mark.parametrize("build, message", [case[1:] for case in SPEC_MESSAGES]
                         + [((lambda v=values: DetectionDistribution(*v)), message)
                            for _, values, message in DISTRIBUTION_MESSAGES],
                         ids=[f"spec-{case[0]}" for case in SPEC_MESSAGES]
                         + [f"distribution-{case[0]}" for case in DISTRIBUTION_MESSAGES])
def test_spec_and_distribution_messages_are_exact(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
