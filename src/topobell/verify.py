"""Invariant suites: every property the package promises, runnable in one go.

Each suite returns its worst residual against a stated tolerance; the CLI
``verify`` command prints one line per suite and exits nonzero if any
fails. Random draws use fixed seeds so repeated runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chsh, closed_form
from .entangled import Scenario, TopoPhaseSpec, run_scenario, run_scenario_a, run_scenario_b
from .linalg import tensor_product, unitarity_deviation
from .optics import beam_splitter, mach_zehnder, path_phase_operator, phase_retarder, spin_loop_phase
from .oracle import brute_force_distribution

BASE_SEED = 20260810

DEFAULT_HEAVY_DRAWS = 10_000
DEFAULT_LIGHT_DRAWS = 1_000

#: Test-harness fault hook: evaluates the scenario-C reference closed form
#: with the sign of its interference term flipped, so the equivalence
#: suite must fail. Exists to prove the check has teeth.
FAULT_SCENARIO_C_SIGN = "scenario-c-sign"

KNOWN_FAULTS = (FAULT_SCENARIO_C_SIGN,)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst_residual: float
    tolerance: float


def _rng(index: int) -> np.random.Generator:
    return np.random.default_rng([BASE_SEED, index])


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _suite_linalg(rng: np.random.Generator, draws: int) -> SuiteResult:
    worst = 0.0
    for theta in rng.uniform(-10.0, 10.0, size=64):
        worst = max(worst, unitarity_deviation(phase_retarder(theta)))
        worst = max(worst, unitarity_deviation(mach_zehnder(theta)))
        worst = max(worst, unitarity_deviation(
            path_phase_operator(theta, 0.5 * theta, 1.3)))
    worst = max(worst, unitarity_deviation(beam_splitter()))
    for _ in range(max(8, draws // 100)):
        u2 = _random_unitary(rng, 2)
        v2 = _random_unitary(rng, 2)
        worst = max(worst, unitarity_deviation(tensor_product(u2, v2)))
        # norm preservation
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        big = tensor_product(u2, v2)
        worst = max(worst, abs(np.linalg.norm(big @ vec) - np.linalg.norm(vec)))
        # mixed product: (a (x) b)(c (x) d) = (a c) (x) (b d)
        c2, d2 = _random_unitary(rng, 2), _random_unitary(rng, 2)
        lhs = tensor_product(u2, v2) @ tensor_product(c2, d2)
        rhs = tensor_product(u2 @ c2, v2 @ d2)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        # bilinearity in the left factor
        alpha = complex(rng.normal(), rng.normal())
        lhs = tensor_product(alpha * u2 + c2, v2)
        rhs = alpha * tensor_product(u2, v2) + tensor_product(c2, v2)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return SuiteResult("linalg-unitarity", worst <= 1e-12, worst, 1e-12)


def _suite_optics(rng: np.random.Generator) -> SuiteResult:
    bs = beam_splitter()
    worst = 0.0
    for theta in rng.uniform(-10.0, 10.0, size=1000):
        raw = bs @ phase_retarder(theta) @ bs
        # exact relation: the compact form at -theta carries the retarder arm
        stripped = raw / (1j * np.exp(0.5j * theta))
        worst = max(worst, float(np.max(np.abs(stripped - mach_zehnder(-theta)))))
        # identical statistics with the printed-orientation compact form
        worst = max(worst, float(np.max(np.abs(np.abs(raw) - np.abs(mach_zehnder(theta))))))
    for a, b in rng.uniform(-10.0, 10.0, size=(200, 2)):
        composed = phase_retarder(a) @ phase_retarder(b)
        worst = max(worst, float(np.max(np.abs(composed - phase_retarder(a + b)))))
        worst = max(worst, abs(spin_loop_phase(1, a, b) * spin_loop_phase(-1, a, b) - 1.0))
        op = path_phase_operator(a, b, 1.7)
        worst = max(worst, abs(op[0, 0] / op[1, 1] - np.exp(1j * 1.7 * (a + b))))
    return SuiteResult("optics-compact-form", worst <= 1e-12, worst, 1e-12)


def _random_scenario_params(rng: np.random.Generator, scenario: Scenario):
    theta_l, theta_r = rng.uniform(0.0, 2.0 * np.pi, size=2)
    if scenario is Scenario.A:
        topo = TopoPhaseSpec.path_integrals(rng.uniform(-2, 2), *rng.uniform(-3, 3, size=4))
    elif scenario is Scenario.B:
        topo = None
    elif scenario is Scenario.C:
        topo = TopoPhaseSpec.spin_conditioned(rng.uniform(-2, 2), *rng.uniform(-3, 3, size=2))
    else:
        topo = TopoPhaseSpec.aharonov_bohm(rng.uniform(-6, 6))
    return theta_l, theta_r, topo


def _suite_distribution_validity(rng: np.random.Generator, draws: int) -> SuiteResult:
    worst = 0.0
    for scenario in Scenario:
        for _ in range(draws):
            theta_l, theta_r, topo = _random_scenario_params(rng, scenario)
            p = run_scenario(scenario, theta_l, theta_r, topo).as_array()
            worst = max(worst, abs(float(p.sum()) - 1.0))
            worst = max(worst, float(max(0.0, np.max(p - 1.0), np.max(-p))))
    return SuiteResult("distribution-validity", worst <= 1e-12, worst, 1e-12)


def _suite_scenario_b_closed_form() -> SuiteResult:
    grid = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
    worst = 0.0
    for theta_l in grid:
        for theta_r in grid:
            simulated = run_scenario_b(theta_l, theta_r).as_array()
            reference = closed_form.scenario_b_distribution(theta_l, theta_r).as_array()
            worst = max(worst, float(np.max(np.abs(simulated - reference))))
            # p(D0',D0) and p(D1',D0) against the formulas written out here
            half = 0.5 * (theta_l - theta_r)
            worst = max(worst, float(abs(simulated[0] - 0.5 * np.sin(half) ** 2)),
                        float(abs(simulated[2] - 0.5 * np.cos(half) ** 2)))
    return SuiteResult("scenario-b-closed-form", worst <= 1e-12, worst, 1e-12)


def _suite_scenario_c_closed_form(inject_fault: str | None) -> SuiteResult:
    angles = np.linspace(0.0, 2.0 * np.pi, 20, endpoint=False)
    mu_lambdas = np.linspace(0.0, np.pi, 25, endpoint=False)
    worst = 0.0
    for theta_l in angles:
        for theta_r in angles:
            for mu_lambda in mu_lambdas:
                topo = TopoPhaseSpec.spin_conditioned(1.0, mu_lambda, 0.0)
                simulated = run_scenario(Scenario.C, theta_l, theta_r, topo).as_array()
                two_ml = 2.0 * mu_lambda
                if inject_fault == FAULT_SCENARIO_C_SIGN:
                    two_ml = np.pi - two_ml  # flips the interference term sign
                reference = closed_form.scenario_c_distribution(theta_l, theta_r, two_ml)
                worst = max(worst, float(np.max(np.abs(simulated - reference.as_array()))))
    return SuiteResult("scenario-c-closed-form", worst <= 1e-12, worst, 1e-12)


def _suite_scenario_c_gauge(rng: np.random.Generator, draws: int) -> SuiteResult:
    worst = 0.0
    for _ in range(draws):
        theta_l, theta_r = rng.uniform(0.0, 2.0 * np.pi, size=2)
        mu, lam_l, lam_r, shift = rng.uniform(-3.0, 3.0, size=4)
        base = run_scenario(Scenario.C, theta_l, theta_r,
                            TopoPhaseSpec.spin_conditioned(mu, lam_l, lam_r)).as_array()
        shifted = run_scenario(Scenario.C, theta_l, theta_r,
                               TopoPhaseSpec.spin_conditioned(mu, lam_l + shift,
                                                              lam_r + shift)).as_array()
        mirrored = run_scenario(Scenario.C, theta_l, theta_r,
                                TopoPhaseSpec.spin_conditioned(mu, lam_r, lam_l)).as_array()
        worst = max(worst, float(np.max(np.abs(base - shifted))))
        worst = max(worst, float(np.max(np.abs(base - mirrored))))
    return SuiteResult("scenario-c-gauge", worst <= 1e-12, worst, 1e-12)


def _suite_scenario_a_topo_invariance(rng: np.random.Generator, draws: int) -> SuiteResult:
    worst = 0.0
    for _ in range(draws):
        theta_l, theta_r = rng.uniform(0.0, 2.0 * np.pi, size=2)
        mu, i_u, i_d = rng.uniform(-3.0, 3.0, size=3)
        topo = TopoPhaseSpec.path_integrals(mu, i_u, i_d, i_u, i_d)
        with_topo = run_scenario_a(theta_l, theta_r, topo).as_array()
        without = run_scenario_a(theta_l, theta_r).as_array()
        worst = max(worst, float(np.max(np.abs(with_topo - without))))
    return SuiteResult("scenario-a-topo-invariance", worst <= 1e-12, worst, 1e-12)


def _suite_scenario_ab_reduction(rng: np.random.Generator, draws: int) -> SuiteResult:
    worst = 0.0
    for _ in range(draws):
        theta_l, theta_r = rng.uniform(0.0, 2.0 * np.pi, size=2)
        flux = rng.uniform(-10.0, 10.0)
        ab = run_scenario(Scenario.AB, theta_l, theta_r,
                          TopoPhaseSpec.aharonov_bohm(flux)).as_array()
        plain = run_scenario_b(theta_l, theta_r).as_array()
        worst = max(worst, float(np.max(np.abs(ab - plain))))
    return SuiteResult("scenario-ab-reduction", worst <= 1e-12, worst, 1e-12)


def _suite_degiorgio(rng: np.random.Generator, draws: int) -> SuiteResult:
    worst = 0.0
    for _ in range(draws):
        theta_l, theta_r = rng.uniform(0.0, 2.0 * np.pi, size=2)
        a = run_scenario_a(theta_l, theta_r).as_array()
        b = run_scenario_b(theta_l, theta_r).as_array()
        # quarter-wave offset: scenario A equals scenario B with each
        # side's detector outcomes swapped in one index
        worst = max(worst, abs(a[0] - b[2]))
        worst = max(worst, float(np.max(np.abs(a - b[[1, 0, 3, 2]]))))
    return SuiteResult("degiorgio-offset", worst <= 1e-12, worst, 1e-12)


def _suite_oracle_equivalence(rng: np.random.Generator, draws: int) -> SuiteResult:
    worst = 0.0
    for scenario in Scenario:
        for _ in range(draws):
            theta_l, theta_r, topo = _random_scenario_params(rng, scenario)
            simulated = run_scenario(scenario, theta_l, theta_r, topo).as_array()
            brute = brute_force_distribution(scenario, theta_l, theta_r, topo).as_array()
            worst = max(worst, float(np.max(np.abs(simulated - brute))))
    return SuiteResult("oracle-equivalence", worst <= 1e-12, worst, 1e-12)


def _suite_chsh_consistency() -> SuiteResult:
    worst = 0.0
    # channel consistency: pipeline distribution vs closed-form expectation
    for theta_l in np.linspace(0.0, 2.0 * np.pi, 20, endpoint=False):
        for theta_r in np.linspace(0.0, 2.0 * np.pi, 20, endpoint=False):
            for mu_lambda in np.linspace(0.0, np.pi, 25, endpoint=False):
                dist = run_scenario(Scenario.C, theta_l, theta_r,
                                    TopoPhaseSpec.spin_conditioned(1.0, mu_lambda, 0.0))
                expected = chsh.expectation_closed_form(
                    theta_l, theta_r, np.cos(2.0 * mu_lambda))
                measured = chsh.expectation_from_distribution(dist)
                worst = max(worst, abs(measured - expected))
                if mu_lambda == 0.0:
                    # zero loop: E reduces to -cos(theta_l - theta_r)
                    worst = max(worst, abs(measured + np.cos(theta_l - theta_r)))
    # fixed-angle curve against the literal combination
    for mu_lambda in np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False):
        literal = chsh.chsh_S(chsh.canonical_angles(), chsh.contrast(mu_lambda),
                              chsh.RoleAssignment.LITERAL)
        worst = max(worst, abs(literal - chsh.fixed_angle_curve_S(mu_lambda)))
    return SuiteResult("chsh-consistency", worst <= 1e-12, worst, 1e-12)


def _suite_chsh_bounds(rng: np.random.Generator, draws: int) -> SuiteResult:
    samples = max(1000, 100 * draws)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(4, samples))
    contrasts = rng.uniform(-1.0, 1.0, size=samples)
    worst = 0.0
    for roles in chsh.RoleAssignment:
        s_any = chsh.chsh_S_values(*angles, contrasts, roles)
        worst = max(worst, float(np.max(s_any) - chsh.TSIRELSON_BOUND))
        s_zero = chsh.chsh_S_values(*angles, 0.0, roles)
        worst = max(worst, float(np.max(s_zero) - 2.0))
    # monotone bracket: fixed-angle curve never beats the re-optimized
    # maximum, with equality exactly at full contrast
    mu_lambdas = np.linspace(0.0, np.pi, 1001)
    curve = chsh.fixed_angle_curve_S(mu_lambdas)
    best = 2.0 * np.sqrt(1.0 + np.cos(2.0 * mu_lambdas) ** 2)
    worst = max(worst, float(np.max(curve - best)))
    full_contrast = np.abs(np.abs(np.cos(2.0 * mu_lambdas)) - 1.0) < 1e-12
    worst = max(worst, float(np.max(np.abs((curve - best)[full_contrast]))))
    if np.any(~full_contrast & (np.abs(np.cos(2.0 * mu_lambdas)) < 0.999)):
        gap = (best - curve)[~full_contrast & (np.abs(np.cos(2.0 * mu_lambdas)) < 0.999)]
        if np.min(gap) <= 1e-9:
            worst = max(worst, 1.0)
    # periodicity and evenness of the fixed-angle curve
    probe = rng.uniform(-10.0, 10.0, size=256)
    worst = max(worst, float(np.max(np.abs(
        chsh.fixed_angle_curve_S(probe) - chsh.fixed_angle_curve_S(-probe)))))
    worst = max(worst, float(np.max(np.abs(
        chsh.fixed_angle_curve_S(probe) - chsh.fixed_angle_curve_S(probe + np.pi)))))
    return SuiteResult("chsh-bounds", worst <= 1e-9, worst, 1e-9)


def run_suites(heavy_draws: int | None = None, light_draws: int | None = None,
               inject_fault: str | None = None) -> list[SuiteResult]:
    """Run every invariant suite; returns one result per suite.

    heavy_draws scales the per-scenario random-draw suites (default 10^4),
    light_draws the cheaper pairwise-comparison suites (default 10^3); a
    count below 1 raises ValueError. The fixed verification grids never
    shrink.
    """
    if inject_fault is not None and inject_fault not in KNOWN_FAULTS:
        raise ValueError(f"unknown fault {inject_fault!r}; known: {KNOWN_FAULTS}")
    heavy = DEFAULT_HEAVY_DRAWS if heavy_draws is None else int(heavy_draws)
    light = DEFAULT_LIGHT_DRAWS if light_draws is None else int(light_draws)
    if heavy < 1 or light < 1:
        raise ValueError(f"draw counts must be at least 1, got {heavy} and {light}")
    return [
        _suite_linalg(_rng(1), heavy),
        _suite_optics(_rng(2)),
        _suite_distribution_validity(_rng(3), heavy),
        _suite_scenario_b_closed_form(),
        _suite_scenario_c_closed_form(inject_fault),
        _suite_scenario_c_gauge(_rng(4), light),
        _suite_scenario_a_topo_invariance(_rng(5), light),
        _suite_scenario_ab_reduction(_rng(6), light),
        _suite_degiorgio(_rng(7), light),
        _suite_oracle_equivalence(_rng(8), heavy),
        _suite_chsh_consistency(),
        _suite_chsh_bounds(_rng(10), heavy),
    ]
