"""Invariant suites: every property the package promises, runnable in one go.

Each suite returns its worst residual against a stated tolerance; the CLI
``verify`` command prints one line per suite and exits nonzero if any
fails. Random draws use fixed seeds so repeated runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _checks, chsh, closed_form
from .entangled import Scenario, TopoPhaseSpec, _spec_mode, scenario_probabilities
from .linalg import unitarity_deviation
from .optics import beam_splitter, mach_zehnder, path_phase_operator, phase_retarder, spin_loop_phase
from .oracle import brute_force_probabilities

BASE_SEED = 20260810

_ANGLE = (0.0, 2.0 * np.pi)

#: Points per block of the chsh-bounds draws and of the per-scenario suites' draws.
_CHSH_BLOCK = 2 ** 13

#: chsh-bounds checks in float64 only the columns whose float32 excess over
#: a bound is above -_SCREEN_MARGIN. Rounding the angles in [0, 2*pi) to
#: float32 moves each pair term X = cos cos + sin sin * c of S by at most
#: 2 * 2**-22, as X's slope in each angle is at most 1; the contrast's
#: rounding and the float32 cos, sin and arithmetic add a few float32 ulps;
#: S sums four X terms. So a column's float32 excess is within 6e-6 of its
#: float64 excess (1.03e-6 at most over the default budget's 10**6 draws),
#: and a column whose float64 excess is 0 or more, the only kind that can
#: raise the worst, passes the screen with some 160 times that to spare.
_SCREEN_MARGIN = 2.0 ** -10

#: Draw range of each phase-spec field; the line integrals take (-3, 3).
_FIELD_RANGES = {"mu": (-2.0, 2.0), "flux": (-6.0, 6.0)}


@dataclass(frozen=True)
class SuiteResult:
    name: str
    worst_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_residual <= self.tolerance


def _rng(index: int) -> np.random.Generator:
    return np.random.default_rng([BASE_SEED, index])


def _suite_linalg(rng: np.random.Generator) -> SuiteResult:
    theta = rng.uniform(-10.0, 10.0, size=64)
    worst = max(unitarity_deviation(phase_retarder(theta)),
                unitarity_deviation(mach_zehnder(theta)),
                unitarity_deviation(path_phase_operator(theta, 0.5 * theta, 1.3)),
                unitarity_deviation(beam_splitter()))
    return SuiteResult("linalg-unitarity", worst, 1e-12)


def _suite_optics(rng: np.random.Generator) -> SuiteResult:
    # one constructor call per array of points; the checks run on the stacks
    bs = beam_splitter()
    theta = rng.uniform(-10.0, 10.0, size=1000)
    raw = bs @ phase_retarder(theta) @ bs
    # exact relation: the compact form at -theta carries the retarder arm
    stripped = raw / (1j * np.exp(0.5j * theta))[:, None, None]
    worst = float(np.max(np.abs(stripped - mach_zehnder(-theta))))
    # identical statistics with the printed-orientation compact form
    worst = max(worst, float(np.max(np.abs(np.abs(raw) - np.abs(mach_zehnder(theta))))))
    a, b = rng.uniform(-10.0, 10.0, size=(200, 2)).T
    composed = phase_retarder(a) @ phase_retarder(b)
    worst = max(worst, float(np.max(np.abs(composed - phase_retarder(a + b)))))
    # the spins' product in real arithmetic, as Python multiplies complex
    # numbers: numpy's complex multiply may round differently
    up, down = spin_loop_phase(1, a, b), spin_loop_phase(-1, a, b)
    loops = ((up.real * down.real - up.imag * down.imag)
             + 1j * (up.real * down.imag + up.imag * down.real))
    worst = max(worst, float(np.max(np.abs(loops - 1.0))))
    ops = path_phase_operator(a, b, 1.7)
    worst = max(worst, float(np.max(np.abs(ops[:, 0, 0] / ops[:, 1, 1]
                                           - np.exp(1j * 1.7 * (a + b))))))
    return SuiteResult("optics-compact-form", worst, 1e-12)


def _uniform_columns(rng: np.random.Generator, draws: int, *ranges) -> list[np.ndarray]:
    """``draws`` random points, one column per (low, high) range.

    One ``rng.random`` call fills the points row by row and each column is
    scaled as ``low + (high - low) * u``, so the columns are bit-identical
    to per-point ``rng.uniform`` calls in the same order, and the generator
    ends in the same state.
    """
    u = rng.random((draws, len(ranges)))
    return [low + (high - low) * u[:, k] for k, (low, high) in enumerate(ranges)]


def _scenario_draws(rng: np.random.Generator, scenario: Scenario, draws: int):
    """Random angles and phase-spec fields for ``draws`` points of ``scenario``.

    Yields ``(theta_l, theta_r, fields)`` for at most ``_CHSH_BLOCK`` points
    at a time, each block the next :func:`_uniform_columns` of ``rng``, so
    memory stays bounded and the points are those of one call over all
    ``draws``. Fields are drawn in the order of the scenario's phase mode.
    """
    names = TopoPhaseSpec._FIELDS_BY_MODE.get(_spec_mode(scenario), ())
    ranges = [_FIELD_RANGES.get(name, (-3.0, 3.0)) for name in names]
    for start in range(0, draws, _CHSH_BLOCK):
        theta_l, theta_r, *values = _uniform_columns(
            rng, min(_CHSH_BLOCK, draws - start), _ANGLE, _ANGLE, *ranges)
        yield theta_l, theta_r, dict(zip(names, values))


def _suite_distribution_validity(rng: np.random.Generator, draws: int) -> SuiteResult:
    worst = 0.0
    for scenario in Scenario:
        for theta_l, theta_r, fields in _scenario_draws(rng, scenario, draws):
            p = scenario_probabilities(scenario, theta_l, theta_r, **fields)
            worst = max(worst, float(np.max(np.abs(p.sum(axis=-1) - 1.0))),
                        float(max(0.0, np.max(p - 1.0), np.max(-p))))
    return SuiteResult("distribution-validity", worst, 1e-12)


def _suite_scenario_b_closed_form() -> SuiteResult:
    grid = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
    theta_l, theta_r = np.meshgrid(grid, grid, indexing="ij", sparse=True)
    simulated = scenario_probabilities(Scenario.B, theta_l, theta_r)
    reference = closed_form.scenario_b_probabilities(theta_l, theta_r)
    worst = float(np.max(np.abs(simulated - reference)))
    # p(D0',D0) and p(D1',D0) against the formulas written out here
    half = 0.5 * (theta_l - theta_r)
    worst = max(worst, float(np.max(np.abs(simulated[..., 0] - 0.5 * np.sin(half) ** 2))),
                float(np.max(np.abs(simulated[..., 2] - 0.5 * np.cos(half) ** 2))))
    return SuiteResult("scenario-b-closed-form", worst, 1e-12)


def _scenario_c_grid():
    """The fixed (theta_l, theta_r, mu*lambda) grid of the scenario-C suites, and C simulated on it.

    Sparse: each coordinate varies along its own axis and the consumers
    broadcast, so the kernel builds each side matrix once per angle pair.
    Returns ``(theta_l, theta_r, mu_lambda, probabilities)``;
    :func:`run_suites` simulates it once for both suites that read it.
    """
    angles = np.linspace(0.0, 2.0 * np.pi, 20, endpoint=False)
    mu_lambdas = np.linspace(0.0, np.pi, 25, endpoint=False)
    theta_l, theta_r, mu_lambda = np.meshgrid(angles, angles, mu_lambdas, indexing="ij",
                                              sparse=True)
    simulated = scenario_probabilities(Scenario.C, theta_l, theta_r,
                                       mu=1.0, lambda_l=mu_lambda, lambda_r=0.0)
    return theta_l, theta_r, mu_lambda, simulated


def _suite_scenario_c_closed_form(grid) -> SuiteResult:
    """The scenario-C grid against its closed form; ``grid``: :func:`_scenario_c_grid`."""
    theta_l, theta_r, mu_lambda, simulated = grid
    reference = closed_form.scenario_c_probabilities(theta_l, theta_r, 2.0 * mu_lambda)
    worst = float(np.max(np.abs(simulated - reference)))
    return SuiteResult("scenario-c-closed-form", worst, 1e-12)


def _suite_scenario_c_gauge(rng: np.random.Generator, draws: int) -> SuiteResult:
    theta_l, theta_r, mu, lam_l, lam_r, shift = _uniform_columns(
        rng, draws, _ANGLE, _ANGLE, *[(-3.0, 3.0)] * 4)

    def run(lambda_l, lambda_r):
        return scenario_probabilities(Scenario.C, theta_l, theta_r,
                                      mu=mu, lambda_l=lambda_l, lambda_r=lambda_r)

    base = run(lam_l, lam_r)
    shifted = run(lam_l + shift, lam_r + shift)
    mirrored = run(lam_r, lam_l)
    worst = max(float(np.max(np.abs(base - shifted))), float(np.max(np.abs(base - mirrored))))
    return SuiteResult("scenario-c-gauge", worst, 1e-12)


def _suite_scenario_a_topo_invariance(rng: np.random.Generator, draws: int) -> SuiteResult:
    theta_l, theta_r, mu, i_u, i_d = _uniform_columns(
        rng, draws, _ANGLE, _ANGLE, *[(-3.0, 3.0)] * 3)
    with_topo = scenario_probabilities(Scenario.A, theta_l, theta_r, mu=mu,
                                       i_u_l=i_u, i_d_l=i_d, i_u_r=i_u, i_d_r=i_d)
    without = scenario_probabilities(Scenario.A, theta_l, theta_r)
    worst = float(np.max(np.abs(with_topo - without)))
    return SuiteResult("scenario-a-topo-invariance", worst, 1e-12)


def _suite_scenario_ab_reduction(rng: np.random.Generator, draws: int) -> SuiteResult:
    theta_l, theta_r, flux = _uniform_columns(rng, draws, _ANGLE, _ANGLE, (-10.0, 10.0))
    ab = scenario_probabilities(Scenario.AB, theta_l, theta_r, flux=flux)
    plain = scenario_probabilities(Scenario.B, theta_l, theta_r)
    worst = float(np.max(np.abs(ab - plain)))
    return SuiteResult("scenario-ab-reduction", worst, 1e-12)


def _suite_degiorgio(rng: np.random.Generator, draws: int) -> SuiteResult:
    theta_l, theta_r = _uniform_columns(rng, draws, _ANGLE, _ANGLE)
    a = scenario_probabilities(Scenario.A, theta_l, theta_r)
    b = scenario_probabilities(Scenario.B, theta_l, theta_r)
    # quarter-wave offset: scenario A equals scenario B with each
    # side's detector outcomes swapped in one index
    worst = max(float(np.max(np.abs(a[..., 0] - b[..., 2]))),
                float(np.max(np.abs(a - b[..., [1, 0, 3, 2]]))))
    return SuiteResult("degiorgio-offset", worst, 1e-12)


def _suite_oracle_equivalence(rng: np.random.Generator, draws: int) -> SuiteResult:
    worst = 0.0
    for scenario in Scenario:
        for theta_l, theta_r, fields in _scenario_draws(rng, scenario, draws):
            simulated = scenario_probabilities(scenario, theta_l, theta_r, **fields)
            brute = brute_force_probabilities(scenario, theta_l, theta_r, **fields)
            worst = max(worst, float(np.max(np.abs(simulated - brute))))
    return SuiteResult("oracle-equivalence", worst, 1e-12)


def _suite_chsh_consistency(grid) -> SuiteResult:
    """E from the pipeline against the closed forms; ``grid``: :func:`_scenario_c_grid`."""
    # channel consistency: pipeline distribution vs closed-form expectation
    theta_l, theta_r, mu_lambda, p = grid
    expected = chsh.expectation_closed_form(theta_l, theta_r, np.cos(2.0 * mu_lambda))
    measured = chsh.expectation_from_probabilities(p)
    worst = float(np.max(np.abs(measured - expected)))
    # zero loop: E reduces to -cos(theta_l - theta_r)
    zero = np.broadcast_to(mu_lambda == 0.0, measured.shape)
    cos_difference = np.broadcast_to(np.cos(theta_l - theta_r), measured.shape)
    worst = max(worst, float(np.max(np.abs(measured[zero] + cos_difference[zero]))))
    # fixed-angle curve against the literal combination
    mu_lambdas = np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False)
    literal = chsh.chsh_S_values(*chsh.canonical_angles().as_tuple(), chsh.contrast(mu_lambdas),
                                 chsh.RoleAssignment.LITERAL)
    worst = max(worst, float(np.max(np.abs(literal - chsh.fixed_angle_curve_S(mu_lambdas)))))
    return SuiteResult("chsh-consistency", worst, 1e-12)


def _chsh_samples(draws: int) -> int:
    return max(1000, 100 * draws)


def _chsh_draws(rng: np.random.Generator, samples: int):
    """The chsh-bounds draws of ``samples`` columns, one ``_CHSH_BLOCK`` at a time.

    Block k is the k-th ``rng.random((5, n))``: four rows scaled to angles
    in [0, 2*pi), yielded as one (4, n) array, and a row mapped to n
    contrasts in [-1, 1). A drained stream moves ``rng`` on 5 * samples
    doubles.
    """
    for start in range(0, samples, _CHSH_BLOCK):
        block = rng.random((5, min(_CHSH_BLOCK, samples - start)))
        rows, contrasts = block[:4], block[4]
        rows *= 2.0 * np.pi
        contrasts *= 2.0
        contrasts -= 1.0
        yield rows, contrasts


def _excess(rows, contrasts):
    """Each column's excess of S over 2*sqrt(1 + c*c) at its contrast c and over 2 at zero.

    ``rows`` holds (4, n) angles and ``contrasts`` their n contrasts, both of
    the float dtype the excesses are computed in. Returns a (2, n) array, each
    entry the larger of the two role assignments'; ``rows`` is spent.
    """
    s = chsh._S_both_roles(np.cos(rows), np.sin(rows, out=rows), contrasts)
    excess = np.max(s, axis=0)
    excess[0] -= 2.0 * np.sqrt(1.0 + contrasts * contrasts)
    excess[1] -= 2.0
    return excess


def _random_bounds(draws) -> float:
    """Worst excess of S over 2*sqrt(1 + c*c) at the drawn contrast c and over 2 at zero.

    Taken over every block of ``draws``, a :func:`_chsh_draws` stream.
    Every block is screened in float32, whose cos and sin cost a small
    fraction of float64's, and only the columns whose float32 excess is
    above -``_SCREEN_MARGIN`` are computed again in float64. The worst
    starts at 0, so only a column with a positive float64 excess can move
    it, and every such column passes the screen (see ``_SCREEN_MARGIN``):
    the result is the float64 worst over every column, bit for bit. Calls
    only private, untraced code, so it may run beside the other suites on
    a worker thread: perfbench's span tracer keeps one stack for the
    process and must see only the main thread's calls.
    """
    worst = 0.0
    for rows, contrasts in draws:
        screen = _excess(rows.astype(np.float32), contrasts.astype(np.float32))
        near = np.max(screen, axis=0) > -_SCREEN_MARGIN
        del screen  # free the block's screen before its float64 check and the next block
        if near.any():
            worst = max(worst, float(np.max(_excess(rows[:, near], contrasts[near]))))
    return worst


def _suite_chsh_bounds(rng: np.random.Generator, draws: int, random_worst=None) -> SuiteResult:
    """The CHSH bounds over random draws, then over the fixed-angle curve.

    The random half, :func:`_random_bounds`, screens every draw in float32
    and checks in float64 the columns near a bound, which are all the
    columns that can set its worst, so it reports the float64 worst over
    every draw exactly. ``random_worst``, if given, returns that worst for
    :func:`_chsh_draws` of this ``rng``, as :func:`run_suites` takes it
    from its worker once the stream is drained; otherwise the stream is
    drained here. The probe draws on from where the stream ends.
    """
    samples = _chsh_samples(draws)
    if random_worst is None:
        worst = _random_bounds(_chsh_draws(rng, samples))
    else:
        worst = random_worst()
    # monotone bracket: fixed-angle curve never beats the re-optimized
    # maximum, with equality exactly at full contrast
    mu_lambdas = np.linspace(0.0, np.pi, 1001)
    contrasts = np.abs(np.cos(2.0 * mu_lambdas))
    curve = chsh.fixed_angle_curve_S(mu_lambdas)
    best = 2.0 * np.sqrt(1.0 + contrasts ** 2)
    worst = max(worst, float(np.max(curve - best)))
    full_contrast = np.abs(contrasts - 1.0) < 1e-12
    worst = max(worst, float(np.max(np.abs((curve - best)[full_contrast]))))
    partial = ~full_contrast & (contrasts < 0.999)
    if np.any(partial) and np.min((best - curve)[partial]) <= 1e-9:
        worst = max(worst, 1.0)
    # periodicity and evenness of the fixed-angle curve
    probe = rng.uniform(-10.0, 10.0, size=256)
    at_probe = chsh.fixed_angle_curve_S(probe)
    worst = max(worst, float(np.max(np.abs(at_probe - chsh.fixed_angle_curve_S(-probe)))))
    worst = max(worst, float(np.max(np.abs(at_probe - chsh.fixed_angle_curve_S(probe + np.pi)))))
    return SuiteResult("chsh-bounds", worst, 1e-9)


def run_suites(draws: int | None = None) -> list[SuiteResult]:
    """Run every invariant suite; returns one result per suite.

    ``draws`` is the random-draw budget (default 10^4): the per-scenario
    suites and chsh-bounds take it whole, the cheaper pairwise-comparison
    suites a tenth of it, at least 1. A budget that is not an integer (a
    bool is not one) or is below 1 raises ValueError. The fixed
    verification grids never shrink.

    A one-thread ``ThreadPoolExecutor`` drains chsh-bounds' random blocks
    in stream order while this thread runs the other eleven suites;
    chsh-bounds joins it before its probe draw and reports the value the
    suite computes alone. The worker is joined before this returns or
    raises, and what it raises is raised here. The scenario-C grid is
    simulated once, for both suites that read it.
    """
    heavy = _checks.integer("draws", 10_000 if draws is None else draws)
    if heavy < 1:
        raise ValueError(f"draws must be at least 1, got {heavy}")
    light = max(1, heavy // 10)
    # imported here, not at the top: it adds milliseconds to every CLI start-up
    from concurrent.futures import ThreadPoolExecutor

    # chsh-bounds' random half runs on a worker beside the other suites
    rng = _rng(10)
    with ThreadPoolExecutor(max_workers=1) as pool:
        background = pool.submit(_random_bounds, _chsh_draws(rng, _chsh_samples(heavy)))
        c_grid = _scenario_c_grid()
        return [
            _suite_linalg(_rng(1)),
            _suite_optics(_rng(2)),
            _suite_distribution_validity(_rng(3), heavy),
            _suite_scenario_b_closed_form(),
            _suite_scenario_c_closed_form(c_grid),
            _suite_scenario_c_gauge(_rng(4), light),
            _suite_scenario_a_topo_invariance(_rng(5), light),
            _suite_scenario_ab_reduction(_rng(6), light),
            _suite_degiorgio(_rng(7), light),
            _suite_oracle_equivalence(_rng(8), heavy),
            _suite_chsh_consistency(c_grid),
            _suite_chsh_bounds(rng, heavy, background.result),
        ]
