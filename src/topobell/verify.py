"""Invariant suites: every property the package promises, runnable in one go.

Each suite returns its worst residual against a stated tolerance; the CLI
``verify`` command prints one line per suite and exits nonzero if any
fails. Random draws use fixed seeds so repeated runs are byte-identical.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import _checks, chsh, closed_form
from .entangled import Scenario, TopoPhaseSpec, _spec_mode, scenario_probabilities
from .linalg import unitarity_deviation
from .optics import beam_splitter, mach_zehnder, path_phase_operator, phase_retarder, spin_loop_phase
from .oracle import brute_force_probabilities

BASE_SEED = 20260810

#: Test-harness fault hook: evaluates the scenario-C reference closed form
#: with the sign of its interference term flipped, so the equivalence
#: suite must fail. Exists to prove the check has teeth.
FAULT_SCENARIO_C_SIGN = "scenario-c-sign"

KNOWN_FAULTS = (FAULT_SCENARIO_C_SIGN,)

_ANGLE = (0.0, 2.0 * np.pi)

#: Columns of the chsh-bounds draws evaluated per block.
_CHSH_BLOCK = 2 ** 13

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

    Each point draws its fields in the order of the scenario's phase mode.
    """
    names = TopoPhaseSpec._FIELDS_BY_MODE.get(_spec_mode(scenario), ())
    ranges = [_FIELD_RANGES.get(name, (-3.0, 3.0)) for name in names]
    theta_l, theta_r, *values = _uniform_columns(rng, draws, _ANGLE, _ANGLE, *ranges)
    return theta_l, theta_r, dict(zip(names, values))


def _suite_distribution_validity(rng: np.random.Generator, draws: int) -> SuiteResult:
    worst = 0.0
    for scenario in Scenario:
        theta_l, theta_r, fields = _scenario_draws(rng, scenario, draws)
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


def _suite_scenario_c_closed_form(inject_fault: str | None, grid) -> SuiteResult:
    """The scenario-C grid against its closed form; ``grid``: :func:`_scenario_c_grid`."""
    theta_l, theta_r, mu_lambda, simulated = grid
    two_ml = 2.0 * mu_lambda
    if inject_fault == FAULT_SCENARIO_C_SIGN:
        two_ml = np.pi - two_ml  # flips the interference term sign
    reference = closed_form.scenario_c_probabilities(theta_l, theta_r, two_ml)
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
        theta_l, theta_r, fields = _scenario_draws(rng, scenario, draws)
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
    """The chsh-bounds draws, one ``_CHSH_BLOCK`` of columns at a time.

    Yields each block's four angle rows as one (4, n) array, and its n
    contrasts: bit for bit the columns of ``rng.uniform(0, 2*pi, size=(4,
    samples))`` and then ``rng.uniform(-1, 1, size=samples)``. Each row is
    filled by ``random(out=row)`` and scaled as ``low + (high - low) * u``,
    the arithmetic of ``uniform``. They are read through five copies of
    ``rng`` made on this call, each advanced to the start of its row, so
    ``rng`` itself does not move. Several threads may drain the one
    iterator together; each block goes to one of them.
    """
    readers = []
    for k in range(5):
        bit_generator = type(rng.bit_generator)(0)
        bit_generator.state = rng.bit_generator.state
        bit_generator.advance(k * samples)
        readers.append(np.random.Generator(bit_generator))
    *angle_readers, contrast_reader = readers

    def blocks():
        for start in range(0, samples, _CHSH_BLOCK):
            n = min(_CHSH_BLOCK, samples - start)
            rows = np.empty((4, n))
            for reader, row in zip(angle_readers, rows):
                reader.random(out=row)
            rows *= 2.0 * np.pi
            contrasts = contrast_reader.random(n)
            contrasts *= 2.0
            contrasts -= 1.0
            yield rows, contrasts

    return _Shared(blocks())


class _Shared:
    """An iterator that several threads may drain together: one ``next`` at a time."""

    def __init__(self, iterator):
        self._iterator = iterator
        self._lock = threading.Lock()

    def __iter__(self):
        return self

    def __next__(self):
        with self._lock:
            return next(self._iterator)


def _random_bounds(draws) -> float:
    """Worst excess of S over 2*sqrt(1 + c*c) at the drawn contrast c and over 2 at zero.

    Taken over the blocks of :func:`_chsh_draws` that this call takes from
    ``draws``: two threads that drain one stream each get the worst of
    their blocks, and the larger of the two is the worst of the stream.
    Each block is a few whole-block numpy calls: one cos and one sin over
    its (4, n) angles, one :func:`chsh._S_both_roles` for both role
    assignments at both contrasts, and one maximum per bound. Calls only
    private, untraced code, so it may run beside the other suites on a
    worker thread.
    """
    worst = 0.0
    # fixed blocks bound the temporaries; the angles' buffer takes their sines
    for rows, contrasts in draws:
        bound = 2.0 * np.sqrt(1.0 + contrasts * contrasts)
        s = chsh._S_both_roles(np.cos(rows), np.sin(rows, out=rows), contrasts)
        worst = max(worst, float(np.max(s[:, 0] - bound)), float(np.max(s[:, 1]) - 2.0))
        del s  # S holds the block's cosines: free them before the next block's
    return worst


def _suite_chsh_bounds(rng: np.random.Generator, draws: int, random_worst=None) -> SuiteResult:
    """The CHSH bounds over random draws, then over the fixed-angle curve.

    ``random_worst``, if given, returns :func:`_random_bounds` of this
    ``rng``'s draws, as :func:`run_suites` shares them with its worker;
    without it they are computed here.
    """
    samples = _chsh_samples(draws)
    if random_worst is None:
        worst = _random_bounds(_chsh_draws(rng, samples))
    else:
        worst = random_worst()
    rng.bit_generator.advance(5 * samples)
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


def run_suites(draws: int | None = None, inject_fault: str | None = None) -> list[SuiteResult]:
    """Run every invariant suite; returns one result per suite.

    ``draws`` is the random-draw budget (default 10^4): the per-scenario
    suites and chsh-bounds take it whole, the cheaper pairwise-comparison
    suites a tenth of it, at least 1. A budget that is not an integer (a
    bool is not one) or is below 1 raises ValueError. The fixed
    verification grids never shrink.

    A one-thread ``ThreadPoolExecutor`` takes chsh-bounds' random blocks
    while this thread runs the other eleven suites; then this thread takes
    the blocks that are left, and chsh-bounds reports the larger of the two
    worsts, the value the suite computes alone. The worker is joined
    before this returns or raises, and what it raises is raised here. The
    scenario-C grid is simulated once, for both suites that read it.
    """
    if inject_fault is not None and inject_fault not in KNOWN_FAULTS:
        raise ValueError(f"unknown fault {inject_fault!r}; known: {KNOWN_FAULTS}")
    heavy = _checks.integer("draws", 10_000 if draws is None else draws)
    if heavy < 1:
        raise ValueError(f"draws must be at least 1, got {heavy}")
    light = max(1, heavy // 10)
    # imported here, not at the top: it adds milliseconds to every CLI start-up
    from concurrent.futures import ThreadPoolExecutor

    # chsh-bounds' random half: a worker beside the other suites, then both threads
    rng = _rng(10)
    blocks = _chsh_draws(rng, _chsh_samples(heavy))
    with ThreadPoolExecutor(max_workers=1) as pool:
        background = pool.submit(_random_bounds, blocks)
        c_grid = _scenario_c_grid()
        return [
            _suite_linalg(_rng(1)),
            _suite_optics(_rng(2)),
            _suite_distribution_validity(_rng(3), heavy),
            _suite_scenario_b_closed_form(),
            _suite_scenario_c_closed_form(inject_fault, c_grid),
            _suite_scenario_c_gauge(_rng(4), light),
            _suite_scenario_a_topo_invariance(_rng(5), light),
            _suite_scenario_ab_reduction(_rng(6), light),
            _suite_degiorgio(_rng(7), light),
            _suite_oracle_equivalence(_rng(8), heavy),
            _suite_chsh_consistency(c_grid),
            _suite_chsh_bounds(rng, heavy,
                               lambda: max(_random_bounds(blocks), background.result())),
        ]
