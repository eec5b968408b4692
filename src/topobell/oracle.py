"""Independent verification machinery.

Everything here re-derives results along a separate route from both the
scenario simulators and the closed forms: joint probabilities through
explicit 4x4 operator chains built with ``numpy.kron`` from inline
component matrices, and the CHSH maximum through exhaustive grid search
with shrinking-window refinement plus finite-difference stationarity
checks at claimed extrema.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .chsh import BellAngles, RoleAssignment, chsh_S, chsh_S_values, chsh_terms
from .entangled import DetectionDistribution, PhaseMode, Scenario, TopoPhaseSpec

TWO_PI = 2.0 * np.pi

# Component matrices restated inline so the oracle does not lean on the
# optics constructors it is meant to cross-check.
_BS = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)
_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_ID = np.eye(2, dtype=complex)


class BudgetExceededError(RuntimeError):
    """Raised before a grid search that would exceed its evaluation budget."""

    def __init__(self, evaluations: int, budget: int):
        self.evaluations = int(evaluations)
        self.budget = int(budget)
        super().__init__(
            f"grid search needs {self.evaluations} evaluations, budget is {self.budget}"
        )


def _retarder(theta: float) -> np.ndarray:
    return np.diag([np.exp(1j * theta), 1.0]).astype(complex)


def _arm_phases(i_u: float, i_d: float, mu: float) -> np.ndarray:
    return np.diag([np.exp(1j * mu * i_u), np.exp(-1j * mu * i_d)]).astype(complex)


def brute_force_distribution(scenario: Scenario, theta_l: float, theta_r: float,
                             topo: TopoPhaseSpec | None = None) -> DetectionDistribution:
    """Joint detection probabilities by explicit per-branch 4x4 operator chains.

    The singlet branches, their spin-conditioned scalar phases and the
    mirrored right-hand detector labels of scenario A are restated here
    from the physical conventions; no closed-form result enters.
    """
    retarders = np.kron(_retarder(float(theta_l)), _retarder(float(theta_r)))
    splitters = np.kron(_BS, _BS)

    if scenario is Scenario.A:
        if topo is not None and topo.mode is not PhaseMode.PATH_INTEGRALS:
            raise ValueError("scenario A takes per-arm path integrals only")
        if topo is not None:
            arm = np.kron(_arm_phases(topo.i_u_l, topo.i_d_l, topo.mu),
                          _arm_phases(topo.i_u_r, topo.i_d_r, topo.mu))
        else:
            arm = np.eye(4, dtype=complex)
        # right-hand detectors are labeled opposite to the splitter ports
        chain = np.kron(_ID, _SWAP) @ splitters @ arm @ retarders
        branch_phases = {(1, -1): 1.0 + 0.0j, (-1, 1): 1.0 + 0.0j}
    elif scenario is Scenario.B:
        if topo is not None:
            raise ValueError("scenario B takes no topological phase spec")
        chain = splitters @ retarders @ splitters
        branch_phases = {(1, -1): 1.0 + 0.0j, (-1, 1): 1.0 + 0.0j}
    elif scenario is Scenario.C:
        if topo is None or topo.mode is not PhaseMode.SPIN_CONDITIONED:
            raise ValueError("scenario C requires a spin-conditioned phase spec")
        chain = splitters @ retarders @ splitters
        branch_phases = {
            (s_l, s_r): np.exp(-1j * topo.mu * (s_l * topo.lambda_l + s_r * topo.lambda_r))
            for (s_l, s_r) in ((1, -1), (-1, 1))
        }
    elif scenario is Scenario.AB:
        if topo is None or topo.mode is not PhaseMode.SPIN_INDEPENDENT_AB:
            raise ValueError("scenario AB requires a flux phase spec")
        chain = splitters @ retarders @ splitters
        flux_phase = np.exp(-1j * topo.flux)
        branch_phases = {(1, -1): flux_phase, (-1, 1): flux_phase}
    else:
        raise ValueError(f"unknown scenario {scenario!r}")

    # singlet: +1/sqrt2 on |0,1> with spins (+1,-1), -1/sqrt2 on |1,0> with (-1,+1)
    amplitudes = np.zeros(4, dtype=complex)
    for (s_l, s_r), start_index, start_amp in (
        ((1, -1), 1, 1.0 / np.sqrt(2.0)),
        ((-1, 1), 2, -1.0 / np.sqrt(2.0)),
    ):
        vec = np.zeros(4, dtype=complex)
        vec[start_index] = start_amp
        amplitudes = amplitudes + branch_phases[(s_l, s_r)] * (chain @ vec)
    return DetectionDistribution.from_array(np.abs(amplitudes) ** 2)


@dataclass(frozen=True)
class GridSpec:
    """Exhaustive search grid: points per angle, refinement rounds, shrink factor.

    Each round evaluates points_per_angle**4 grid cells; refinement rounds
    re-grid a window shrunk by shrink_factor around the incumbent. The
    defaults (24 points, 5 rounds, shrink 0.25) resolve the smooth
    trigonometric objective to a few 1e-9 in S, measured against the
    analytic maximum.
    """

    points_per_angle: int = 24
    refinement_rounds: int = 5
    shrink_factor: float = 0.25
    budget: int = 50_000_000

    def __post_init__(self):
        for name in ("points_per_angle", "refinement_rounds", "budget"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.points_per_angle < 2:
            raise ValueError("points_per_angle must be at least 2")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be non-negative")
        if not 0.0 < self.shrink_factor < 1.0:
            raise ValueError("shrink_factor must lie in (0, 1)")
        if self.budget <= 0:
            raise ValueError("budget must be positive")

    def total_evaluations(self) -> int:
        return self.points_per_angle ** 4 * (self.refinement_rounds + 1)


@dataclass(frozen=True)
class SearchResult:
    best_angles: BellAngles
    best_s: float
    evaluations: int


class StationarityOutcome(enum.Enum):
    PASSED = "passed"
    FAILED = "failed"
    SKIPPED = "skipped"


def _evaluate_grid(axes: list[np.ndarray], c: float,
                   roles: RoleAssignment) -> tuple[np.ndarray, float]:
    """Best (angles, S) over the grid product, first hit in lexicographic order.

    ``np.ix_`` reshapes axis k to vary along dimension k only, so
    broadcasting builds each E(x, y) term as a points x points table over
    its two angles and each absolute-value term over its three; only the
    final sum spans all points**4 cells. Every cell still gets the same
    elementwise operations on the same inputs as a full 4-D mesh would,
    so the values are bit-identical to evaluating every cell separately.
    """
    values = chsh_S_values(*np.ix_(*axes), c, roles)
    # np.argmax returns the first maximum in C order, i.e. the
    # lexicographically smallest tying angle tuple.
    best = np.unravel_index(int(np.argmax(values)), values.shape)
    angles = np.array([axis[i] for axis, i in zip(axes, best)])
    return angles, float(values[best])


def grid_search_max_S(c: float, roles: RoleAssignment,
                      grid: GridSpec | None = None,
                      bounds: list[tuple[float, float]] | None = None) -> SearchResult:
    """Exhaustive grid search for the CHSH maximum at contrast c.

    Round 0 covers ``bounds`` (default [0, 2pi) per angle, endpoint
    excluded since the objective is periodic); each refinement round
    re-grids a window of width shrink_factor**round times the original
    around the incumbent. The incumbent never gets worse, and identical
    inputs give identical results: the grids are deterministic and ties
    resolve to the lexicographically smallest angle tuple.
    """
    if not abs(c) <= 1.0 + 1e-12:
        raise ValueError("contrast c must lie in [-1, 1]")
    spec = grid if grid is not None else GridSpec()
    needed = spec.total_evaluations()
    if needed > spec.budget:
        raise BudgetExceededError(needed, spec.budget)

    if bounds is None:
        widths = np.full(4, TWO_PI)
        axes = [np.linspace(0.0, TWO_PI, spec.points_per_angle, endpoint=False)
                for _ in range(4)]
    else:
        if len(bounds) != 4:
            raise ValueError("bounds must give (low, high) for each of the four angles")
        widths = np.array([float(hi) - float(lo) for lo, hi in bounds])
        # a NaN or infinite edge, or an overflowing span, makes its width non-finite
        if not np.all(np.isfinite(widths)):
            raise ValueError(f"bounds must be finite with finite widths, got {bounds!r}")
        if np.any(widths < 0):
            raise ValueError("each bound must satisfy low <= high")
        axes = [np.linspace(float(lo), float(hi), spec.points_per_angle)
                for lo, hi in bounds]

    best_angles, best_s = _evaluate_grid(axes, c, roles)
    evaluations = spec.points_per_angle ** 4

    for round_index in range(1, spec.refinement_rounds + 1):
        half = 0.5 * widths * spec.shrink_factor ** round_index
        axes = [np.linspace(center - h, center + h, spec.points_per_angle)
                for center, h in zip(best_angles, half)]
        angles, value = _evaluate_grid(axes, c, roles)
        evaluations += spec.points_per_angle ** 4
        if value > best_s:
            best_angles, best_s = angles, value

    result_angles = BellAngles(*(float(x) for x in best_angles))
    return SearchResult(best_angles=result_angles,
                        best_s=float(chsh_S(result_angles, c, roles)),
                        evaluations=evaluations)


def stationarity_check(angles: BellAngles, c: float, roles: RoleAssignment,
                       h: float) -> StationarityOutcome:
    """Central-difference stationarity test of S at the given angles.

    SKIPPED when either absolute-value argument of the combination lies
    within 10*h of zero: the statistic has a kink there and finite
    differences are meaningless. Otherwise PASSED iff every one-angle
    central difference quotient has magnitude at most 10*h^2*scale with
    scale = max(1, |S|), the expected truncation error at a smooth
    stationary point.
    """
    if not h > 0:
        raise ValueError(f"step h must be positive, got {h!r}")
    first, second = chsh_terms(angles, c, roles)
    if min(abs(first), abs(second)) <= 10.0 * h:
        return StationarityOutcome.SKIPPED

    base = chsh_S(angles, c, roles)
    threshold = 10.0 * h * h * max(1.0, abs(base))
    values = np.array(angles.as_tuple())
    for i in range(4):
        forward, backward = values.copy(), values.copy()
        forward[i] += h
        backward[i] -= h
        diff = (chsh_S(BellAngles(*forward), c, roles)
                - chsh_S(BellAngles(*backward), c, roles)) / (2.0 * h)
        if abs(diff) > threshold:
            return StationarityOutcome.FAILED
    return StationarityOutcome.PASSED
