"""Independent verification machinery.

Everything here re-derives results along a separate route from both the
scenario simulators and the closed forms: joint probabilities through
explicit 4x4 operator chains, Kronecker products of inline component
matrices stacked over arrays of points, and the CHSH maximum through a
grid search over the two angles (a, a') with shrinking-window refinement
and the exact maximum over (b, b') at each grid point, plus
finite-difference stationarity checks at claimed extrema.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _checks
from .chsh import BellAngles, RoleAssignment, chsh_S, chsh_terms
from .entangled import DetectionDistribution, Scenario, TopoPhaseSpec, _check_spec

TWO_PI = 2.0 * np.pi

# Component matrices restated inline so the oracle does not lean on the
# optics constructors it is meant to cross-check.
_BS = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)
_SPLITTERS = np.kron(_BS, _BS)
_MIRROR = np.eye(4, dtype=complex)[[1, 0, 3, 2]]  # 1 (x) swap: right-hand detector labels


class BudgetExceededError(RuntimeError):
    """Raised before a grid search that would exceed its evaluation budget."""

    def __init__(self, evaluations: int, budget: int):
        self.evaluations = int(evaluations)
        self.budget = int(budget)
        super().__init__(
            f"grid search needs {self.evaluations} evaluations, budget is {self.budget}"
        )


def _diag(d0, d1) -> np.ndarray:
    """Stack (..., 2, 2) of diagonal matrices diag(d0, d1)."""
    out = np.zeros(np.broadcast_shapes(np.shape(d0), np.shape(d1)) + (2, 2), dtype=complex)
    out[..., 0, 0] = d0
    out[..., 1, 1] = d1
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products of two stacks of 2x2 operators, (..., 4, 4), left factor major."""
    product = np.einsum("...ik,...jl->...ijkl", a, b)
    return product.reshape(product.shape[:-4] + (4, 4))


def brute_force_probabilities(scenario: Scenario, theta_l, theta_r, **fields) -> np.ndarray:
    """Joint detection probabilities by explicit per-branch 4x4 operator chains.

    Takes the inputs of :func:`topobell.entangled.scenario_probabilities`
    (angles and phase-spec fields as arrays that broadcast against each
    other) and returns (..., 4). The singlet branches, their
    spin-conditioned scalar phases and the mirrored right-hand detector
    labels of scenario A are restated here from the physical conventions;
    no closed-form result enters.
    """
    return _brute_force(scenario, *TopoPhaseSpec.broadcast(scenario, theta_l, theta_r, **fields))


def _brute_force(scenario: Scenario, theta_l, theta_r, fields: dict) -> np.ndarray:
    """:func:`brute_force_probabilities` on checked inputs of one shape, or on floats."""
    retarders = _kron(_diag(np.exp(1j * theta_l), 1.0), _diag(np.exp(1j * theta_r), 1.0))
    unit = np.ones(np.shape(theta_l))
    branch_phases = {(1, -1): unit, (-1, 1): unit}

    if scenario is Scenario.A:
        if fields:
            mu = fields["mu"]
            arm = _kron(*(_diag(np.exp(1j * mu * fields[f"i_u_{side}"]),
                                np.exp(-1j * mu * fields[f"i_d_{side}"])) for side in "lr"))
        else:
            arm = np.eye(4, dtype=complex)
        # right-hand detectors are labeled opposite to the splitter ports
        chain = _MIRROR @ _SPLITTERS @ arm @ retarders
    else:
        chain = _SPLITTERS @ retarders @ _SPLITTERS
    if scenario is Scenario.C:
        branch_phases = {
            (s_l, s_r): np.exp(-1j * fields["mu"] * (s_l * fields["lambda_l"]
                                                    + s_r * fields["lambda_r"]))
            for (s_l, s_r) in ((1, -1), (-1, 1))
        }
    elif scenario is Scenario.AB:
        flux_phase = np.exp(-1j * fields["flux"])
        branch_phases = {(1, -1): flux_phase, (-1, 1): flux_phase}

    # singlet: +1/sqrt2 on |0,1> with spins (+1,-1), -1/sqrt2 on |1,0> with (-1,+1)
    amplitudes = np.zeros(np.shape(theta_l) + (4,), dtype=complex)
    for (s_l, s_r), start_index, start_amp in (
        ((1, -1), 1, 1.0 / np.sqrt(2.0)),
        ((-1, 1), 2, -1.0 / np.sqrt(2.0)),
    ):
        vec = np.zeros(4, dtype=complex)
        vec[start_index] = start_amp
        amplitudes = amplitudes + branch_phases[(s_l, s_r)][..., None] * (chain @ vec)
    return np.abs(amplitudes) ** 2


def brute_force_distribution(scenario: Scenario, theta_l: float, theta_r: float,
                             topo: TopoPhaseSpec | None = None) -> DetectionDistribution:
    """:func:`brute_force_probabilities` at one point, for a phase spec.

    Raises ``ValueError`` as :func:`topobell.entangled.run_scenario` does,
    with the same messages: first unless ``topo`` is the scenario's phase
    spec, then for an angle that is not a finite real scalar.
    """
    _check_spec(scenario, topo)
    angles = _checks.finite_scalar("theta_l", theta_l), _checks.finite_scalar("theta_r", theta_r)
    fields = {} if topo is None else topo.field_values()
    return DetectionDistribution.from_array(_brute_force(scenario, *angles, fields))


@dataclass(frozen=True)
class GridSpec:
    """Search grid over (a, a'): points per angle, refinement rounds, shrink factor.

    Each round evaluates points_per_angle**2 grid points, each one the
    exact maximum of S over (b, b'); refinement rounds re-grid a window
    shrunk by shrink_factor around the incumbent. ``budget`` caps the
    total count. The defaults (24 points, 5 rounds, shrink 0.25) take
    3,456 evaluations, and their round-0 grid holds the maximizer
    (a, a') = (0, pi/2), so S is found to about 1e-15.
    """

    points_per_angle: int = 24
    refinement_rounds: int = 5
    shrink_factor: float = 0.25
    budget: int = 50_000_000

    def __post_init__(self):
        for name in ("points_per_angle", "refinement_rounds", "budget"):
            _checks.integer(name, getattr(self, name))
        if self.points_per_angle < 2:
            raise ValueError("points_per_angle must be at least 2")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be non-negative")
        object.__setattr__(self, "shrink_factor",
                           _checks.finite_scalar("shrink_factor", self.shrink_factor))
        if not 0.0 < self.shrink_factor < 1.0:
            raise ValueError("shrink_factor must lie in (0, 1)")
        if self.budget <= 0:
            raise ValueError("budget must be positive")

    def total_evaluations(self) -> int:
        return self.points_per_angle ** 2 * (self.refinement_rounds + 1)


@dataclass(frozen=True)
class SearchResult:
    best_angles: BellAngles
    best_s: float
    evaluations: int


class StationarityOutcome(enum.Enum):
    PASSED = "passed"
    FAILED = "failed"
    SKIPPED = "skipped"


def _bound(a, a_prime, c):
    """|u_a + u_a'| + |u_a' - u_a| with u_x = (cos x, c sin x), and the two vectors.

    The vectors are returned as (x, y) pairs, sum first. Broadcasts over
    arrays.
    """
    cos_a, sin_a = np.cos(a), c * np.sin(a)
    cos_ap, sin_ap = np.cos(a_prime), c * np.sin(a_prime)
    total = cos_a + cos_ap, sin_a + sin_ap
    difference = cos_ap - cos_a, sin_ap - sin_a
    return np.hypot(*total) + np.hypot(*difference), total, difference


def _max_over_b(a, a_prime, c):
    """Exact maximum of S over (b, b') at fixed (a, a'), and its (b, b').

    With u_x = (cos x, c sin x) and v_y = (cos y, sin y), E(x, y) =
    -u_x . v_y, so S = |u_a . (v_b - v_b')| + |u_a' . (v_b + v_b')| is at
    most :func:`_bound`, |u_a + u_a'| + |u_a' - u_a|, with equality at v_b
    along u_a + u_a' and v_b' along u_a' - u_a. Broadcasts over arrays.
    """
    value, (sum_x, sum_y), (diff_x, diff_y) = _bound(a, a_prime, c)
    return value, np.arctan2(sum_y, sum_x), np.arctan2(diff_y, diff_x)


def grid_search_max_S(c: float, roles: RoleAssignment,
                      grid: GridSpec | None = None) -> SearchResult:
    """Grid search for the CHSH maximum at contrast c.

    Grids (a, a') and takes the exact maximum over (b, b') at every grid
    point (:func:`_max_over_b`), so ``evaluations`` counts
    points_per_angle**2 per round. Round 0 covers [0, 2pi) per angle,
    endpoint excluded since the objective is periodic; each refinement
    round re-grids a window of width shrink_factor**round times 2pi
    around the incumbent. The incumbent never gets worse, and identical
    inputs give identical results: the grids are deterministic and ties
    resolve to the first maximum in C order over (a, a'). The reported S
    is recomputed by :func:`chsh_S` at the reported angles. Raises
    ``ValueError`` before any work unless ``roles`` is a
    :class:`RoleAssignment` and ``grid`` is None or a :class:`GridSpec`.
    """
    _checks.require_type("roles", roles, RoleAssignment)
    spec = GridSpec() if grid is None else grid
    _checks.require_type("grid", spec, GridSpec)
    c = _checks.contrast("c", c, scalar=True)
    needed = spec.total_evaluations()
    if needed > spec.budget:
        raise BudgetExceededError(needed, spec.budget)

    points = spec.points_per_angle
    axes = [np.linspace(0.0, TWO_PI, points, endpoint=False)] * 2
    best_value = -np.inf
    for round_index in range(spec.refinement_rounds + 1):
        if round_index:
            half = np.pi * spec.shrink_factor ** round_index
            axes = [np.linspace(center - half, center + half, points) for center in best]
        # each round needs only the bound; (b, b') is taken once, at the final winner
        values = _bound(axes[0][:, None], axes[1][None, :], c)[0]
        i, j = np.unravel_index(int(np.argmax(values)), values.shape)
        if values[i, j] > best_value:
            best_value = values[i, j]
            best = axes[0][i], axes[1][j]

    _, b, b_prime = _max_over_b(*best, c)
    result_angles = roles.bell_angles(*(float(x) for x in (*best, b, b_prime)))
    return SearchResult(best_angles=result_angles,
                        best_s=float(chsh_S(result_angles, c, roles)),
                        evaluations=needed)


def stationarity_check(angles: BellAngles, c: float, roles: RoleAssignment,
                       h: float) -> StationarityOutcome:
    """Central-difference stationarity test of S at the given angles.

    SKIPPED when either absolute-value argument of the combination lies
    within 10*h of zero: the statistic has a kink there and finite
    differences are meaningless. Otherwise PASSED iff every one-angle
    central difference quotient has magnitude at most 10*h^2*scale with
    scale = max(1, |S|), the expected truncation error at a smooth
    stationary point. Raises ``ValueError`` unless ``angles`` is a
    :class:`BellAngles`, ``roles`` a :class:`RoleAssignment` and h
    positive, finite and large enough that x + h and x - h differ from
    every angle x.
    """
    _checks.require_type("angles", angles, BellAngles)
    _checks.require_type("roles", roles, RoleAssignment)
    values = np.array(angles.as_tuple())
    h = _checks.finite_scalar("step h", h)
    # a step below an angle's resolution makes every difference quotient 0
    if not (0 < h and np.all(values + h != values) and np.all(values - h != values)):
        raise ValueError(f"step h must be positive and finite and must move every angle, "
                         f"got {h!r}")
    first, second = chsh_terms(angles, c, roles)
    if min(abs(first), abs(second)) <= 10.0 * h:
        return StationarityOutcome.SKIPPED

    base = chsh_S(angles, c, roles)
    threshold = 10.0 * h * h * max(1.0, abs(base))
    for i in range(4):
        forward, backward = values.copy(), values.copy()
        forward[i] += h
        backward[i] -= h
        diff = (chsh_S(BellAngles(*forward), c, roles)
                - chsh_S(BellAngles(*backward), c, roles)) / (2.0 * h)
        if abs(diff) > threshold:
            return StationarityOutcome.FAILED
    return StationarityOutcome.PASSED
