"""Independent verification machinery.

Everything here re-derives results along a separate route from both the
scenario simulators and the closed forms: joint probabilities through
explicit 4x4 operator chains, Kronecker products of inline component
matrices stacked over arrays of points, and the CHSH maximum through a
grid search over the two angles (a, a') with shrinking-window refinement
and the exact maximum over (b, b') at each grid point, plus
finite-difference stationarity checks at claimed extrema. The search grid
is fixed (24 points per angle, 5 refinement rounds, shrink factor 0.25)
and takes no options; an evaluation budget is a check of the CLI. The grid
search is one kernel over arrays of contrasts (:func:`_search`, which
runs all of ``topobell sweep``'s rows in one array pass per round);
:func:`grid_search_max_S` is its one-row case.

Conventions used throughout the package:

* single-quanton port basis: index 0 is (1, 0)^T, index 1 is (0, 1)^T;
* joint two-quanton basis: left-factor-major order
  (0,0), (0,1), (1,0), (1,1), so :func:`_kron` and ``numpy.kron`` agree
  on index placement (not always on the last bit of an entry);
* operators are plain complex ndarrays of shape (2, 2) or (4, 4), with
  row = output port and column = input port; a stack of them adds
  leading axes, (..., 2, 2);
* state vectors are complex ndarrays of shape (2,) or (4,).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _checks, chsh
from .chsh import BellAngles, RoleAssignment
from .entangled import (DetectionDistribution, Scenario, TopoPhaseSpec, _checked_batch,
                        _checked_point)

TWO_PI = 2.0 * np.pi


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products of two stacks of 2x2 operators, (..., 4, 4), left factor major."""
    product = np.einsum("...ik,...jl->...ijkl", a, b)
    return product.reshape(product.shape[:-4] + (4, 4))


# Component matrices restated inline so the oracle does not lean on the
# optics constructors it is meant to cross-check.
_BS = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)
_SPLITTERS = _kron(_BS, _BS)
_MIRROR = np.eye(4, dtype=complex)[[1, 0, 3, 2]]  # 1 (x) swap: right-hand detector labels
# scenario A's right-hand detectors are labeled opposite to the splitter ports
_READOUT = _MIRROR @ _SPLITTERS


def _kron_diagonals(left, right) -> np.ndarray:
    """Diagonals (..., 4) of diag(*left) (x) diag(*right), left factor major.

    ``left`` and ``right`` are (d0, d1) pairs of scalars or arrays that
    broadcast. Each entry is one complex product taken as :func:`_kron`
    takes it, by ``einsum``, so the result is ``_kron``'s diagonal bit for
    bit; ``np.multiply`` may fuse a product's rounding and differ.
    """
    sides = []
    for d0, d1 in (left, right):
        side = np.empty(np.broadcast_shapes(np.shape(d0), np.shape(d1)) + (2,), dtype=complex)
        side[..., 0], side[..., 1] = d0, d1
        sides.append(side)
    product = np.einsum("...i,...j->...ij", *sides)
    return product.reshape(product.shape[:-2] + (4,))


def brute_force_probabilities(scenario: Scenario, theta_l, theta_r, **fields) -> np.ndarray:
    """Joint detection probabilities by explicit per-branch 4x4 operator chains.

    Takes the inputs of :func:`topobell.entangled.scenario_probabilities`
    (angles and phase-spec fields as arrays that broadcast against each
    other, sparse grids too) through its batch check and returns (..., 4).
    The singlet branches, their spin-conditioned scalar phases and the
    mirrored right-hand detector labels of scenario A are restated here
    from the physical conventions; no closed-form result enters.
    """
    return _brute_force(scenario, *_checked_batch(scenario, theta_l, theta_r, fields))


def _right_product(stack: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``stack @ m`` for a stack (..., 4, 4) and a (4, k) ``m``: one 2-D matmul on (4N, 4)."""
    return (stack.reshape(-1, 4) @ m).reshape(stack.shape[:-1] + m.shape[-1:])


# singlet: +1/sqrt2 on |0,1> with spins (+1,-1), -1/sqrt2 on |1,0> with (-1,+1);
# column 0 is the up-down branch's start vector, column 1 the down-up one's
_SINGLET_BRANCHES = np.zeros((4, 2), dtype=complex)
_SINGLET_BRANCHES[1, 0], _SINGLET_BRANCHES[2, 1] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)


def _brute_force(scenario: Scenario, theta_l, theta_r, fields: dict) -> np.ndarray:
    """:func:`brute_force_probabilities` on what ``_checked_batch`` or ``_checked_point`` returns.

    The branch phases scale the branches elementwise, so fields may keep
    their own shape. Each diagonal factor, a retarder pair or scenario A's
    arm phases, is built as its diagonal alone (:func:`_kron_diagonals`)
    and scales the columns of the product to its left; each product with
    a factor shared by every point, the second splitter pair or the two
    singlet start vectors, is one 2-D matmul over the whole stack
    (:func:`_right_product`).
    """
    retarders = _kron_diagonals((np.exp(1j * theta_l), 1.0), (np.exp(1j * theta_r), 1.0))
    if scenario is Scenario.A:
        if fields:
            mu = fields["mu"]
            arms = _kron_diagonals(*((np.exp(1j * mu * fields[f"i_u_{side}"]),
                                      np.exp(-1j * mu * fields[f"i_d_{side}"])) for side in "lr"))
            # A's fields are broadcast to the angles' shape, so the retarders scale in place
            chain = _READOUT * arms[..., None, :]
            chain *= retarders[..., None, :]
        else:
            chain = _READOUT * retarders[..., None, :]
    else:
        chain = _right_product(_SPLITTERS * retarders[..., None, :], _SPLITTERS)
    branches = _right_product(chain, _SINGLET_BRANCHES)

    if scenario is Scenario.C:
        phi_ud, phi_du = (np.exp(-1j * fields["mu"] * (s_l * fields["lambda_l"]
                                                      + s_r * fields["lambda_r"]))
                          for (s_l, s_r) in ((1, -1), (-1, 1)))
    elif scenario is Scenario.AB:
        phi_ud = phi_du = np.exp(-1j * fields["flux"])
    else:
        return np.abs(branches[..., 0] + branches[..., 1]) ** 2
    amplitudes = phi_ud[..., None] * branches[..., 0] + phi_du[..., None] * branches[..., 1]
    return np.abs(amplitudes) ** 2


def brute_force_distribution(scenario: Scenario, theta_l: float, theta_r: float,
                             topo: TopoPhaseSpec | None = None) -> DetectionDistribution:
    """:func:`brute_force_probabilities` at one point, for a phase spec.

    Raises ``ValueError`` as :func:`topobell.entangled.run_scenario` does,
    with the same messages: first unless ``topo`` is the scenario's phase
    spec, then for an angle that is not a finite real scalar.
    """
    return DetectionDistribution.from_array(
        _brute_force(scenario, *_checked_point(scenario, theta_l, theta_r, topo)))


#: The search grid: 24 points per angle, 5 refinement rounds, each window's
#: half-width shrunk by 0.25 per round. Round 0's axis, linspace(0, 2pi, 24,
#: endpoint=False), holds 0 and pi/2 exactly (indices 0 and 6), so it holds
#: the maximizer (a, a') = (0, pi/2) bit for bit at every contrast and S is found
#: to about 1e-15; other sizes miss it (by 5.6e-9 at 23 points per angle).
_POINTS, _ROUNDS, _SHRINK = 24, 5, 0.25
_RAMP = np.arange(_POINTS, dtype=float)
_ROUND_ZERO = _RAMP * (TWO_PI / _POINTS)  # linspace's own arithmetic for that axis


#: (a, a') points a search evaluates, each the exact maximum over (b, b'): 3,456 a row.
_EVALUATIONS = _POINTS ** 2 * (_ROUNDS + 1)


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


#: Grid points per block of rows in :func:`_search`: each of a round's few
#: (rows, n, n) temporaries stays near 512 KiB, however many rows are searched.
_BLOCK_POINTS = 2**16

#: Index of the (a, a') axes of a (2, rows, n) grid, paired with each row's winner.
_AXES = np.array([[0], [1]])


def _search(contrasts: np.ndarray) -> np.ndarray:
    """The grid search of :func:`grid_search_max_S` for every contrast at once; no validation.

    Takes a non-empty 1-D float array of contrasts and returns
    (5, len(contrasts)): the role angles a, a', b, b' and S, one column per
    contrast. Rows are searched in blocks of ``_BLOCK_POINTS // 24**2``,
    so memory does not grow with the row count, and a row's result
    depends neither on the other rows nor on the blocking.
    """
    per_block = _BLOCK_POINTS // _POINTS ** 2
    return np.concatenate([_search_block(contrasts[lo:lo + per_block])
                           for lo in range(0, len(contrasts), per_block)], axis=1)


def _windows(centres: np.ndarray, half: float) -> np.ndarray:
    """``np.linspace(x - half, x + half, 24)`` for every entry x of ``centres``, stacked.

    Returns ``centres.shape + (24,)``. Repeats linspace's arithmetic, so
    every point is linspace's bit for bit. Linspace's special case for a
    step that underflows to 0 is left out: every half-width the search
    asks for is at least pi*0.25**5, about 3.1e-3, around a centre in
    (-1.1, 7.4), so the step is never 0.

    ``np.linspace(centres - half, centres + half, 24, axis=-1)`` gives the
    same bits but is slower: on a (2, 2) ``centres``, the two rows of a
    ``sweep-grid`` unit, linspace took 28.7 us a call against this
    function's 11.6 us (2-vCPU x86-64, numpy 2.4.6). Over a search's five
    refinement rounds that is about 85 us more per unit, so keep this
    function.
    """
    start, stop = centres - half, centres + half
    grid = _RAMP * ((stop - start) / (_POINTS - 1))[..., None]
    grid += start[..., None]
    grid[..., -1] = stop
    return grid


def _search_block(c: np.ndarray) -> np.ndarray:
    """:func:`_search` on one block of rows, every round one array pass over the block.

    Each row keeps its own incumbent (a, a'): a round's candidate is the
    row's first maximum in C order over the round's grid, and it replaces
    the incumbent only if strictly larger. Refinement windows come from
    :func:`_windows`, so every grid point is the one a per-row
    ``np.linspace`` would give.
    """
    rows = np.arange(len(c))
    c_grid = c[:, None, None]
    grid = np.broadcast_to(_ROUND_ZERO, (2, len(c), _POINTS))
    best_value, best = np.full(len(c), -np.inf), np.zeros((2, len(c)))
    for round_index in range(_ROUNDS + 1):
        if round_index:
            grid = _windows(best, np.pi * _SHRINK ** round_index)
        # each round needs only the bound; (b, b') is taken once, at the final winners
        values = _bound(grid[0, :, :, None], grid[1, :, None, :], c_grid)[0].reshape(len(c), -1)
        first = values.argmax(axis=1)
        top = values[rows, first]
        improved = top > best_value
        best_value = np.where(improved, top, best_value)
        best = np.where(improved, grid[_AXES, rows, np.unravel_index(first, (_POINTS, _POINTS))],
                        best)

    _, b, b_prime = _max_over_b(*best, c)
    angles = (*best, b, b_prime)
    return np.array([*angles, chsh._S_from_trig(*((np.cos(t), np.sin(t)) for t in angles), c)])


def grid_search_max_S(c: float, roles: RoleAssignment) -> SearchResult:
    """Grid search for the CHSH maximum at contrast c.

    Grids (a, a') and takes the exact maximum over (b, b') at every grid
    point (:func:`_max_over_b`), so ``evaluations`` counts the 24**2 grid
    points of each of the six rounds, 3,456. Round 0 covers [0, 2pi) per
    angle, endpoint excluded since the objective is periodic; refinement
    round k re-grids a window of width 0.25**k times 2pi around the
    incumbent. The incumbent never gets worse, and identical inputs give
    identical results: the grids are deterministic and ties resolve to
    the first maximum in C order over (a, a'). The reported S is
    recomputed from the reported angles, as :func:`chsh_S` would. This is
    the one-row case of :func:`_search`, the batched search behind
    ``topobell sweep``. Raises ``ValueError`` before any work unless
    ``roles`` is a :class:`RoleAssignment` and then unless c is a contrast.
    """
    _checks.require_type("roles", roles, RoleAssignment)
    c = _checks.contrast("c", c, scalar=True)
    *angles, s = _search(np.array([c]))[:, 0].tolist()
    return SearchResult(best_angles=roles.bell_angles(*angles), best_s=s,
                        evaluations=_EVALUATIONS)


def stationarity_check(angles: BellAngles, c: float, roles: RoleAssignment,
                       h: float) -> StationarityOutcome:
    """Central-difference stationarity test of S at the given angles.

    One call takes S's two absolute-value arguments on nine rows: the
    angles, each angle moved by +h, and each moved by -h. SKIPPED when
    either argument at the angles is within 10*h of zero, a kink of S;
    otherwise PASSED iff every central difference quotient is at most
    10*h^2*max(1, |S|) in magnitude, the truncation error at a smooth
    stationary point. Raises ``ValueError``, in this order, unless
    ``angles`` is a :class:`BellAngles`, ``roles`` a :class:`RoleAssignment`,
    h positive and finite with each x + h and x - h finite and unequal to
    its angle x, and c a contrast.
    """
    _checks.require_type("angles", angles, BellAngles)
    _checks.require_type("roles", roles, RoleAssignment)
    values = np.array(angles.as_tuple())
    h = _checks.finite_scalar("step h", h)
    with np.errstate(over="ignore"):  # an angle moved past the float range is rejected below
        moved = values + np.array([[h], [-h]])
    # a step below an angle's resolution makes every difference quotient 0
    if not (0 < h and np.all(moved != values)):
        raise ValueError(f"step h must be positive and finite and must move every angle, "
                         f"got {h!r}")
    _checks.finite_array("step h", moved, rule="must keep every angle finite")
    c = _checks.contrast("c", c, scalar=True)
    rows = np.vstack([values, *(np.where(np.eye(4, dtype=bool), x, values) for x in moved)])
    first, second = chsh._S_terms(*roles._roles_of(*((np.cos(t), np.sin(t)) for t in rows.T)), c)
    if min(abs(first[0]), abs(second[0])) <= 10.0 * h:
        return StationarityOutcome.SKIPPED
    s = np.abs(first) + np.abs(second)
    if np.any(np.abs(s[1:5] - s[5:]) / (2.0 * h) > 10.0 * h * h * max(1.0, s[0])):
        return StationarityOutcome.FAILED
    return StationarityOutcome.PASSED
