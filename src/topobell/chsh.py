"""Observables, expectation values and the CHSH correlation function.

The expectation value for retarder settings (tL, tR) with interference
contrast c = cos(2*mu*lambda) is

    E(tL, tR) = -cos tL cos tR - sin tL sin tR * c

which reduces to -cos(tL - tR) at c = 1. The CHSH statistic combines four
expectation values; two slot-to-role assignments are shipped because the
two natural labelings of the four angles are both in circulation and they
disagree on which fixed angle tuples are optimal (see
:class:`RoleAssignment`).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from . import _checks
from .entangled import DetectionDistribution

TSIRELSON_BOUND = 2.0 * np.sqrt(2.0)

_HALF_MAX_FLOAT = np.finfo(float).max / 2.0

#: Fixed angle tuple (0, pi/4, 3pi/4, pi/2) that maximizes the literal
#: combination at full contrast.
CANONICAL_ANGLES_TUPLE = (0.0, np.pi / 4, 3 * np.pi / 4, np.pi / 2)


@dataclass(frozen=True)
class BellAngles:
    """The four retarder settings (tL, tR, tL', tR') in radians, stored as floats."""

    theta_l: float
    theta_r: float
    theta_lp: float
    theta_rp: float

    def __post_init__(self):
        for name in ("theta_l", "theta_r", "theta_lp", "theta_rp"):
            object.__setattr__(self, name, _checks.finite_scalar(name, getattr(self, name)))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.theta_l, self.theta_r, self.theta_lp, self.theta_rp)


class RoleAssignment(enum.Enum):
    """Bijection from the angle slots (tL, tR, tL', tR') to CHSH roles (a, a', b, b').

    LITERAL pairs the slots exactly as the combination is conventionally
    printed for this interferometer family:
    |E(tL,tR) - E(tL,tL')| + |E(tR',tR) + E(tR',tL')|, i.e. a = tL,
    a' = tR', b = tR, b' = tL'. STANDARD uses the textbook reading a = tL,
    a' = tL', b = tR, b' = tR'. Both span the same function family, so the
    global maximum over all angles is identical; they differ on which
    fixed angle tuples attain it.
    """

    LITERAL = "literal"
    STANDARD = "standard"

    def slots(self, angles: BellAngles) -> tuple[float, float, float, float]:
        """Return (a, a_prime, b, b_prime) for these angles."""
        return self._roles_of(*angles.as_tuple())

    def _roles_of(self, theta_l, theta_r, theta_lp, theta_rp):
        # the one forward copy of the map; the slot values may be arrays
        if self is RoleAssignment.LITERAL:
            return (theta_l, theta_rp, theta_r, theta_lp)
        return (theta_l, theta_lp, theta_r, theta_rp)

    def bell_angles(self, a: float, a_prime: float, b: float, b_prime: float) -> BellAngles:
        """Inverse of :meth:`slots`: the angles whose roles are (a, a', b, b')."""
        if self is RoleAssignment.LITERAL:
            return BellAngles(a, b, b_prime, a_prime)
        return BellAngles(a, b, a_prime, b_prime)


def canonical_angles() -> BellAngles:
    """The fixed angle tuple (0, pi/4, 3pi/4, pi/2)."""
    return BellAngles(*CANONICAL_ANGLES_TUPLE)


def expectation_from_distribution(dist: DetectionDistribution) -> float:
    """Observable product expectation from a joint detection distribution.

    Each side's observable assigns +1 to its D0 detector and -1 to its D1
    detector, so E = p(D0',D0) - p(D0',D1) - p(D1',D0) + p(D1',D1).
    """
    _checks.require_type("dist", dist, DetectionDistribution)
    return float(dist.p_d0p_d0 - dist.p_d0p_d1 - dist.p_d1p_d0 + dist.p_d1p_d1)


def expectation_from_probabilities(p) -> np.ndarray:
    """:func:`expectation_from_distribution` over arrays of shape (..., 4).

    Each row is (p(D0',D0), p(D0',D1), p(D1',D0), p(D1',D1)); raises
    ``ValueError`` unless the last axis has length 4 and every entry is
    finite.
    """
    arr = _checks.finite_array("p", p)
    if arr.shape[-1:] != (4,):
        raise ValueError(f"expected probabilities along a last axis of length 4, "
                         f"got shape {arr.shape}")
    return arr[..., 0] - arr[..., 1] - arr[..., 2] + arr[..., 3]


def _expectation(cos_l, sin_l, cos_r, sin_r, c):
    """E from the cosines and sines of its two angles, in one fixed operation order."""
    return -cos_l * cos_r - sin_l * sin_r * c


def expectation_closed_form(theta_l, theta_r, c):
    """E(tL, tR) = -cos tL cos tR - sin tL sin tR * c. Broadcasts over arrays.

    Raises ``ValueError`` for a non-finite angle or a contrast outside [-1, 1].
    """
    c = _checks.contrast("c", c)
    theta_l = _checks.finite_array("theta_l", theta_l)
    theta_r = _checks.finite_array("theta_r", theta_r)
    return _expectation(np.cos(theta_l), np.sin(theta_l), np.cos(theta_r), np.sin(theta_r), c)


def chsh_terms(angles: BellAngles, c: float,
               roles: RoleAssignment) -> tuple[float, float]:
    """The two absolute-value arguments of the CHSH combination.

    Returns (E(a,b) - E(a,b'), E(a',b) + E(a',b')); the statistic is the
    sum of their absolute values. Exposed separately so kink detection can
    look at the arguments before the absolute value is taken.
    """
    _checks.require_type("angles", angles, BellAngles)
    _checks.require_type("roles", roles, RoleAssignment)
    c = _checks.contrast("c", c, scalar=True)
    a, ap, b, bp = roles.slots(angles)
    first = expectation_closed_form(a, b, c) - expectation_closed_form(a, bp, c)
    second = expectation_closed_form(ap, b, c) + expectation_closed_form(ap, bp, c)
    return float(first), float(second)


def chsh_S_values(theta_l, theta_r, theta_lp, theta_rp, c,
                  roles: RoleAssignment):
    """CHSH statistic over angle arrays (broadcasting), given slot arrays.

    The contrast ``c`` may be a scalar or an array that broadcasts with the
    angles, e.g. one row per contrast over the same angles. Each angle's
    cos and sin are evaluated once and shared by the two E terms it enters,
    each term keeping the operation order of :func:`expectation_closed_form`.
    Raises ``ValueError`` for a wrong ``roles`` type, naming the first
    non-finite angle, or for a contrast outside [-1, 1].
    """
    _checks.require_type("roles", roles, RoleAssignment)
    c = _checks.contrast("c", c)
    slots = zip(("theta_l", "theta_r", "theta_lp", "theta_rp"),
                (theta_l, theta_r, theta_lp, theta_rp))
    angles = roles._roles_of(*(_checks.finite_array(*slot) for slot in slots))
    return _S_from_trig(*((np.cos(t), np.sin(t)) for t in angles), c)


def _S_from_trig(a, ap, b, bp, c):
    """S from the (cos, sin) pair of each role angle (a, a', b, b'); no validation.

    Each E term keeps the operation order of :func:`_expectation`, so
    callers that take the cos/sin once for several role assignments or
    contrasts get :func:`chsh_S_values` bit for bit.
    """
    s = np.abs(_expectation(*a, *b, c) - _expectation(*a, *bp, c))
    return s + np.abs(_expectation(*ap, *b, c) + _expectation(*ap, *bp, c))


def _S_both_roles(trig, c):
    """S under each role assignment at contrasts ``c`` and at zero contrast; no validation.

    ``trig`` is the (cos, sin) pair of each slot angle (tL, tR, tL', tR').
    Returns ``(s_at_c, s_at_zero)`` per :class:`RoleAssignment`, in its
    order, equal bit for bit to :func:`_S_from_trig` at the contrast rows
    ``c`` and 0. The two assignments take their eight E terms from the six
    pairs of the four angles: each pair's X = cos cos + sin sin * c is
    taken once, with E = -X (negation is exact) and X symmetric in its two
    angles, and at zero contrast X is cos cos.
    """
    x = {}
    for i, j in itertools.combinations(range(4), 2):
        (cos_i, sin_i), (cos_j, sin_j) = trig[i], trig[j]
        cos_cos = cos_i * cos_j
        x[i, j] = x[j, i] = (cos_cos + sin_i * sin_j * c, cos_cos)
    out = []
    for roles in RoleAssignment:
        a, ap, b, bp = roles._roles_of(0, 1, 2, 3)
        out.append(tuple(np.abs(x[a, b][k] - x[a, bp][k]) + np.abs(x[ap, b][k] + x[ap, bp][k])
                         for k in (0, 1)))
    return tuple(out)


def chsh_S(angles: BellAngles, c: float, roles: RoleAssignment) -> float:
    """CHSH statistic |E(a,b) - E(a,b')| + |E(a',b) + E(a',b')| at contrast c."""
    _checks.require_type("angles", angles, BellAngles)
    return float(chsh_S_values(*angles.as_tuple(), _checks.contrast("c", c, scalar=True), roles))


def fixed_angle_curve_S(mu_lambda) -> float | np.ndarray:
    """S at the canonical angles under LITERAL roles, as a function of mu*lambda.

    Equals sqrt(2) + sqrt(2)*|cos(2*mu*lambda)|: full contrast gives
    2*sqrt(2), vanishing contrast sqrt(2). Even in mu*lambda and periodic
    with period pi. Raises ``ValueError`` unless 2*mu*lambda is finite for
    every entry.
    """
    curve = np.sqrt(2.0) * (1.0 + np.abs(contrast(mu_lambda)))
    return float(curve) if np.ndim(mu_lambda) == 0 else curve


def contrast(mu_lambda) -> float | np.ndarray:
    """Interference contrast c = cos(2*mu*lambda); 2*mu*lambda must be finite.

    Doubling is exact, so that holds iff |mu*lambda| <= max/2. Broadcasts
    over arrays, like :func:`fixed_angle_curve_S`.
    """
    c = np.cos(2.0 * _checks.finite_array("mu_lambda", mu_lambda, _HALF_MAX_FLOAT,
                                          "must give a finite contrast cos(2*mu_lambda)"))
    return float(c) if np.ndim(mu_lambda) == 0 else c


def analytic_max_S(c: float) -> float:
    """Largest attainable S at contrast c: 2*sqrt(1 + c^2).

    This is the re-optimized maximum over all four angles; it is attained
    by :func:`analytic_optimal_angles` under STANDARD roles and confirmed
    numerically by the grid search in :mod:`topobell.oracle`.
    """
    c = _checks.contrast("c", c, scalar=True)
    return float(2.0 * np.sqrt(1.0 + c ** 2))


def analytic_optimal_angles(mu_lambda: float) -> BellAngles:
    """Extremal angle tuple (0, arctan c, pi/2, pi - arctan c) for c = cos(2*mu*lambda).

    Under STANDARD roles these angles attain 2*sqrt(1 + c^2). The mirrored
    solution with arctan replaced by its negative attains the same value.
    """
    c = contrast(_checks.finite_scalar("mu_lambda", mu_lambda, None))
    t = float(np.arctan(c))
    return BellAngles(0.0, t, np.pi / 2, np.pi - t)
