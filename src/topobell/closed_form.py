"""Closed-form joint-detection distributions.

Pure trigonometric evaluations, deliberately free of any matrix or
pipeline code so they can serve as one side of an independent cross-check
against the simulators in :mod:`topobell.entangled` and
:mod:`topobell.oracle`.
"""

from __future__ import annotations

import numpy as np

from . import _checks
from .entangled import DetectionDistribution


def scenario_a_distribution(theta_l: float, theta_r: float) -> DetectionDistribution:
    """Open-geometry (cos^2, sin^2, sin^2, cos^2)/2 of half the finite angle difference."""
    theta_l = _checks.finite_scalar("theta_l", theta_l)
    difference = theta_l - _checks.finite_scalar("theta_r", theta_r)
    half = 0.5 * _checks.finite_scalar("theta_l - theta_r", difference)
    c2, s2 = np.cos(half) ** 2, np.sin(half) ** 2
    return DetectionDistribution(0.5 * c2, 0.5 * s2, 0.5 * s2, 0.5 * c2)


def scenario_b_probabilities(theta_l, theta_r) -> np.ndarray:
    """Interferometer probabilities (sin^2, cos^2, cos^2, sin^2)/2 of half the difference.

    Broadcasts over arrays; returns (..., 4) in detection-distribution order.
    Raises ``ValueError`` for a non-finite angle or angle difference.
    """
    with np.errstate(over="ignore"):
        difference = (_checks.finite_array("theta_l", theta_l)
                      - _checks.finite_array("theta_r", theta_r))
    half = 0.5 * _checks.finite_array("theta_l - theta_r", difference)
    c2, s2 = np.square(np.cos(half)), np.square(np.sin(half))
    return 0.5 * np.stack([s2, c2, c2, s2], axis=-1)


def scenario_b_distribution(theta_l: float, theta_r: float) -> DetectionDistribution:
    """:func:`scenario_b_probabilities` at one point."""
    theta_l = _checks.finite_scalar("theta_l", theta_l)
    return DetectionDistribution(*scenario_b_probabilities(
        theta_l, _checks.finite_scalar("theta_r", theta_r)).tolist())


def scenario_c_probabilities(theta_l, theta_r, two_mu_lambda) -> np.ndarray:
    """Spin-conditioned loop-phase probabilities.

    p(D0',D0) = p(D1',D1) = (1 - cos tL cos tR - sin tL sin tR cos(2 mu lambda))/4
    p(D0',D1) = p(D1',D0) = (1 + cos tL cos tR + sin tL sin tR cos(2 mu lambda))/4

    Broadcasts over arrays; returns (..., 4). The diagonal/antidiagonal
    detector symmetry is itself checked against the simulated pipeline in
    the verification suites rather than assumed.
    """
    tl, tr = _checks.finite_array("theta_l", theta_l), _checks.finite_array("theta_r", theta_r)
    k = np.cos(_checks.finite_array("two_mu_lambda", two_mu_lambda))
    cos_cos, sin_sin = np.cos(tl) * np.cos(tr), np.sin(tl) * np.sin(tr) * k
    same = 0.25 * (1.0 - cos_cos - sin_sin)
    diff = 0.25 * (1.0 + cos_cos + sin_sin)
    return np.stack([same, diff, diff, same], axis=-1)


def scenario_c_distribution(theta_l: float, theta_r: float,
                            two_mu_lambda: float) -> DetectionDistribution:
    """:func:`scenario_c_probabilities` at one point."""
    angles = _checks.finite_scalar("theta_l", theta_l), _checks.finite_scalar("theta_r", theta_r)
    return DetectionDistribution(*scenario_c_probabilities(
        *angles, _checks.finite_scalar("two_mu_lambda", two_mu_lambda)).tolist())
