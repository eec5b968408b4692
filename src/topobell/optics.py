"""Constructors for the interferometer components.

All constructors return fresh complex ndarrays in the port conventions of
:mod:`topobell.linalg`. Angles are taken in radians and are not reduced
modulo 2*pi; the trigonometry is periodic anyway and unreduced angles keep
finite-difference checks simple. A non-finite angle or phase product raises
``ValueError`` naming it, so NaN never enters a matrix.
"""

from __future__ import annotations

import numpy as np

from . import _checks

SQRT2 = np.sqrt(2.0)


def beam_splitter() -> np.ndarray:
    """Symmetric lossless 50:50 beam splitter.

    Reflection amplitudes are purely real and transmission amplitudes purely
    imaginary, so the matrix is (1/sqrt 2) [[1, i], [i, 1]].
    """
    return np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / SQRT2


def phase_retarder(theta: float) -> np.ndarray:
    """Retarder adding phase exp(i*theta) to the port-0 arm: diag(e^{i theta}, 1)."""
    theta = _checks.finite_scalar("theta", theta)
    return np.array([[np.exp(1j * theta), 0.0], [0.0, 1.0]], dtype=complex)


def mach_zehnder(theta: float) -> np.ndarray:
    """Phase-stripped transfer matrix of a balanced splitter-retarder-splitter.

    Returns the real matrix

        [[-sin(theta/2), cos(theta/2)],
         [ cos(theta/2), sin(theta/2)]]

    i.e. the compact interferometer form with the global factor
    i*exp(i*theta/2) dropped. The raw product
    ``beam_splitter() @ phase_retarder(theta) @ beam_splitter()`` equals
    ``1j * exp(1j*theta/2) * mach_zehnder(-theta)`` entrywise: the sign of
    theta inside the compact form encodes which arm carries the retarder,
    and the two conventions give identical detection statistics (the entry
    magnitudes agree for every theta).
    """
    half = 0.5 * _checks.finite_scalar("theta", theta)
    s, c = np.sin(half), np.cos(half)
    return np.array([[-s, c], [c, s]], dtype=complex)


def path_phase_operator(i_u: float, i_d: float, mu: float) -> np.ndarray:
    """Arm-dependent phase accumulated along the upper and lower paths.

    Returns diag(exp(i*mu*I_u), exp(-i*mu*I_d)) for upper and lower arm
    line integrals I_u and I_d. The closed-loop combination
    I_u - I_d = lambda (lower path traversed in reverse) is the caller's
    convention; only the operator itself is fixed here.
    """
    mu = _checks.finite_scalar("mu", mu, None)
    i_u, i_d = _checks.finite_scalar("i_u", i_u, None), _checks.finite_scalar("i_d", i_d, None)
    _checks.finite_scalar("mu*i_u", mu * i_u)
    _checks.finite_scalar("mu*i_d", mu * i_d)
    return np.array([[np.exp(1j * mu * i_u), 0.0],
                     [0.0, np.exp(-1j * mu * i_d)]], dtype=complex)


def spin_loop_phase(s: int, mu: float, lam: float) -> complex:
    """Loop phase exp(-i*s*mu*lambda) picked up by a spin-s dipole.

    ``s`` must be +1 or -1 (spin up or down along the conditioning
    direction); ``lam`` is the closed-loop line integral of the confined
    field, and ``mu`` the dipole magnitude. Opposite spins acquire
    conjugate phases, so their product is exactly 1.
    """
    if s not in (1, -1):
        raise ValueError(f"spin label must be +1 or -1, got {s!r}")
    mu, lam = _checks.finite_scalar("mu", mu, None), _checks.finite_scalar("lam", lam, None)
    _checks.finite_scalar("mu*lam", mu * lam)
    return complex(np.exp(-1j * s * mu * lam))
