"""Constructors for the interferometer components.

All constructors return fresh complex ndarrays in the port conventions of
:mod:`topobell.oracle`. Angles are taken in radians and are not reduced
modulo 2*pi; the trigonometry is periodic anyway and unreduced angles keep
finite-difference checks simple. Every constructor but the splitter
broadcasts its arguments against each other: array input gives a stack
(..., 2, 2), or an array of phases, whose entries equal the one-point
calls bit for bit. A non-finite angle or phase product raises
``ValueError`` naming it, so NaN never enters a matrix, and so do shapes
that do not broadcast.
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


def _diagonal(d0, d1) -> np.ndarray:
    """Stack (..., 2, 2) of diagonal matrices diag(d0, d1)."""
    out = np.zeros(np.broadcast_shapes(np.shape(d0), np.shape(d1)) + (2, 2), dtype=complex)
    out[..., 0, 0] = d0
    out[..., 1, 1] = d1
    return out


def _phase_product(name: str, mu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mu*x, raising ValueError named ``name`` where it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
        product = mu * x
    return _checks.finite_array(name, product)


def phase_retarder(theta) -> np.ndarray:
    """Retarder adding phase exp(i*theta) to the port-0 arm: diag(e^{i theta}, 1)."""
    return _diagonal(np.exp(1j * _checks.finite_array("theta", theta)), 1.0)


def mach_zehnder(theta) -> np.ndarray:
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
    half = 0.5 * _checks.finite_array("theta", theta)
    s, c = np.sin(half), np.cos(half)
    out = np.empty(half.shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1] = -s, c
    out[..., 1, 0], out[..., 1, 1] = c, s
    return out


def path_phase_operator(i_u, i_d, mu) -> np.ndarray:
    """Arm-dependent phase accumulated along the upper and lower paths.

    Returns diag(exp(i*mu*I_u), exp(-i*mu*I_d)) for upper and lower arm
    line integrals I_u and I_d. The closed-loop combination
    I_u - I_d = lambda (lower path traversed in reverse) is the caller's
    convention; only the operator itself is fixed here. ``mu`` and the
    integrals may be any real numbers whose products are finite.
    """
    mu = _checks.finite_array("mu", mu, None)
    i_u, i_d = _checks.finite_array("i_u", i_u, None), _checks.finite_array("i_d", i_d, None)
    up, down = _phase_product("mu*i_u", mu, i_u), _phase_product("mu*i_d", mu, i_d)
    return _diagonal(np.exp(1j * up), np.exp(-1j * down))


def spin_loop_phase(s: int, mu, lam):
    """Loop phase exp(-i*s*mu*lambda) picked up by a spin-s dipole.

    ``s`` must be +1 or -1 (spin up or down along the conditioning
    direction); ``lam`` is the closed-loop line integral of the confined
    field, and ``mu`` the dipole magnitude. Opposite spins acquire
    conjugate phases, so their product is exactly 1. Returns a complex
    scalar when ``mu`` and ``lam`` are scalars, otherwise a complex array
    of their broadcast shape.
    """
    if _checks.integer("spin label", s) not in (1, -1):
        raise ValueError(f"spin label must be +1 or -1, got {s!r}")
    mu, lam = _checks.finite_array("mu", mu, None), _checks.finite_array("lam", lam, None)
    phase = np.exp(-1j * s * _phase_product("mu*lam", mu, lam))
    return complex(phase) if phase.ndim == 0 else phase
