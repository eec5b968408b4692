"""Unitarity deviation of a complex matrix or a stack of them.

The port and joint-basis conventions live with the 4x4 operators in
:mod:`topobell.oracle`. The one helper here is a pure function; nothing
keeps state, so concurrent use needs no coordination.
"""

from __future__ import annotations

import numpy as np


def unitarity_deviation(m: np.ndarray) -> float:
    """Max-entry magnitude of M^dag M - I, over every matrix of a stack (..., n, n)."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim < 2 or arr.shape[-2] != arr.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {arr.shape}")
    gram = arr.conj().swapaxes(-2, -1) @ arr
    return float(np.max(np.abs(gram - np.eye(arr.shape[-1])), initial=0.0))
