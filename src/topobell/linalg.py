"""Exact-size complex linear algebra for two-port quanton pairs.

Conventions used throughout the package:

* single-quanton port basis: index 0 is (1, 0)^T, index 1 is (0, 1)^T;
* joint two-quanton basis: left-factor-major order
  (0,0), (0,1), (1,0), (1,1), so ``tensor_product(left, right)`` and
  ``numpy.kron`` agree on index placement;
* operators are plain complex ndarrays of shape (2, 2) or (4, 4), with
  row = output port and column = input port; a stack of them adds
  leading axes, (..., 2, 2);
* state vectors are complex ndarrays of shape (2,) or (4,).

Everything here is a pure function over immutable inputs; nothing keeps
state, so concurrent use needs no coordination.
"""

from __future__ import annotations

import numpy as np


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two single-quanton operators.

    Entry ((i,j),(k,l)) of the result is a[i,k] * b[j,l] under the
    left-factor-major basis ordering.
    """
    left = np.asarray(a, dtype=complex)
    right = np.asarray(b, dtype=complex)
    if left.shape != (2, 2) or right.shape != (2, 2):
        raise ValueError("tensor_product expects two 2x2 operators")
    return np.kron(left, right)


def unitarity_deviation(m: np.ndarray) -> float:
    """Max-entry magnitude of M^dag M - I, over every matrix of a stack (..., n, n)."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim < 2 or arr.shape[-2] != arr.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {arr.shape}")
    gram = arr.conj().swapaxes(-2, -1) @ arr
    return float(np.max(np.abs(gram - np.eye(arr.shape[-1])), initial=0.0))
