"""Boundary checks: finite real scalars and arrays, contrasts, integers, types.

Each returns the checked value or raises ``ValueError`` naming the argument:
for a non-numeric value or None, a complex number, NaN or inf (|x| <= bound
fails for NaN), an array for a scalar, a bool or non-integer count, a wrong type.
"""

from __future__ import annotations

import numpy as np

_FLOAT_MAX = float(np.finfo(float).max)


def finite_scalar(name: str, value, bound=_FLOAT_MAX, rule="must be finite") -> float:
    """``value`` as a float with |value| <= ``bound``: finite by default, any float for None."""
    if type(value) is not float:  # the hot paths pass floats
        if isinstance(value, np.ndarray) and value.ndim:
            raise ValueError(f"{name} must be a scalar, got shape {value.shape}")
        if isinstance(value, (complex, np.complexfloating)):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float range
            raise ValueError(f"{name} must be a real number, got {value!r}") from None
    if bound is not None and not abs(value) <= bound:
        raise ValueError(f"{name} {rule}, got {value!r}")
    return value


def finite_array(name: str, value, bound=_FLOAT_MAX, rule="must be finite") -> np.ndarray:
    """``value`` as a float ndarray, every entry x with |x| <= ``bound`` (finite by default)."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind not in "biufUS":  # complex, None and other objects
            raise TypeError(f"got dtype {arr.dtype}")
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be real numbers: {exc}") from None
    if not (np.isfinite(arr) if bound == _FLOAT_MAX else np.abs(arr) <= bound).all():
        raise ValueError(f"{name} {rule}")
    return arr


def contrast(name: str, value, scalar: bool = False):
    """A contrast c = cos(2*mu*lambda): real, |c| <= 1 + 1e-12; a float if ``scalar``."""
    check = finite_scalar if scalar else finite_array
    return check(name, value, 1.0 + 1e-12, "must be a contrast in [-1, 1]")


def integer(name: str, value) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_type(name: str, value, kind: type) -> None:
    """ValueError unless ``value`` is an instance of ``kind``."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
