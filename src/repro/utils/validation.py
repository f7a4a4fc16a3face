"""Argument-validation helpers shared across the library.

All validators raise :class:`ValueError` with a message that names the
offending parameter, so configuration mistakes surface at construction time
rather than as silent numerical oddities deep inside a simulation.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "require_positive",
    "require_non_negative",
    "require_probability",
    "require_probability_vector",
    "require_in_range",
    "require_integer",
    "require_flag",
    "require_real",
]


def _is_finite(value: float) -> bool:
    """Return ``math.isfinite(value)``, counting ints beyond float range as not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def require_positive(value: float, name: str) -> float:
    """Return ``value`` if it is finite and strictly positive, else raise."""
    if not _is_finite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def require_non_negative(value: float, name: str) -> float:
    """Return ``value`` if it is finite and non-negative, else raise."""
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
    return float(value)


def require_probability(value: float, name: str) -> float:
    """Return ``value`` if it lies in the closed interval [0, 1], else raise."""
    if not math.isfinite(value) or value < 0 or value > 1:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def require_probability_vector(
    values: Sequence[float], name: str, *, atol: float = 1e-8
) -> np.ndarray:
    """Return ``values`` as an array if it is a probability vector.

    A probability vector has no negative entries and sums to one within
    ``atol``.  The returned array is a fresh ``float64`` copy, normalised so
    downstream code can rely on an exact unit sum.
    """
    array = np.asarray(values, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    if np.any(~np.isfinite(array)) or np.any(array < -atol):
        raise ValueError(f"{name} must contain finite non-negative entries")
    total = float(array.sum())
    if abs(total - 1.0) > atol:
        raise ValueError(f"{name} must sum to 1 (got {total:.6g})")
    clipped = np.clip(array, 0.0, None)
    return clipped / clipped.sum()


def require_in_range(
    value: float, name: str, low: float, high: float, *, inclusive: bool = True
) -> float:
    """Return ``value`` if it lies in ``[low, high]`` (or ``(low, high)``)."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if inclusive:
        ok = low <= value <= high
    else:
        ok = low < value < high
    if not ok:
        bracket = "[]" if inclusive else "()"
        raise ValueError(
            f"{name} must lie in {bracket[0]}{low}, {high}{bracket[1]}, got {value!r}"
        )
    return float(value)


def require_integer(value: object, name: str) -> int:
    """Return ``value`` as an ``int`` if it is an integer, else raise.

    Python and numpy integers qualify; ``bool`` (an ``int`` subclass) and
    integral floats such as ``2.0`` do not — a count that arrives as either
    is a typo, not a count.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(
        value, (int, np.integer)
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_flag(value: object, name: str) -> bool:
    """Return ``value`` if it is a ``bool`` (or numpy bool), else raise.

    Strings such as ``"no"`` are truthy, so accepting them would silently
    switch a flag on.
    """
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return bool(value)


def require_real(value: object, name: str) -> float:
    """Return ``value`` as a ``float`` if it is a finite real number, else raise."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not _is_finite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)
