"""Argument-validation helpers.

Each helper raises :class:`repro.exceptions.InvalidParameterError` with a
message naming the offending parameter, so every public entry point of the
library reports bad input the same way.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

from repro.exceptions import InvalidParameterError

__all__ = [
    "check_positive",
    "check_positive_int",
    "check_nonnegative",
    "check_probability",
    "check_in_range",
]


def _check_finite_real(value: object, name: str) -> float:
    # Exact float/int first: skips the ``numbers.Real`` ABC check, the
    # costly part for the plain Python numbers most callers pass.
    if type(value) is float:
        if math.isfinite(value):
            return value
    elif type(value) is int:
        return float(value)
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return value


def check_positive(value: object, name: str) -> float:
    """Return ``value`` as ``float`` if it is finite and strictly positive."""
    result = _check_finite_real(value, name)
    if result <= 0:
        raise InvalidParameterError(f"{name} must be > 0, got {value!r}")
    return result


def check_nonnegative(value: object, name: str) -> float:
    """Return ``value`` as ``float`` if it is finite and >= 0."""
    result = _check_finite_real(value, name)
    if result < 0:
        raise InvalidParameterError(f"{name} must be >= 0, got {value!r}")
    return result


def check_positive_int(value: object, name: str) -> int:
    """Return ``value`` as ``int`` if it is a positive integer.

    Floats with integral values (e.g. ``4.0``) are accepted for convenience;
    ``True``/``False`` are rejected.
    """
    if type(value) is int and value > 0:
        return value
    if isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be a positive integer, got {value!r}")
    if isinstance(value, Integral):
        result = int(value)
    elif isinstance(value, Real) and float(value).is_integer():
        result = int(value)
    else:
        raise InvalidParameterError(f"{name} must be a positive integer, got {value!r}")
    if result <= 0:
        raise InvalidParameterError(f"{name} must be >= 1, got {value!r}")
    return result


def check_probability(value: object, name: str) -> float:
    """Return ``value`` as ``float`` if it lies in the closed interval [0, 1]."""
    result = _check_finite_real(value, name)
    if not 0.0 <= result <= 1.0:
        raise InvalidParameterError(f"{name} must be in [0, 1], got {value!r}")
    return result


def check_in_range(
    value: object, name: str, low: float, high: float, *, low_open: bool = False, high_open: bool = False
) -> float:
    """Return ``value`` as ``float`` if it lies in the requested interval."""
    result = _check_finite_real(value, name)
    if low_open:
        ok_low = result > low
    else:
        ok_low = result >= low
    if high_open:
        ok_high = result < high
    else:
        ok_high = result <= high
    if not (ok_low and ok_high):
        lo_b = "(" if low_open else "["
        hi_b = ")" if high_open else "]"
        raise InvalidParameterError(
            f"{name} must be in {lo_b}{low}, {high}{hi_b}, got {value!r}"
        )
    return result
