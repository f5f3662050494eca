"""Unit tests for repro.util.validation."""

import math
import re
from fractions import Fraction
from numbers import Real

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.util.validation import (
    _check_finite_real,
    check_in_range,
    check_nonnegative,
    check_positive,
    check_positive_int,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive_float(self):
        assert check_positive(1.5, "x") == 1.5

    def test_accepts_positive_int(self):
        assert check_positive(3, "x") == 3.0

    def test_returns_float(self):
        assert isinstance(check_positive(3, "x"), float)

    @pytest.mark.parametrize("bad", [0, -1, -0.001])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(InvalidParameterError, match="x"):
            check_positive(bad, "x")

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(InvalidParameterError):
            check_positive(bad, "x")

    @pytest.mark.parametrize("bad", ["1", None, [1], True])
    def test_rejects_non_numbers(self, bad):
        with pytest.raises(InvalidParameterError):
            check_positive(bad, "x")

    def test_error_message_names_parameter(self):
        with pytest.raises(InvalidParameterError, match="weight"):
            check_positive(-1, "weight")


class TestCheckNonnegative:
    def test_accepts_zero(self):
        assert check_nonnegative(0, "x") == 0.0

    def test_accepts_positive(self):
        assert check_nonnegative(2.5, "x") == 2.5

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            check_nonnegative(-1e-9, "x")


class TestCheckPositiveInt:
    def test_accepts_int(self):
        assert check_positive_int(4, "n") == 4

    def test_accepts_integral_float(self):
        assert check_positive_int(4.0, "n") == 4

    def test_returns_int_type(self):
        assert isinstance(check_positive_int(4.0, "n"), int)

    def test_accepts_numpy_integer(self):
        result = check_positive_int(np.int64(4), "n")
        assert result == 4
        assert type(result) is int

    @pytest.mark.parametrize("bad", [0, -3, 2.5, "4", None, True, math.nan])
    def test_rejects_invalid(self, bad):
        with pytest.raises(InvalidParameterError):
            check_positive_int(bad, "n")

    @pytest.mark.parametrize(
        ("bad", "message"),
        [
            (True, "n must be a positive integer, got True"),
            (0, "n must be >= 1, got 0"),
            (-1, "n must be >= 1, got -1"),
            (2.5, "n must be a positive integer, got 2.5"),
        ],
    )
    def test_error_messages(self, bad, message):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            check_positive_int(bad, "n")


class TestCheckProbability:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, ok):
        assert check_probability(ok, "p") == ok

    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan])
    def test_rejects_outside(self, bad):
        with pytest.raises(InvalidParameterError):
            check_probability(bad, "p")


class TestCheckInRange:
    def test_closed_bounds_inclusive(self):
        assert check_in_range(0.0, "x", 0.0, 1.0) == 0.0
        assert check_in_range(1.0, "x", 0.0, 1.0) == 1.0

    def test_open_low_excludes_endpoint(self):
        with pytest.raises(InvalidParameterError):
            check_in_range(0.0, "x", 0.0, 1.0, low_open=True)

    def test_open_high_excludes_endpoint(self):
        with pytest.raises(InvalidParameterError):
            check_in_range(1.0, "x", 0.0, 1.0, high_open=True)

    def test_infinite_upper_bound(self):
        assert check_in_range(1e300, "x", 1.0, math.inf) == 1e300

    def test_error_mentions_interval_style(self):
        with pytest.raises(InvalidParameterError, match=r"\(0.*1.*\)"):
            check_in_range(2.0, "x", 0.0, 1.0, low_open=True, high_open=True)


def _reference_check_finite_real(value, name):
    """The real-number check as it was before its exact-float/int fast path."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return value


class TestFiniteRealFastPathParity:
    """The fast path accepts, converts and rejects exactly as the reference."""

    VALUES = [
        True, False, math.nan, math.inf, -math.inf, 0.0, -0.0, 2.5, -3.0, 1e308,
        0, 7, -7, 10**20, np.float64(1.5), np.float64(math.nan), np.float64(-math.inf),
        np.int64(3), np.float32(0.25), Fraction(1, 3),
        "1", None, [1.0], complex(1, 0),
    ]

    @staticmethod
    def outcome(fn, value):
        try:
            result = fn(value, "x")
        except InvalidParameterError as exc:
            return ("raises", str(exc))
        return ("ok", type(result), repr(result))

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_same_outcome(self, value):
        assert self.outcome(_check_finite_real, value) == self.outcome(
            _reference_check_finite_real, value
        )

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_public_checks_agree(self, value):
        # The callers add their own range checks on top; the messages of
        # the fast path's rejections reach the user through them.
        ref = self.outcome(_reference_check_finite_real, value)
        for check in (check_positive, check_nonnegative, check_probability):
            got = self.outcome(check, value)
            if ref[0] == "raises":
                assert got == ref
            else:
                assert got[0] == "raises" or got[1] is float
