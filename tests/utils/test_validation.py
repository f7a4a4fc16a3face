"""Tests for repro.utils.validation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.utils.validation import (
    require_flag,
    require_in_range,
    require_integer,
    require_non_negative,
    require_positive,
    require_positive_probability,
    require_probability,
    require_probability_vector,
    require_real,
)


class TestRequirePositive:
    def test_accepts_positive(self):
        assert require_positive(2.5, "x") == 2.5

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_invalid(self, value):
        with pytest.raises(ValueError, match="x"):
            require_positive(value, "x")


class TestRequireNonNegative:
    def test_accepts_zero(self):
        assert require_non_negative(0.0, "x") == 0.0

    @pytest.mark.parametrize("value", [-0.1, math.nan, -math.inf])
    def test_rejects_invalid(self, value):
        with pytest.raises(ValueError):
            require_non_negative(value, "x")


class TestRequireProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert require_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, math.nan])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError):
            require_probability(value, "p")


class TestRequirePositiveProbability:
    @pytest.mark.parametrize("value", [1e-12, 0.5, 1.0])
    def test_accepts_half_open_unit_interval(self, value):
        assert require_positive_probability(value, "p") == value

    @pytest.mark.parametrize("value", [0.0, -0.01, 1.01, math.nan])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            require_positive_probability(value, "p")


class TestRequireProbabilityVector:
    def test_accepts_and_normalises(self):
        vector = require_probability_vector([0.25, 0.75], "p")
        assert vector.sum() == pytest.approx(1.0)

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            require_probability_vector([0.2, 0.2], "p")

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            require_probability_vector([-0.5, 1.5], "p")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            require_probability_vector([], "p")

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            require_probability_vector(np.ones((2, 2)) / 4, "p")

    def test_returns_exact_unit_sum(self):
        vector = require_probability_vector([1 / 3, 1 / 3, 1 / 3], "p")
        assert float(vector.sum()) == pytest.approx(1.0, abs=1e-15)


class TestRequireInRange:
    def test_inclusive_bounds(self):
        assert require_in_range(0.0, "x", 0.0, 1.0) == 0.0
        assert require_in_range(1.0, "x", 0.0, 1.0) == 1.0

    def test_exclusive_bounds_reject_endpoints(self):
        with pytest.raises(ValueError):
            require_in_range(0.0, "x", 0.0, 1.0, inclusive=False)

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            require_in_range(2.0, "x", 0.0, 1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            require_in_range(math.nan, "x", 0.0, 1.0)


class TestTypedValues:
    def test_integers(self):
        assert require_integer(3, "n") == 3
        assert type(require_integer(np.int64(3), "n")) is int
        for bad in (3.0, True, np.bool_(True), "3", None):
            with pytest.raises(ValueError, match="n must be an integer"):
                require_integer(bad, "n")

    def test_flags(self):
        assert require_flag(False, "f") is False
        assert require_flag(np.bool_(True), "f") is True
        for bad in ("no", 0, 1, None):
            with pytest.raises(ValueError, match="f must be true or false"):
                require_flag(bad, "f")

    def test_reals(self):
        assert require_real(2, "r") == 2.0
        assert require_real(np.float32(0.5), "r") == 0.5
        for bad in ("x", True, None, [1.0]):
            with pytest.raises(ValueError, match="r must be a real number"):
                require_real(bad, "r")
        for bad in (math.nan, math.inf, 10**400):
            with pytest.raises(ValueError, match="r must be finite"):
                require_real(bad, "r")

    def test_positive_rejects_ints_beyond_float_range(self):
        with pytest.raises(ValueError, match="x"):
            require_positive(10**400, "x")
