"""Tests for repro.credit.default_rates (equation 12)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.credit.default_rates import DefaultRateTracker
from repro.data.census import Race


class TestRecordingAndRates:
    def test_initial_rates_equal_the_prior(self):
        tracker = DefaultRateTracker(3, prior_rate=0.2)
        np.testing.assert_allclose(tracker.user_rates(), [0.2, 0.2, 0.2])

    def test_single_step_rates(self):
        tracker = DefaultRateTracker(3)
        tracker.record(decisions=[1, 1, 0], repayments=[1, 0, 0])
        np.testing.assert_allclose(tracker.user_rates(), [0.0, 1.0, 0.0])

    def test_rates_accumulate_over_steps(self):
        tracker = DefaultRateTracker(1)
        tracker.record([1], [1])
        tracker.record([1], [0])
        assert tracker.user_rates()[0] == pytest.approx(0.5)
        tracker.record([1], [0])
        assert tracker.user_rates()[0] == pytest.approx(2.0 / 3.0)

    def test_denied_steps_do_not_change_the_rate(self):
        tracker = DefaultRateTracker(1)
        tracker.record([1], [0])
        rate_before = tracker.user_rates()[0]
        tracker.record([0], [0])
        assert tracker.user_rates()[0] == pytest.approx(rate_before)

    def test_steps_recorded_counter(self):
        tracker = DefaultRateTracker(2)
        tracker.record([1, 1], [1, 1])
        tracker.record([1, 0], [0, 0])
        assert tracker.steps_recorded == 2

    def test_offers_and_repayments_accessors(self):
        tracker = DefaultRateTracker(2)
        tracker.record([1, 1], [1, 0])
        np.testing.assert_allclose(tracker.offers, [1, 1])
        np.testing.assert_allclose(tracker.repayments, [1, 0])


class TestGroupRates:
    def test_group_rates_average_member_rates(self):
        tracker = DefaultRateTracker(4)
        tracker.record([1, 1, 1, 1], [1, 0, 1, 1])
        groups = {Race.BLACK: np.array([0, 1]), Race.WHITE: np.array([2, 3])}
        rates = tracker.group_rates(groups)
        assert rates[Race.BLACK] == pytest.approx(0.5)
        assert rates[Race.WHITE] == pytest.approx(0.0)

    def test_empty_group_reports_nan(self):
        tracker = DefaultRateTracker(2)
        tracker.record([1, 1], [1, 1])
        rates = tracker.group_rates({Race.ASIAN: np.array([], dtype=int)})
        assert np.isnan(rates[Race.ASIAN])


class TestPortfolioRate:
    def test_pooled_rate(self):
        tracker = DefaultRateTracker(2)
        tracker.record([1, 1], [1, 0])
        assert tracker.portfolio_rate() == pytest.approx(0.5)

    def test_no_offers_reports_prior(self):
        tracker = DefaultRateTracker(2, prior_rate=0.3)
        assert tracker.portfolio_rate() == pytest.approx(0.3)


class TestValidation:
    def test_rejects_non_positive_population(self):
        with pytest.raises(ValueError):
            DefaultRateTracker(0)

    def test_rejects_bad_prior(self):
        with pytest.raises(ValueError):
            DefaultRateTracker(2, prior_rate=1.5)

    def test_rejects_wrong_length_inputs(self):
        tracker = DefaultRateTracker(3)
        with pytest.raises(ValueError):
            tracker.record([1, 1], [1, 1])

    @pytest.mark.parametrize("value", [2.0, 0.5, float("nan")])
    def test_rejects_non_binary_inputs(self, value):
        tracker = DefaultRateTracker(2)
        with pytest.raises(ValueError, match="must be 0/1"):
            tracker.record([1.0, value], [1.0, 0.0])
        with pytest.raises(ValueError, match="must be 0/1"):
            tracker.record([1.0, 1.0], [1.0, value])
        assert tracker.steps_recorded == 0

    def test_accepts_negative_zero(self):
        tracker = DefaultRateTracker(2)
        tracker.record([1.0, -0.0], [-0.0, -0.0])
        np.testing.assert_array_equal(tracker.offers, [1.0, 0.0])
        np.testing.assert_array_equal(tracker.user_rates(), [1.0, 0.0])

    def test_rejects_repayment_without_offer(self):
        tracker = DefaultRateTracker(2)
        with pytest.raises(ValueError):
            tracker.record([0, 1], [1, 1])
