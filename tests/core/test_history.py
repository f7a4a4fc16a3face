"""Tests for repro.core.history."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.history import SimulationHistory, StepRecord
from repro.data.census import Race


def make_history() -> SimulationHistory:
    """Two users, three steps, hand-written decisions/actions."""
    history = SimulationHistory()
    decisions = [np.array([1.0, 1.0]), np.array([1.0, 0.0]), np.array([1.0, 1.0])]
    actions = [np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    for step, (decision, action) in enumerate(zip(decisions, actions)):
        history.append(
            StepRecord(
                step=step,
                public_features={"income": np.array([30.0 + step, 12.0])},
                decisions=decision,
                actions=action,
                observation={"user_default_rates": np.array([0.1, 0.5]), "portfolio_rate": 0.3},
            )
        )
    return history


class TestBasicAccessors:
    def test_counts(self):
        history = make_history()
        assert history.num_steps == 3
        assert history.num_users == 2

    def test_decision_and_action_matrices(self):
        history = make_history()
        assert history.decisions_matrix().shape == (3, 2)
        assert history.actions_matrix().shape == (3, 2)

    def test_public_feature_matrix(self):
        history = make_history()
        incomes = history.public_feature_matrix("income")
        np.testing.assert_allclose(incomes[:, 0], [30.0, 31.0, 32.0])

    def test_missing_public_feature_raises(self):
        with pytest.raises(KeyError):
            make_history().public_feature_matrix("wealth")

    def test_observation_series_per_user(self):
        series = make_history().observation_series("user_default_rates")
        assert series.shape == (3, 2)

    def test_observation_series_scalar(self):
        series = make_history().observation_series("portfolio_rate")
        np.testing.assert_allclose(series, [0.3, 0.3, 0.3])

    def test_missing_observation_raises(self):
        with pytest.raises(KeyError):
            make_history().observation_series("unknown")

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            SimulationHistory().decisions_matrix()
        with pytest.raises(ValueError):
            SimulationHistory().num_users


class TestDerivedSeries:
    def test_running_action_averages_are_cesaro_averages(self):
        history = make_history()
        averages = history.running_action_averages()
        np.testing.assert_allclose(averages[:, 0], [1.0, 1.0, 2.0 / 3.0])

    def test_running_default_rates_match_hand_computation(self):
        history = make_history()
        rates = history.running_default_rates()
        # User 0: offered 3 times, repaid twice -> final ADR 1/3.
        assert rates[-1, 0] == pytest.approx(1.0 / 3.0)
        # User 1: offered at steps 0 and 2, repaid once -> final ADR 1/2.
        assert rates[-1, 1] == pytest.approx(0.5)

    def test_default_rate_is_zero_before_any_offer(self):
        history = SimulationHistory()
        history.append(
            StepRecord(
                step=0,
                public_features={},
                decisions=np.array([0.0, 1.0]),
                actions=np.array([0.0, 1.0]),
                observation={},
            )
        )
        rates = history.running_default_rates()
        assert rates[0, 0] == 0.0
        assert rates[0, 1] == 0.0

    def test_group_series_averages_within_groups(self):
        history = make_history()
        rates = history.running_default_rates()
        groups = {Race.BLACK: np.array([0]), Race.WHITE: np.array([1])}
        series = history.group_series(rates, groups)
        np.testing.assert_allclose(series[Race.BLACK], rates[:, 0])

    def test_group_series_empty_group_is_nan(self):
        history = make_history()
        series = history.group_series(
            history.running_default_rates(), {Race.ASIAN: np.array([], dtype=int)}
        )
        assert np.all(np.isnan(series[Race.ASIAN]))

    def test_approval_rates(self):
        history = make_history()
        np.testing.assert_allclose(history.approval_rates(), [1.0, 0.5, 1.0])
