"""Tests for repro.baselines (uniform limit, income multiple, static, parity)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    GroupThresholdPolicy,
    IncomeMultiplePolicy,
    StaticCreditScoringSystem,
    UniformLimitPolicy,
)
from repro.core.ai_system import AISystem, suffstats_recipe
from repro.credit.lender import Lender
from repro.data.census import Race


def observation_for(rates):
    rates_array = np.asarray(rates, dtype=float)
    return {"user_default_rates": rates_array, "portfolio_rate": float(rates_array.mean())}


class TestUniformLimitPolicy:
    def test_users_without_defaults_are_approved(self):
        policy = UniformLimitPolicy()
        decisions = policy.decide(
            {"income": np.array([10.0, 200.0])}, observation_for([0.0, 0.0]), 0
        )
        np.testing.assert_array_equal(decisions, [1.0, 1.0])

    def test_any_default_history_means_denial(self):
        policy = UniformLimitPolicy()
        decisions = policy.decide(
            {"income": np.array([10.0, 200.0])}, observation_for([0.2, 0.0]), 0
        )
        np.testing.assert_array_equal(decisions, [0.0, 1.0])

    def test_tolerance_forgives_small_rates(self):
        policy = UniformLimitPolicy(max_default_rate=0.3)
        decisions = policy.decide(
            {"income": np.array([10.0])}, observation_for([0.2]), 0
        )
        assert decisions[0] == 1.0

    def test_income_is_ignored(self):
        policy = UniformLimitPolicy()
        low = policy.decide({"income": np.array([1.0])}, observation_for([0.0]), 0)
        high = policy.decide({"income": np.array([500.0])}, observation_for([0.0]), 0)
        assert low[0] == high[0] == 1.0

    def test_update_is_a_no_op(self):
        policy = UniformLimitPolicy()
        assert policy.update({}, np.ones(1), np.ones(1), observation_for([0.0]), 0) is None

    def test_rejects_invalid_tolerance(self):
        with pytest.raises(ValueError):
            UniformLimitPolicy(max_default_rate=1.5)

    def test_satisfies_the_protocol(self):
        assert isinstance(UniformLimitPolicy(), AISystem)


class TestIncomeMultiplePolicy:
    def test_default_approves_everyone(self):
        policy = IncomeMultiplePolicy()
        decisions = policy.decide(
            {"income": np.array([1.0, 500.0])}, observation_for([0.9, 0.0]), 0
        )
        np.testing.assert_array_equal(decisions, [1.0, 1.0])

    def test_minimum_income_excludes_the_poorest(self):
        policy = IncomeMultiplePolicy(minimum_income=15.0)
        decisions = policy.decide(
            {"income": np.array([10.0, 20.0])}, observation_for([0.0, 0.0]), 0
        )
        np.testing.assert_array_equal(decisions, [0.0, 1.0])

    def test_optional_default_rate_cap(self):
        policy = IncomeMultiplePolicy(max_default_rate=0.5)
        decisions = policy.decide(
            {"income": np.array([50.0, 50.0])}, observation_for([0.9, 0.1]), 0
        )
        np.testing.assert_array_equal(decisions, [0.0, 1.0])

    def test_rejects_negative_minimum_income(self):
        with pytest.raises(ValueError):
            IncomeMultiplePolicy(minimum_income=-1.0)

    def test_rejects_invalid_cap(self):
        with pytest.raises(ValueError):
            IncomeMultiplePolicy(max_default_rate=2.0)

    def test_satisfies_the_protocol(self):
        assert isinstance(IncomeMultiplePolicy(), AISystem)


class TestStaticCreditScoringSystem:
    def _training_batch(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        incomes = rng.uniform(5.0, 100.0, n)
        decisions = np.ones(n)
        actions = (incomes > 20.0).astype(float)
        return incomes, decisions, actions

    def test_trains_only_the_configured_number_of_times(self):
        system = StaticCreditScoringSystem(Lender(warm_up_rounds=1), training_rounds=1)
        incomes, decisions, actions = self._training_batch()
        observation = observation_for(np.zeros(incomes.size))
        system.update({"income": incomes}, decisions, actions, observation, 0)
        card_after_first = system.lender.scorecard
        system.update({"income": incomes}, decisions, 1.0 - actions, observation, 1)
        assert system.lender.scorecard is card_after_first
        assert system.updates_done == 1

    def test_multiple_training_rounds_are_honoured(self):
        system = StaticCreditScoringSystem(Lender(warm_up_rounds=1), training_rounds=2)
        incomes, decisions, actions = self._training_batch()
        observation = observation_for(np.zeros(incomes.size))
        system.update({"income": incomes}, decisions, actions, observation, 0)
        first_card = system.lender.scorecard
        system.update({"income": incomes}, decisions, actions, observation, 1)
        assert system.lender.scorecard is not first_card
        assert system.updates_done == 2

    def test_rejects_zero_training_rounds(self):
        with pytest.raises(ValueError):
            StaticCreditScoringSystem(training_rounds=0)

    def test_exported_state_keeps_the_spent_budget(self):
        system = StaticCreditScoringSystem(Lender(warm_up_rounds=1), training_rounds=1)
        incomes, decisions, actions = self._training_batch()
        observation = observation_for(np.zeros(incomes.size))
        system.update({"income": incomes}, decisions, actions, observation, 0)
        restored = StaticCreditScoringSystem(Lender(warm_up_rounds=1))
        restored.import_state(system.export_state())
        assert restored.updates_done == 1
        card = restored.lender.scorecard
        restored.update({"income": incomes}, decisions, 1.0 - actions, observation, 1)
        assert restored.lender.scorecard is card

    def test_does_not_claim_the_suffstats_protocol(self):
        # A count-table refit would bypass the training budget.
        system = StaticCreditScoringSystem(Lender(retrain_mode="compressed"))
        assert suffstats_recipe(system) is None
        assert not hasattr(system, "update_from_suffstats")

    def test_satisfies_the_protocol(self):
        assert isinstance(StaticCreditScoringSystem(), AISystem)


class TestGroupThresholdPolicy:
    def _make_policy(self, target=0.5):
        groups = {Race.BLACK: np.arange(0, 50), Race.WHITE: np.arange(50, 100)}
        return GroupThresholdPolicy(groups, target_approval_rate=target, lender=Lender(warm_up_rounds=1)), groups

    def test_warm_up_round_approves_everyone(self):
        policy, _groups = self._make_policy()
        decisions = policy.decide(
            {"income": np.full(100, 50.0)}, observation_for(np.zeros(100)), 0
        )
        np.testing.assert_array_equal(decisions, np.ones(100))

    def test_post_training_approval_rates_match_the_target_per_group(self):
        policy, groups = self._make_policy(target=0.5)
        rng = np.random.default_rng(0)
        incomes = np.concatenate([rng.uniform(5.0, 30.0, 50), rng.uniform(40.0, 150.0, 50)])
        observation = observation_for(np.zeros(100))
        decisions = policy.decide({"income": incomes}, observation, 0)  # warm-up
        actions = (incomes > 20.0).astype(float)
        policy.update({"income": incomes}, decisions, actions, observation, 0)
        new_observation = observation_for(1.0 - actions)
        new_decisions = policy.decide({"income": incomes}, new_observation, 1)
        for indices in groups.values():
            assert new_decisions[indices].mean() == pytest.approx(0.5, abs=0.1)

    def test_rejects_empty_groups(self):
        with pytest.raises(ValueError):
            GroupThresholdPolicy({}, target_approval_rate=0.5)

    def test_rejects_invalid_target(self):
        with pytest.raises(ValueError):
            GroupThresholdPolicy({Race.BLACK: np.array([0])}, target_approval_rate=0.0)

    def test_satisfies_the_protocol(self):
        policy, _ = self._make_policy()
        assert isinstance(policy, AISystem)
