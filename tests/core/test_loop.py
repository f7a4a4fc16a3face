"""Tests for repro.core.loop (the closed-loop orchestrator)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ai_system import (
    ConstantDecisionSystem,
    CreditScoringSystem,
    suffstats_recipe,
)
from repro.core.filters import CumulativeAverageFilter, DefaultRateFilter
from repro.core.history import SimulationHistory
from repro.core.loop import ClosedLoop
from repro.core.population import CreditPopulation
from repro.credit.lender import Lender
from repro.data.synthetic import PopulationSpec, generate_population


@pytest.fixture
def credit_loop(income_table):
    population = CreditPopulation(
        population=generate_population(PopulationSpec(size=60), 1),
        income_table=income_table,
    )
    return ClosedLoop(
        ai_system=CreditScoringSystem(Lender(warm_up_rounds=2)),
        population=population,
        loop_filter=DefaultRateFilter(num_users=60),
    )


class TestRun:
    def test_history_has_one_record_per_step(self, credit_loop):
        history = credit_loop.run(5, rng=0)
        assert history.num_steps == 5
        assert history.num_users == 60

    def test_run_is_reproducible_with_a_seed(self, income_table):
        def build():
            population = CreditPopulation(
                population=generate_population(PopulationSpec(size=40), 3),
                income_table=income_table,
            )
            return ClosedLoop(
                ai_system=CreditScoringSystem(Lender(warm_up_rounds=2)),
                population=population,
                loop_filter=DefaultRateFilter(num_users=40),
            )

        first = build().run(6, rng=42)
        second = build().run(6, rng=42)
        np.testing.assert_array_equal(first.decisions_matrix(), second.decisions_matrix())
        np.testing.assert_array_equal(first.actions_matrix(), second.actions_matrix())

    def test_warm_up_steps_approve_everyone(self, credit_loop):
        history = credit_loop.run(4, rng=0)
        decisions = history.decisions_matrix()
        np.testing.assert_array_equal(decisions[0], np.ones(60))
        np.testing.assert_array_equal(decisions[1], np.ones(60))

    def test_running_in_chunks_matches_incremental_history(self, income_table):
        population = CreditPopulation(
            population=generate_population(PopulationSpec(size=30), 5),
            income_table=income_table,
        )
        loop = ClosedLoop(
            ai_system=CreditScoringSystem(Lender(warm_up_rounds=2)),
            population=population,
            loop_filter=DefaultRateFilter(num_users=30),
        )
        history = loop.run(3, rng=7)
        history = loop.run(2, rng=8, history=history)
        assert history.num_steps == 5
        assert [record.step for record in history.records] == [0, 1, 2, 3, 4]

    def test_zero_steps_returns_empty_history(self, credit_loop):
        history = credit_loop.run(0, rng=0)
        assert history.num_steps == 0

    def test_negative_steps_are_rejected(self, credit_loop):
        with pytest.raises(ValueError):
            credit_loop.run(-1)

    def test_accessors_expose_the_boxes(self, credit_loop):
        assert credit_loop.ai_system is not None
        assert credit_loop.population is not None
        assert credit_loop.loop_filter is not None


class TestStepValidation:
    def test_wrong_decision_length_is_detected(self, income_table):
        class BrokenSystem(ConstantDecisionSystem):
            def decide(self, public_features, observation, k):
                return np.ones(3)  # wrong size on purpose

        population = CreditPopulation(
            population=generate_population(PopulationSpec(size=10), 2),
            income_table=income_table,
        )
        loop = ClosedLoop(
            ai_system=BrokenSystem(),
            population=population,
            loop_filter=DefaultRateFilter(num_users=10),
        )
        with pytest.raises(ValueError, match="one decision per user"):
            loop.run(1, rng=0)

    def test_observation_in_record_is_post_update(self, credit_loop):
        history = credit_loop.run(1, rng=0)
        record = history.records[0]
        # After the first step every user was offered a mortgage, so the
        # recorded observation reflects those offers.
        rates = record.observation["user_default_rates"]
        actions = record.actions
        np.testing.assert_allclose(rates, 1.0 - actions)

    def test_retrain_false_keeps_the_policy_fixed(self, income_table):
        population = CreditPopulation(
            population=generate_population(PopulationSpec(size=30), 9),
            income_table=income_table,
        )
        system = CreditScoringSystem(Lender(warm_up_rounds=30))
        loop = ClosedLoop(
            ai_system=system,
            population=population,
            loop_filter=DefaultRateFilter(num_users=30),
            retrain=False,
        )
        loop.run(3, rng=0)
        assert system.lender.scorecard is None


class TestGenericLoop:
    def test_constant_policy_with_cumulative_filter(self, income_table):
        population = CreditPopulation(
            population=generate_population(PopulationSpec(size=20), 11),
            income_table=income_table,
        )
        loop = ClosedLoop(
            ai_system=ConstantDecisionSystem(decision=1),
            population=population,
            loop_filter=CumulativeAverageFilter(num_users=20),
        )
        history = loop.run(4, rng=1)
        assert history.num_steps == 4
        observation = history.records[-1].observation
        assert "average_action" in observation


class TestStreamBaseResolution:
    """Fresh runs re-resolve randomness; only continuations reuse the base."""

    def _build(self):
        from repro.core.ai_system import CreditScoringSystem
        from repro.core.filters import DefaultRateFilter
        from repro.core.population import CreditPopulation
        from repro.credit.lender import Lender
        from repro.data.synthetic import PopulationSpec, generate_population

        population = CreditPopulation(
            population=generate_population(
                PopulationSpec(size=30), np.random.default_rng(0)
            )
        )
        return ClosedLoop(
            ai_system=CreditScoringSystem(Lender(warm_up_rounds=2)),
            population=population,
            loop_filter=DefaultRateFilter(num_users=30),
        )

    def test_repeated_entropy_steps_are_independent(self):
        loop = self._build()
        first = loop.step(0)
        second = loop.step(0)
        assert not np.array_equal(
            first.public_features["income"], second.public_features["income"]
        )

    def test_fresh_runs_with_a_generator_are_independent(self):
        generator = np.random.default_rng(12)
        loop = self._build()
        first = loop.run(3, rng=generator)
        second = self._build().run(3, rng=generator)
        assert not np.array_equal(
            first.public_feature_matrix("income"),
            second.public_feature_matrix("income"),
        )

    def test_integer_seed_always_resets_the_base(self):
        first = self._build().run(3, rng=5)
        second = self._build().run(3, rng=5)
        assert np.array_equal(
            first.public_feature_matrix("income"),
            second.public_feature_matrix("income"),
        )


class TestSuffstatsProtocolResolution:
    """The suffstats protocol engages only on a complete, matching spec.

    ``suffstats_recipe`` is the one rule the shard pool and the
    trial-batched engine share.
    """

    def test_compressed_credit_system_resolves_a_spec(self):
        system = CreditScoringSystem(Lender(retrain_mode="compressed"))
        assert suffstats_recipe(system) == {
            "feature": "income",
            "income_threshold": 15.0,
        }

    def test_exact_system_never_engages_the_protocol(self):
        assert suffstats_recipe(CreditScoringSystem(Lender())) is None

    def test_incomplete_spec_is_rejected_at_eligibility_time(self):
        """Regression: a spec missing income_threshold used to pass the
        guard and KeyError inside a worker process mid-trial."""

        class IncompleteSpecSystem(CreditScoringSystem):
            @property
            def suffstats_spec(self):
                return {"feature": "income"}

        system = IncompleteSpecSystem(Lender(retrain_mode="compressed"))
        assert suffstats_recipe(system) is None
