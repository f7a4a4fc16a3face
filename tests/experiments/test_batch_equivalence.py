"""Equivalence suite: the trial-batched engine against the pinned stream.

The trial-batched engine (:mod:`repro.experiments.batch`) runs all of an
experiment's trials in lockstep through ``(trials, users)`` tensors.  Its
contract is that every batched trial row is **bit-identical** to its serial
:func:`~repro.experiments.runner.run_trial` twin:

* at 200 users the batched experiment must reproduce the same golden
  SHA-256 digests as the serial engine
  (:data:`tests.experiments.harness.ENGINE_GOLDEN` — one set of hashes
  pinning four engine generations);
* at paper scale (1000 users, 5 trials) batched and serial runs must agree
  array-for-array across every ``history_mode`` × ``retrain_mode`` cell;
* the fused fast paths (stacked decide/retrain for the default stack) and
  the generic per-trial fallback (custom policy factories) must both hold
  the contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ai_system import CreditScoringSystem
from repro.core.history import FullHistoryRequiredError
from repro.credit.lender import Lender
from repro.data.census import Race
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_experiment, run_trial

from tests.experiments.harness import (
    ENGINE_GOLDEN,
    assert_full_trials_identical as _assert_full_trials_identical,
    assert_group_series_identical as _assert_group_series_identical,
    experiment_digests,
)


@pytest.fixture(scope="module")
def small_config(golden_config) -> CaseStudyConfig:
    return golden_config


@pytest.fixture(scope="module")
def paper_config() -> CaseStudyConfig:
    return CaseStudyConfig()  # 1000 users, 5 trials — the paper's scale


class TestBatchedEngineGoldens:
    """The batched engine reproduces the pinned golden stream exactly."""

    def test_batched_experiment_matches_engine_goldens(self, small_config):
        result = run_experiment(small_config, execution="batch")
        assert experiment_digests(result) == ENGINE_GOLDEN

    def test_batched_incremental_metrics_match_recompute(self, small_config):
        # The histories the batched engine records into must satisfy their
        # own cross-check recomputations bit for bit.
        result = run_experiment(small_config, execution="batch")
        for trial in result.trials:
            history = trial.history
            assert np.array_equal(
                history.running_default_rates(),
                history.recompute_running_default_rates(),
            )
            assert np.array_equal(
                history.running_action_averages(),
                history.recompute_running_action_averages(),
            )
            assert np.array_equal(
                history.approval_rates(), history.recompute_approval_rates()
            )


class TestBatchedMatchesSerialAcrossModes:
    """Paper scale, every history_mode x retrain_mode cell, bit for bit."""

    @pytest.mark.parametrize("retrain_mode", ["exact", "compressed"])
    def test_full_mode(self, paper_config, retrain_mode):
        serial = run_experiment(paper_config, retrain_mode=retrain_mode)
        batched = run_experiment(
            paper_config, retrain_mode=retrain_mode, execution="batch"
        )
        assert len(serial.trials) == len(batched.trials) == paper_config.num_trials
        for serial_trial, batched_trial in zip(serial.trials, batched.trials):
            _assert_full_trials_identical(serial_trial, batched_trial)
            _assert_group_series_identical(serial_trial, batched_trial)

    @pytest.mark.parametrize("retrain_mode", ["exact", "compressed"])
    def test_aggregate_mode(self, paper_config, retrain_mode):
        serial = run_experiment(
            paper_config, history_mode="aggregate", retrain_mode=retrain_mode
        )
        batched = run_experiment(
            paper_config,
            history_mode="aggregate",
            retrain_mode=retrain_mode,
            execution="batch",
        )
        for serial_trial, batched_trial in zip(serial.trials, batched.trials):
            # Aggregate on both sides: also every aggregate-only series.
            _assert_group_series_identical(serial_trial, batched_trial)
            with pytest.raises(FullHistoryRequiredError):
                batched_trial.history.decisions_matrix()

    def test_warm_start_cell(self, small_config):
        serial = run_experiment(
            small_config, retrain_mode="compressed", warm_start=True
        )
        batched = run_experiment(
            small_config, retrain_mode="compressed", warm_start=True, execution="batch"
        )
        for serial_trial, batched_trial in zip(serial.trials, batched.trials):
            _assert_full_trials_identical(serial_trial, batched_trial)


class TestBatchedRunnerSurface:
    """Knob plumbing and the generic (non-default-stack) fallback."""

    def test_custom_policy_factory_takes_generic_path(self, small_config):
        # A subclass breaks the exact-type fast-path check, sending the run
        # down the per-trial decide/update calls — still bit-identical.
        class LoggingLender(Lender):
            pass

        def factory(config, population):
            return CreditScoringSystem(
                LoggingLender(
                    cutoff=config.cutoff, warm_up_rounds=config.warm_up_rounds
                )
            )

        serial = run_experiment(small_config, policy_factory=factory)
        batched = run_experiment(
            small_config, policy_factory=factory, execution="batch"
        )
        for serial_trial, batched_trial in zip(serial.trials, batched.trials):
            _assert_full_trials_identical(serial_trial, batched_trial)
        # The subclassed lender behaves like the default one, so the run
        # must also equal the fast-path batched result.
        fast = run_experiment(small_config, execution="batch")
        for fast_trial, batched_trial in zip(fast.trials, batched.trials):
            _assert_full_trials_identical(fast_trial, batched_trial)

    def test_config_knob_enables_batching(self, small_config):
        config = CaseStudyConfig(
            num_users=small_config.num_users,
            num_trials=small_config.num_trials,
            execution="batch",
        )
        batched = run_experiment(config)
        serial = run_experiment(small_config)
        for serial_trial, batched_trial in zip(serial.trials, batched.trials):
            assert np.array_equal(
                serial_trial.user_default_rates, batched_trial.user_default_rates
            )

    def test_batch_mode_ignores_the_pool_worker_hint(self, small_config):
        result = run_experiment(small_config, execution="batch", max_workers=2)
        serial = run_experiment(small_config)
        for serial_trial, batched_trial in zip(serial.trials, result.trials):
            assert np.array_equal(
                serial_trial.user_default_rates, batched_trial.user_default_rates
            )

    def test_single_trial_batch(self):
        config = CaseStudyConfig(num_users=100, num_trials=1)
        batched = run_experiment(config, execution="batch")
        reference = run_trial(config, trial_index=0)
        assert np.array_equal(
            batched.trials[0].user_default_rates, reference.user_default_rates
        )

    def test_keep_trials_false_accumulates_moments(self, small_config):
        kept = run_experiment(small_config, execution="batch")
        dropped = run_experiment(small_config, execution="batch", keep_trials=False)
        assert dropped.trials == ()
        for race in Race:
            # Welford vs batch mean: equal up to float reassociation.
            assert np.allclose(
                kept.group_mean_series()[race],
                dropped.group_mean_series()[race],
                rtol=0.0,
                atol=1e-12,
            )
        assert np.allclose(
            np.concatenate([kept.group_std_series()[race] for race in Race]),
            np.concatenate([dropped.group_std_series()[race] for race in Race]),
        )

    def test_invalid_history_mode_is_rejected(self, small_config):
        with pytest.raises(ValueError):
            run_experiment(small_config, execution="batch", history_mode="bogus")
