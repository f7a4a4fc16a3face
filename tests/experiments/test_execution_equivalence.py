"""Cross-layout differential suite: every ``execution`` mode, one stream.

The execution planner (:mod:`repro.core.planner`) composes the serial
loop, the trial-batched tensor engine, the trial process pool and the
shared-memory shard pool behind one knob.  Its contract is that the knob
is *purely* a wall-clock choice: whatever layout the planner picks — on
whatever machine — the trajectories are bit-identical to the serial
reference pinned by :data:`tests.experiments.harness.ENGINE_GOLDEN`.

This suite is the consolidated harness behind that claim:

* every ``execution`` mode reproduces the engine goldens, in both history
  modes (the CI execution-matrix job runs one mode per cell via
  ``REPRO_TEST_EXECUTION_MODE``; without it every mode runs);
* ``execution="auto"`` is bit-identical across *core counts* (the plan
  changes, the stream must not) — the property that makes the knob safe
  to bake into configs shared between laptops and CI runners;
* the config knob, the ``run_experiment`` override and ``run_trial``
  route through the same planner;
* forbidden combinations fail at configuration time with actionable
  errors, not at step 900 of a trial;
* a policy returning non-0/1 decisions fails with the filter's own
  error in every layout;
* every registered campaign policy arm, in both retrain modes, matches
  its serial run in every layout;
* ``execution`` is the only layout knob: no entry point keeps a legacy
  layout switch beside it.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.campaign.spec import (
    ArmRef,
    CampaignSpec,
    build_policy_factory,
    policy_names,
)
from repro.core import planner
from repro.core.loop import ClosedLoop
from repro.core.streaming import AggregateHistory
from repro.experiments.config import CaseStudyConfig
from repro.experiments.runner import run_experiment, run_trial

from tests.experiments.harness import (
    ENGINE_GOLDEN,
    assert_experiments_identical,
    digest,
    execution_modes,
    expected_group_digests,
    experiment_digests,
    group_digests,
)

EXECUTIONS = execution_modes()


class _ConstantSystem:
    """An AI system returning one fixed decision value for every user."""

    def __init__(self, value: float) -> None:
        self._value = value

    def decide(self, public_features, observation, k):
        return np.full(public_features["income"].shape[0], self._value)

    def update(self, public_features, decisions, actions, observation, k):
        return None


def _constant_policy(value, config, population):
    """Module-level (picklable) policy factory, so pooled layouts use workers."""
    return _ConstantSystem(value)


class TestExecutionModesMatchGoldens:
    """Each planner-chosen layout reproduces the pinned golden stream."""

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_full_history_matches_engine_goldens(self, golden_config, execution):
        result = run_experiment(golden_config, execution=execution)
        assert experiment_digests(result) == ENGINE_GOLDEN

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_aggregate_history_matches_group_goldens(self, golden_config, execution):
        result = run_experiment(
            golden_config, history_mode="aggregate", execution=execution
        )
        observed = {}
        expected = {}
        for index, trial in enumerate(result.trials):
            assert isinstance(trial.history, AggregateHistory)
            observed.update(group_digests(trial, index, portfolio=True))
            expected.update(expected_group_digests(index, portfolio=True))
        assert observed == expected

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_run_trial_matches_trial0_goldens(self, golden_config, execution):
        if execution == "batch":
            pytest.skip("run_trial rejects the batch mode (covered below)")
        trial = run_trial(golden_config, trial_index=0, execution=execution)
        assert (
            digest(trial.history.decisions_matrix())
            == ENGINE_GOLDEN["trial0_decisions"]
        )
        assert digest(trial.history.actions_matrix()) == ENGINE_GOLDEN["trial0_actions"]
        assert digest(trial.user_default_rates) == ENGINE_GOLDEN["trial0_user_rates"]

    def test_compressed_retrain_composes_with_auto(
        self, golden_config, monkeypatch
    ):
        serial = run_experiment(golden_config, retrain_mode="compressed")
        monkeypatch.setattr(planner, "_detect_cpu_count", lambda: 4)
        auto = run_experiment(
            golden_config, retrain_mode="compressed", execution="auto"
        )
        assert_experiments_identical(serial, auto)


class TestAutoIsPureWallClock:
    """The auto plan varies with the host; the stream must not."""

    @pytest.mark.parametrize("cores", [1, 4, 16])
    def test_bit_identical_across_core_counts(
        self, golden_config, golden_serial_result, cores, monkeypatch
    ):
        monkeypatch.setattr(planner, "_detect_cpu_count", lambda: cores)
        result = run_experiment(golden_config, execution="auto")
        assert_experiments_identical(golden_serial_result, result)


class TestKnobPlumbing:
    """Config knob, runner override and shard hints hit the same planner."""

    def test_config_knob_routes_through_planner(
        self, golden_config, golden_serial_result
    ):
        config = replace(golden_config, execution="auto")
        assert_experiments_identical(golden_serial_result, run_experiment(config))

    def test_shard_hint_is_honoured_bit_identically(
        self, golden_config, golden_serial_result
    ):
        config = replace(golden_config, num_shards=4)
        result = run_experiment(config, execution="shard")
        assert_experiments_identical(golden_serial_result, result)

    def test_run_trial_shard_matches_experiment_shard(self, golden_config):
        trial = run_trial(golden_config, trial_index=0, execution="shard")
        assert np.array_equal(
            trial.user_default_rates,
            run_trial(golden_config, trial_index=0).user_default_rates,
        )


class TestForbiddenCombosFailAtConfigTime:
    """Bad knob combinations are rejected before any work starts."""

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="execution"):
            CaseStudyConfig(execution="turbo")

    @pytest.mark.parametrize(
        "legacy", [{"trial_batch": True}, {"parallel": True}, {"shard_parallel": True}]
    )
    def test_legacy_switches_are_rejected_with_execution(self, legacy):
        with pytest.raises(TypeError, match=next(iter(legacy))):
            CaseStudyConfig(execution="auto", **legacy)

    def test_batch_mode_rejects_checkpointing(self, tmp_path):
        with pytest.raises(ValueError, match="incompatible with checkpointing"):
            CaseStudyConfig(
                execution="batch",
                checkpoint_dir=str(tmp_path),
                checkpoint_every=5,
            )

    def test_runner_override_rejects_legacy_overrides(self, golden_config):
        with pytest.raises(TypeError, match="parallel"):
            run_experiment(golden_config, execution="auto", parallel=True)
        with pytest.raises(TypeError, match="trial_batch"):
            run_experiment(golden_config, execution="serial", trial_batch=True)

    def test_no_entry_point_keeps_a_legacy_layout_parameter(self):
        legacy = {"parallel", "trial_batch", "shard_parallel", "shard_transport"}
        for entry in (run_trial, run_experiment, planner.validate_execution_settings):
            assert not legacy & set(inspect.signature(entry).parameters), entry
        for record in (CaseStudyConfig, CampaignSpec):
            assert not legacy & {field.name for field in fields(record)}, record
        # The engine-level loop keeps its concrete shard switches (a plan's
        # fields), but neither the transport nor the refit transport (count
        # tables vs rows, once ``retrain_mode``) is selectable.
        loop_parameters = inspect.signature(ClosedLoop.run).parameters
        assert "shard_transport" not in loop_parameters
        assert "retrain_mode" not in loop_parameters

    def test_serial_is_the_default_layout(self):
        assert CaseStudyConfig().execution == "serial"

    def test_run_trial_rejects_batch_mode(self, golden_config):
        with pytest.raises(ValueError, match="run_experiment"):
            run_trial(golden_config, trial_index=0, execution="batch")


class TestNonBinaryDecisions:
    """Every layout rejects a non-0/1 policy with the filter's own error."""

    # The pooled layouts first retry, then fall back to the serial path,
    # warning on each step of the way; the verdict must not change.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [0.7, 1.5])
    @pytest.mark.parametrize("execution", ["serial", "batch", "pool", "shard"])
    def test_rejected_in_every_mode(self, execution, value):
        config = CaseStudyConfig(num_users=40, num_trials=2)
        with pytest.raises(ValueError, match="must be 0/1"):
            run_experiment(
                config,
                policy_factory=functools.partial(_constant_policy, value),
                execution=execution,
            )


@functools.lru_cache(maxsize=None)
def _serial_arm_run(arm: str, retrain_mode: str):
    """The serial reference run of one policy arm (cached across layouts)."""
    return run_experiment(
        _ARM_CONFIG,
        policy_factory=build_policy_factory(ArmRef(arm)),
        retrain_mode=retrain_mode,
    )


_ARM_CONFIG = CaseStudyConfig(num_users=200, num_trials=2)


class TestEveryPolicyArm:
    """Each registered policy arm runs bit-identically in every layout.

    Regression: the static baseline inherited the suffstats refit, which
    ignores its training budget, so the shard pool kept retraining it
    under ``retrain_mode="compressed"``.
    """

    @pytest.mark.parametrize("retrain_mode", ["exact", "compressed"])
    @pytest.mark.parametrize("execution", EXECUTIONS)
    @pytest.mark.parametrize("arm", policy_names())
    def test_matches_serial(self, arm, execution, retrain_mode):
        result = run_experiment(
            _ARM_CONFIG,
            policy_factory=build_policy_factory(ArmRef(arm)),
            retrain_mode=retrain_mode,
            execution=execution,
        )
        assert_experiments_identical(_serial_arm_run(arm, retrain_mode), result)
