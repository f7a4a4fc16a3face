"""Tests for repro.core.streaming (StreamingAggregator, AggregateHistory)."""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.history import FullHistoryRequiredError, StepRecord
from repro.core.streaming import AggregateHistory, StreamingAggregator, sequential_sum

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

#: Environment variables OpenBLAS reads its thread count from.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _binary_stream(num_steps: int, num_users: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    decisions = rng.integers(0, 2, size=(num_steps, num_users)).astype(float)
    actions = rng.integers(0, 2, size=(num_steps, num_users)).astype(float) * decisions
    return decisions, actions


class TestStreamingAggregator:
    def test_rejects_non_positive_population(self):
        with pytest.raises(ValueError):
            StreamingAggregator(0)

    def test_rejects_out_of_range_group_indices(self):
        with pytest.raises(ValueError):
            StreamingAggregator(4, groups={"bad": np.array([0, 4])})

    def test_rejects_wrong_row_lengths(self):
        aggregator = StreamingAggregator(3)
        with pytest.raises(ValueError):
            aggregator.update(np.ones(2), np.ones(3))
        with pytest.raises(ValueError):
            aggregator.update(np.ones(3), np.ones(4))

    def test_series_shapes_track_the_step_count(self):
        groups = {"a": np.array([0, 1]), "b": np.array([2])}
        aggregator = StreamingAggregator(3, groups=groups)
        decisions, actions = _binary_stream(5, 3)
        for step in range(5):
            aggregator.update(decisions[step], actions[step])
        assert aggregator.num_steps == 5
        assert aggregator.num_users == 3
        assert aggregator.group_sizes == {"a": 2, "b": 1}
        for series in (
            aggregator.approval_rate_series(),
            aggregator.portfolio_rate_series(),
            aggregator.rate_sum_series(),
            aggregator.rate_sumsq_series(),
            aggregator.rate_min_series(),
            aggregator.rate_max_series(),
        ):
            assert series.shape == (5,)
        for mapping in (
            aggregator.group_default_rate_series(),
            aggregator.group_action_average_series(),
            aggregator.group_approval_series(),
        ):
            assert set(mapping) == {"a", "b"}
            assert all(series.shape == (5,) for series in mapping.values())

    def test_known_two_step_stream(self):
        aggregator = StreamingAggregator(2, groups={"all": np.array([0, 1])})
        aggregator.update(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        aggregator.update(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        # After step 0: user rates are (0, 1); after step 1: (0, 1).
        np.testing.assert_allclose(
            aggregator.group_default_rate_series()["all"], [0.5, 0.5]
        )
        np.testing.assert_allclose(aggregator.approval_rate_series(), [1.0, 0.5])
        # Offers 2 then 3, repayments 1 then 2.
        np.testing.assert_allclose(
            aggregator.portfolio_rate_series(), [0.5, 1.0 - 2.0 / 3.0]
        )
        np.testing.assert_allclose(
            aggregator.group_action_average_series()["all"], [0.5, 0.5]
        )

    def test_empty_group_reports_nan_series(self):
        aggregator = StreamingAggregator(2, groups={"none": np.array([], dtype=int)})
        aggregator.update(np.ones(2), np.ones(2))
        assert np.all(np.isnan(aggregator.group_default_rate_series()["none"]))

    def test_growth_beyond_initial_capacity(self):
        aggregator = StreamingAggregator(2, groups={"all": np.array([0, 1])})
        decisions, actions = _binary_stream(100, 2, seed=3)
        for step in range(100):
            aggregator.update(decisions[step], actions[step])
        assert aggregator.num_steps == 100
        assert aggregator.approval_rate_series().shape == (100,)
        np.testing.assert_array_equal(
            aggregator.approval_rate_series(), decisions.mean(axis=1)
        )

    def test_merge_validates_compatibility(self):
        left = StreamingAggregator(2, groups={"a": np.array([0])})
        right = StreamingAggregator(2, groups={"a": np.array([0])})
        left.update(np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            left.merge(right)  # step counts differ
        right.update(np.ones(2), np.ones(2))
        other_keys = StreamingAggregator(2, groups={"b": np.array([0])})
        other_keys.update(np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            left.merge(other_keys)
        with pytest.raises(TypeError):
            left.merge(object())

    def test_from_state_rebuilds_a_live_aggregator(self):
        groups = {"a": np.array([0, 2]), "b": np.array([1])}
        aggregator = StreamingAggregator(3, groups=groups, prior_rate=0.1)
        decisions, actions = _binary_stream(5, 3, seed=11)
        for step in range(5):
            aggregator.update(decisions[step], actions[step])
        restored = StreamingAggregator.from_state(
            pickle.loads(pickle.dumps(aggregator.export_state()))
        )
        assert restored.num_steps == 5
        assert restored.prior_rate == 0.1
        np.testing.assert_array_equal(
            restored.approval_rate_series(), aggregator.approval_rate_series()
        )
        for key in groups:
            np.testing.assert_array_equal(
                restored.group_default_rate_series()[key],
                aggregator.group_default_rate_series()[key],
            )
        # The restored aggregator stays live: it can keep ingesting steps
        # and produce exactly what the uninterrupted original produces.
        extra_decisions, extra_actions = _binary_stream(3, 3, seed=12)
        for step in range(3):
            restored.update(extra_decisions[step], extra_actions[step])
            aggregator.update(extra_decisions[step], extra_actions[step])
        np.testing.assert_array_equal(
            restored.group_default_rate_series()["a"],
            aggregator.group_default_rate_series()["a"],
        )

    def test_from_state_validates_shapes(self):
        aggregator = StreamingAggregator(2, groups={"a": np.array([0])})
        aggregator.update(np.ones(2), np.ones(2))
        state = aggregator.export_state()
        bad_users = dict(state, offers_cum=np.ones(3))
        with pytest.raises(ValueError):
            StreamingAggregator.from_state(bad_users)
        bad_steps = dict(state, approvals=np.ones(4))
        with pytest.raises(ValueError):
            StreamingAggregator.from_state(bad_steps)
        bad_groups = dict(state, group_rate_sums={"zzz": np.ones(1)})
        with pytest.raises(ValueError):
            StreamingAggregator.from_state(bad_groups)

    def test_export_state_round_trips_through_pickle(self):
        aggregator = StreamingAggregator(3, groups={"a": np.array([0, 2])})
        decisions, actions = _binary_stream(4, 3, seed=9)
        for step in range(4):
            aggregator.update(decisions[step], actions[step])
        state = pickle.loads(pickle.dumps(aggregator.export_state()))
        assert state["num_users"] == 3
        assert state["num_steps"] == 4
        np.testing.assert_array_equal(
            state["approvals"], aggregator.approval_rate_series()
        )
        np.testing.assert_array_equal(state["offers_cum"], decisions.sum(axis=0))


class TestAggregateHistory:
    def test_record_step_and_series(self):
        history = AggregateHistory(groups={"all": np.array([0, 1])})
        decisions, actions = _binary_stream(6, 2, seed=1)
        for step in range(6):
            history.record_step(step, {}, decisions[step], actions[step], {})
        assert history.num_steps == 6
        assert history.num_users == 2
        assert history.approval_rates().shape == (6,)
        assert not history.approval_rates().flags.writeable
        assert set(history.group_default_rate_series()) == {"all"}

    def test_append_accepts_step_records(self):
        history = AggregateHistory()
        record = StepRecord(
            step=0,
            public_features={"income": np.array([1.0, 2.0])},
            decisions=np.array([1.0, 0.0]),
            actions=np.array([1.0, 0.0]),
            observation={"portfolio_rate": 0.0},
        )
        history.append(record)
        assert history.num_steps == 1
        assert history.num_users == 2

    def test_rejects_non_contiguous_steps(self):
        history = AggregateHistory()
        history.record_step(0, {}, np.ones(2), np.ones(2), {})
        with pytest.raises(ValueError, match="contiguous"):
            history.record_step(2, {}, np.ones(2), np.ones(2), {})
        with pytest.raises(ValueError, match="contiguous"):
            history.record_step(0, {}, np.ones(2), np.ones(2), {})
        history.record_step(1, {}, np.ones(2), np.ones(2), {})
        assert history.num_steps == 2

    def test_declared_num_users_is_enforced(self):
        history = AggregateHistory(num_users=3)
        with pytest.raises(ValueError):
            history.record_step(0, {}, np.ones(2), np.ones(2), {})

    def test_empty_history_raises(self):
        history = AggregateHistory()
        with pytest.raises(ValueError):
            history.num_users
        with pytest.raises(ValueError):
            history.approval_rates()
        assert history.num_steps == 0

    def test_full_history_accessors_raise_with_guidance(self):
        history = AggregateHistory()
        history.record_step(0, {}, np.ones(2), np.ones(2), {})
        for call in (
            history.decisions_matrix,
            history.actions_matrix,
            history.running_default_rates,
            history.running_action_averages,
            history.recompute_running_default_rates,
            history.recompute_running_action_averages,
            history.recompute_approval_rates,
        ):
            with pytest.raises(FullHistoryRequiredError, match="history_mode"):
                call()
        with pytest.raises(FullHistoryRequiredError):
            history.public_feature_matrix("income")
        with pytest.raises(FullHistoryRequiredError):
            history.observation_series("portfolio_rate")
        with pytest.raises(FullHistoryRequiredError):
            history.record_at(0)
        with pytest.raises(FullHistoryRequiredError):
            history.records
        with pytest.raises(FullHistoryRequiredError):
            history.group_series(np.ones((1, 2)), {})

    def test_pickles_cleanly(self):
        history = AggregateHistory(groups={"a": np.array([0])})
        history.record_step(0, {}, np.ones(2), np.ones(2), {})
        clone = pickle.loads(pickle.dumps(history))
        assert clone.num_steps == 1
        np.testing.assert_array_equal(
            clone.approval_rates(), history.approval_rates()
        )


class TestSequentialSumHelper:
    def test_empty_input_sums_to_zero(self):
        assert sequential_sum(np.array([])) == 0.0

    def test_single_element(self):
        assert sequential_sum(np.array([0.3])) == 0.3


class TestHostIndependence:
    """The aggregate series are the same bits whatever the BLAS thread count.

    OpenBLAS splits a large reduction over its threads, and the partial
    sums then combine in an order that depends on how many there are.  The
    aggregator must not route any per-step reduction through BLAS, so a
    stream folded with one BLAS thread and one folded with the library's
    default (one per core) give byte-identical series.
    """

    _CHILD = textwrap.dedent(
        """
        import json
        import numpy as np
        from repro.core.streaming import StreamingAggregator

        num_users, num_steps = 120_000, 3
        rng = np.random.default_rng(20240101)
        groups = {"a": np.arange(0, num_users, 3), "b": np.arange(1, num_users, 3)}
        aggregator = StreamingAggregator(num_users, groups=groups)
        for _ in range(num_steps):
            decisions = (rng.random(num_users) < 0.8).astype(float)
            actions = (rng.random(num_users) < 0.7).astype(float) * decisions
            aggregator.update(decisions, actions)
        series = {
            "rate_sumsq": aggregator.rate_sumsq_series(),
            "rate_sum": aggregator.rate_sum_series(),
        }
        for name, mapping in (
            ("group_rate", aggregator.group_default_rate_series()),
            ("group_action", aggregator.group_action_average_series()),
            ("group_approval", aggregator.group_approval_series()),
        ):
            for key, values in mapping.items():
                series[f"{name}[{key}]"] = values
        print(json.dumps({name: values.tobytes().hex() for name, values in series.items()}))
        """
    )

    def _series_bytes(self, blas_threads: str | None) -> dict:
        env = {
            key: value
            for key, value in os.environ.items()
            if key not in _BLAS_THREAD_VARIABLES
        }
        env["PYTHONPATH"] = SRC_DIR
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        proc = subprocess.run(
            [sys.executable, "-c", self._CHILD],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="OpenBLAS never uses threads on a one-CPU host",
    )
    def test_series_do_not_depend_on_the_blas_thread_count(self):
        one_thread = self._series_bytes("1")
        default_threads = self._series_bytes(None)
        assert set(one_thread) == set(default_threads)
        differing = sorted(
            name for name in one_thread if one_thread[name] != default_threads[name]
        )
        assert not differing, (
            f"aggregate series depend on the BLAS thread count: {differing}"
        )
