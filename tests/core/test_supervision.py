"""Tests for repro.core.supervision: the shared worker-pool failure model."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.supervision import SupervisorPolicy, WorkerPoolFailure, kill_executor


class TestWorkerPoolFailure:
    def test_carries_reason_and_cause(self):
        cause = OSError("boom")
        failure = WorkerPoolFailure("a shard worker process died", cause)
        assert failure.reason == "a shard worker process died"
        assert failure.cause is cause
        assert "boom" in str(failure)

    def test_cause_is_optional(self):
        failure = WorkerPoolFailure("a shard worker hung past the timeout")
        assert failure.cause is None
        assert str(failure) == "a shard worker hung past the timeout"


class TestSupervisorPolicy:
    def test_defaults_are_valid(self):
        policy = SupervisorPolicy()
        assert policy.max_retries == 2
        assert policy.timeout is None

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            SupervisorPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            SupervisorPolicy(timeout=0.0)
        with pytest.raises(ValueError, match="backoff bounds"):
            SupervisorPolicy(backoff_base=-0.1)
        with pytest.raises(ValueError, match="backoff_factor"):
            SupervisorPolicy(backoff_factor=0.5)

    def test_backoff_is_geometric_and_capped(self):
        policy = SupervisorPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5
        )
        assert policy.backoff_delay(1) == pytest.approx(0.1)
        assert policy.backoff_delay(2) == pytest.approx(0.2)
        assert policy.backoff_delay(3) == pytest.approx(0.4)
        assert policy.backoff_delay(4) == pytest.approx(0.5)  # capped
        assert policy.backoff_delay(0) == 0.0

    def test_sleep_before_retry_with_zero_base_is_instant(self):
        # backoff_base=0 means no sleeping at all — used by the chaos suite
        # so injected failures retry without slowing the test run down.
        SupervisorPolicy(backoff_base=0.0).sleep_before_retry(5)


class TestKillExecutor:
    def test_kills_live_workers(self):
        executor = ProcessPoolExecutor(max_workers=1)
        future = executor.submit(int, "7")
        assert future.result(timeout=30) == 7
        processes = list(getattr(executor, "_processes", {}).values())
        manager = executor._executor_manager_thread
        kill_executor(executor)
        # The pool's manager thread reaps the workers too; let it finish,
        # or its waitpid can race the one behind is_alive() below and leave
        # a dead worker's exit status unrecorded.
        manager.join(timeout=30)
        assert not manager.is_alive()
        for process in processes:
            process.join(timeout=30)
            assert not process.is_alive()

    def test_tolerates_executors_without_process_map(self):
        class Plain:
            def shutdown(self, wait=True, cancel_futures=False):
                self.down = (wait, cancel_futures)

        plain = Plain()
        kill_executor(plain)
        assert plain.down == (False, True)
