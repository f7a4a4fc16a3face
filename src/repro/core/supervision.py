"""Supervised worker-pool execution: timeouts, retries, backoff, teardown.

Three pooled execution layers exist: the intra-trial shard pool in
:mod:`repro.core.loop`, the trial pool in :mod:`repro.experiments.runner`
and the campaign job pool in :mod:`repro.campaign.runner`.  They share one
failure model: a worker can *die* (OOM kill, SIGKILL — surfaces as
``BrokenProcessPool``), *hang* (surfaces as a future that never
completes), or *raise*.  The supervisor contract is the same in every
layer:

1. every gather goes through a deadline so a hung worker becomes a
   detected failure instead of a stuck experiment;
2. a detected failure is retried — after an exponential backoff — with the
   broken pool torn down and rebuilt;
3. when the retry budget is exhausted the work degrades to the
   bit-identical in-process path with a structured :class:`RuntimeWarning`,
   never a crashed experiment.

The trial and campaign pools run *independent* tasks, so they share one
loop, :func:`run_supervised_tasks`: each caller supplies its task
function, payload builder and in-process runner.  The shard pool is a
stateful lockstep pool that rolls back to a snapshot instead of re-running
independent tasks, so it keeps its own loop and shares only
:class:`SupervisorPolicy`, :class:`WorkerPoolFailure` and
:func:`kill_executor`.
"""

from __future__ import annotations

import pickle
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Sequence, TypeVar

__all__ = [
    "SupervisorPolicy",
    "WorkerPoolFailure",
    "kill_executor",
    "release_resources",
    "run_supervised_tasks",
]

Key = TypeVar("Key", bound=Hashable)
Result = TypeVar("Result")


class WorkerPoolFailure(RuntimeError):
    """A pooled work unit died, hung, or raised; carries the cause."""

    def __init__(self, reason: str, cause: BaseException | None = None) -> None:
        super().__init__(reason if cause is None else f"{reason}: {cause!r}")
        self.reason = reason
        self.cause = cause


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/timeout/backoff policy of a supervised worker pool.

    Attributes
    ----------
    max_retries:
        How many times a failed unit of work is retried before it degrades
        to the serial path.  ``0`` disables retries (first failure degrades
        immediately); the failure itself is still detected and contained.
    timeout:
        Liveness deadline in seconds for worker futures.  ``None`` (the
        default) waits forever — hung-worker detection is opt-in because a
        correct deadline is workload-dependent.  The shard pool applies it
        per gathered step-phase; the trial and campaign pools treat it as
        "some task must complete within this window" and reset it on every
        completion, so it bounds *stall*, not total runtime.
    backoff_base, backoff_factor, backoff_max:
        Exponential backoff between retries: attempt ``n`` sleeps
        ``min(backoff_base * backoff_factor**(n-1), backoff_max)`` seconds.
        The default climbs 0.05 s → 0.1 s → 0.2 s …, enough to let a
        transiently overloaded host drain without turning tests sluggish.
    """

    max_retries: int = 2
    timeout: float | None = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive when given")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff bounds must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be at least 1.0")

    def backoff_delay(self, attempt: int) -> float:
        """Return the sleep before retry ``attempt`` (1-based)."""
        if attempt <= 0:
            return 0.0
        return min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )

    def sleep_before_retry(self, attempt: int) -> None:
        """Sleep the backoff delay of retry ``attempt`` (1-based)."""
        delay = self.backoff_delay(attempt)
        if delay > 0:
            time.sleep(delay)


def kill_executor(executor) -> None:
    """Tear down a process-pool executor that may hold hung workers.

    ``shutdown(wait=False)`` alone leaves a worker stuck in an injected (or
    organic) hang alive indefinitely; terminating the worker processes
    first makes teardown prompt.  Best-effort by design: the private
    ``_processes`` map is CPython's, so its absence simply degrades to the
    plain shutdown.
    """
    processes = getattr(executor, "_processes", None)
    if processes:
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead process races
                pass
    executor.shutdown(wait=False, cancel_futures=True)


def release_resources(*resources) -> None:
    """Best-effort ``destroy()``/``close()`` of pool-owned resources.

    Supervised teardown must release OS-level resources (shared-memory
    arenas, open stores) on *every* exit route — including ones reached
    because something else is already failing — so release failures are
    swallowed: cleanup can never mask the original error.  ``None``
    entries are skipped, letting callers pass optional resources straight
    through.
    """
    for resource in resources:
        if resource is None:
            continue
        closer = getattr(resource, "destroy", None) or getattr(
            resource, "close", None
        )
        if closer is None:
            continue
        try:
            closer()
        except Exception:  # pragma: no cover - cleanup must not mask errors
            pass


def _is_picklable(value: object) -> bool:
    try:
        pickle.dumps(value)
        return True
    except Exception:
        return False


def run_supervised_tasks(
    task: Callable[[object], Result],
    keys: Sequence[Key],
    payload_for: Callable[[Key, int], object],
    run_in_process: Callable[[Key], Result],
    *,
    workers: int,
    supervisor: SupervisorPolicy | None,
    pool_name: str,
    noun: str,
    describe: Callable[[Key], str],
) -> Dict[Key, Result] | None:
    """Run independent tasks on a supervised process pool.

    ``task(payload_for(key, attempts))`` runs in a worker process for each
    key; ``attempts`` counts the key's earlier failures, so a retried task
    can, e.g., resume from the dead worker's checkpoint.  ``task`` must be
    a module-level function so it pickles by reference.

    Returns ``None`` before anything runs when the first payload does not
    pickle — the caller then runs every task in-process.  Otherwise:

    * a task that raises is retried on its own;
    * a worker death (``BrokenProcessPool``), or a ``supervisor.timeout``
      window in which no task completes, kills the pool, keeps every
      completed result, backs off exponentially, and re-runs only the lost
      tasks on a rebuilt pool (warning ``"<pool_name> failure (...);
      rebuilding the pool ..."``);
    * a task past ``supervisor.max_retries`` runs through
      ``run_in_process(key)`` in the calling process (warning ``"<pool_name>
      fell back to the serial path: <describe(key)> exhausted its retry
      budget ..."``), so its own deterministic error, if any, surfaces there
      instead of being retried forever.

    Returns the results keyed like ``keys``.
    """
    waiting: List[Key] = list(keys)
    if not waiting:
        return {}
    if not _is_picklable(payload_for(waiting[0], 0)):
        return None
    policy = supervisor or SupervisorPolicy()
    attempts: Dict[Key, int] = {key: 0 for key in waiting}
    results: Dict[Key, Result] = {}
    executor: ProcessPoolExecutor | None = None
    pool_failures = 0
    try:
        while waiting:
            for key in [k for k in waiting if attempts[k] > policy.max_retries]:
                warnings.warn(
                    f"{pool_name} fell back to the serial path: {describe(key)} "
                    f"exhausted its retry budget ({policy.max_retries} retries)",
                    RuntimeWarning,
                    stacklevel=3,
                )
                results[key] = run_in_process(key)
            waiting = [k for k in waiting if k not in results]
            if not waiting:
                break
            failure: WorkerPoolFailure | None = None
            try:
                if executor is None:
                    executor = ProcessPoolExecutor(
                        max_workers=min(workers, len(waiting))
                    )
                future_map = {
                    executor.submit(task, payload_for(key, attempts[key])): key
                    for key in waiting
                }
            except (pickle.PicklingError, BrokenProcessPool) as error:
                failure = WorkerPoolFailure(f"submitting {noun}s failed", error)
                future_map = {}
            outstanding = set(future_map)
            while outstanding and failure is None:
                done, _ = wait(
                    outstanding, timeout=policy.timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    failure = WorkerPoolFailure(
                        f"no {noun} completed within the supervision timeout", None
                    )
                    break
                for future in done:
                    key = future_map[future]
                    outstanding.discard(future)
                    try:
                        results[key] = future.result()
                    except BrokenProcessPool as error:
                        failure = WorkerPoolFailure(
                            f"a {noun} worker process died", error
                        )
                        break
                    except Exception:
                        # The task itself raised: retry just this one.
                        attempts[key] += 1
            waiting = [k for k in waiting if k not in results]
            if failure is not None and waiting:
                pool_failures += 1
                for key in waiting:
                    attempts[key] += 1
                kill_executor(executor)
                executor = None
                cause = failure.cause if failure.cause is not None else failure
                warnings.warn(
                    f"{pool_name} failure ({failure.reason}: {cause!r}); "
                    f"rebuilding the pool and re-running {len(waiting)} lost "
                    f"{noun}(s) (pool failure {pool_failures})",
                    RuntimeWarning,
                    stacklevel=3,
                )
                policy.sleep_before_retry(pool_failures)
        if executor is not None:
            # Clean exit: every worker is idle, so waiting is instant and
            # lets the pool's management thread close its wakeup pipe
            # before the interpreter's atexit hook races it.
            executor.shutdown(wait=True, cancel_futures=True)
            executor = None
    finally:
        if executor is not None:
            # Exceptional exit: workers may be hung, so don't wait on them.
            executor.shutdown(wait=False, cancel_futures=True)
    return results
