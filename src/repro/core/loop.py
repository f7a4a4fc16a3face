"""The closed-loop orchestrator (Figure 1 of the paper).

One pass through the loop at time ``k``:

1. the population reveals its public features (e.g. this year's incomes);
2. the AI system decides ``pi(k)`` from those features and the *previous*
   filtered observation;
3. the users respond stochastically with actions ``y_i(k)``;
4. the AI system is retrained on the delayed feedback — the features and
   observation that were available when it decided, paired with the actions
   it has just provoked (this is the paper's "delay" box);
5. the filter folds the new actions into the aggregate observation used at
   the next step.

:class:`ClosedLoop` implements exactly that ordering and records every step
in a :class:`~repro.core.history.SimulationHistory` (or, with
``history_mode="aggregate"``, a memory-bounded
:class:`~repro.core.streaming.AggregateHistory`).

Sharded execution
-----------------

Within a step, every stochastic population quantity is independent across
users, so the loop executes the population *shard by shard*: a shard-aware
population (one exposing ``shard_plan``, see
:class:`~repro.core.sharding.ShardPlan`) is driven with one derived
generator per canonical shard and step
(:func:`~repro.utils.rng.shard_step_generator`) instead of one trial-wide
generator.  The random schedule is a pure function of ``(base seed, shard,
step)`` — independent of worker count, chunking and scheduling — which
makes the following three execution modes produce **bit-identical**
trajectories:

* the default in-process run (all shards advanced serially);
* ``run(..., num_shards=w, shard_parallel=True)``: the canonical shards
  are grouped onto ``w`` persistent worker processes; each step the
  orchestrator gathers the workers' public features, decides centrally,
  scatters the decisions, gathers the actions, retrains centrally, and
  assembles the observation from the workers' per-shard
  :class:`~repro.core.filters.DefaultRateFilter` pieces (integer count
  state, so the merged observation is exactly the unsharded filter's); at
  the end of the run the worker filters are folded back into the loop's
  filter with the exact ``DefaultRateFilter.merge``.  When the AI system
  speaks the sufficient-statistics protocol (see
  :func:`~repro.core.ai_system.suffstats_recipe`) even the per-year refit
  sheds its O(users) central scan: workers compress their training rows
  into :class:`~repro.scoring.suffstats.CompressedDesign` count tables,
  which merge by exact integer addition before one O(unique rows)
  central fit;
* chunked runs (``run`` called repeatedly with the growing history).

Recording stays in the orchestrator in every mode, so the cross-mode
bit-identity guarantees of :mod:`repro.core.streaming` are untouched.

The per-shard streams are a deliberate, pinned break from the pre-sharding
engine's single trial-wide generator; the equivalence suites were
re-goldened when it landed (see ``tests/experiments/test_engine_equivalence.py``).

Populations without a ``shard_plan`` (e.g. hand-written test doubles) run
as a single shard and keep the legacy one-generator ``begin_step``/
``respond`` signature; their stream is then ``shard_step_generator(base,
0, k)``.
"""

from __future__ import annotations

import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.ai_system import AISystem, suffstats_recipe
from repro.core.checkpoint import (
    CheckpointError,
    CheckpointSpec,
    deserialize_payload,
    serialize_payload,
)
from repro.core.filters import DefaultRateFilter, LoopFilter
from repro.core.history import SimulationHistory, StepRecord
from repro.core.population import Population
from repro.core.shardmem import ArenaSpec, SharedMemoryArena, transport_meter
from repro.core.sharding import PopulationShard, ShardPlan, shard_population
from repro.core.streaming import AggregateHistory
from repro.core.supervision import (
    SupervisorPolicy,
    WorkerPoolFailure,
    kill_executor,
    release_resources,
)
from repro.scoring.features import clipped_default_rates, income_code
from repro.scoring.suffstats import CompressedDesign, merge_tables
from repro.testing.faults import fire as _fire_fault
from repro.utils.rng import shard_seed, shard_step_generator, spawn_generator, step_generator

__all__ = ["ClosedLoop"]

_MAX_SEED = 2**63 - 1


def _resolve_population_plan(population) -> Tuple[ShardPlan, bool]:
    """Return ``(plan, shard_aware)`` for any population object."""
    plan = getattr(population, "shard_plan", None)
    if isinstance(plan, ShardPlan):
        return plan, True
    return ShardPlan.single(population.num_users), False


# ----------------------------------------------------------------------
# Worker side of the process-pool path.  Each worker process belongs to a
# single-worker executor, so module-level state keyed by a run token
# persists across the per-step task submissions.
# ----------------------------------------------------------------------

_WORKER_STATE: Dict[str, Dict[str, object]] = {}


def _pool_worker_init(token: str, payload: Dict[str, object]) -> bool:
    """Install one worker's shard state (population slice, filter, seed).

    ``filter_state`` (when given) seeds the shard filter with the worker's
    slice of an existing tracker — this is how a pool rebuilt after a
    mid-run failure resumes from the supervisor's snapshot instead of from
    a blank filter.  A fresh run passes the all-zero sliced state, which is
    identical to plain construction.

    ``arena`` (an :class:`~repro.core.shardmem.ArenaSpec`, when given)
    switches the worker to the zero-copy transport: it maps the shared
    segment once here and thereafter exchanges its per-step feature /
    decision / action slices through rows ``[lo, hi)`` of the shared
    tensor instead of pickled executor messages.
    """
    shard: PopulationShard = payload["shard"]
    filter_state = payload.get("filter_state")
    arena_spec: ArenaSpec | None = payload.get("arena")
    _WORKER_STATE[token] = {
        "population": shard.population,
        "shard_ids": shard.shard_ids,
        "base_seed": payload["base_seed"],
        "filter": (
            DefaultRateFilter(
                num_users=shard.num_users, prior_rate=payload["prior_rate"]
            )
            if filter_state is None
            else DefaultRateFilter.from_state(filter_state)
        ),
        "suffstats": payload.get("suffstats"),
        "arena": None if arena_spec is None else SharedMemoryArena.attach(arena_spec),
        "worker_index": payload.get("worker_index", 0),
        "lo": shard.lo,
        "hi": shard.hi,
        "step_features": {},
        "step_rngs": {},
    }
    return True


def _pool_worker_begin(token: str, k: int) -> Dict[str, np.ndarray] | bool:
    """Phase 1 of step ``k``: reveal the worker's public features.

    With an arena attached the feature slices are written into the shared
    tensor in place and only ``True`` crosses the executor pipe; without
    one the feature dict is returned (pickled) as before.
    """
    state = _WORKER_STATE[token]
    _fire_fault("shard_worker_begin", shard=int(state["shard_ids"][0]), step=k)
    rngs = [
        shard_step_generator(state["base_seed"], shard_id, k)
        for shard_id in state["shard_ids"]
    ]
    state["step_rngs"][k] = rngs
    features = state["population"].begin_step(k, rngs)
    if state["suffstats"] is not None:
        # The respond phase compresses this step's training rows locally;
        # stash the feature slice it will need (decide happens centrally,
        # so the worker never sees it again otherwise).
        state["step_features"][k] = features
    arena: SharedMemoryArena | None = state["arena"]
    if arena is None:
        return features
    for name in arena.feature_channels:
        arena.write_channel(name, state["lo"], state["hi"], features[name])
    return True


def _pool_worker_respond(
    token: str, k: int, decisions: np.ndarray | None = None
) -> (
    Tuple[np.ndarray, np.ndarray, float, float, CompressedDesign | None]
    | CompressedDesign
    | None
):
    """Phase 2 of step ``k``: respond, update the shard filter.

    Without an arena, returns ``(actions, user_default_rates, offers_total,
    repayments_total, count_table)`` — the pieces the orchestrator needs to
    assemble the exact global observation, plus (under
    sufficient-statistics retraining) the shard's compressed training rows:
    ``(income code, previous rate, repayment)`` of the offered users, built
    from the *pre-update* shard rates — exactly the delayed feedback the
    central refit trains on.

    With an arena (``decisions is None``), the decision slice is read from
    the shared tensor and the array/scalar pieces are written back in
    place; only the count table (or ``None``) crosses the pipe.
    """
    state = _WORKER_STATE[token]
    _fire_fault("shard_worker_respond", shard=int(state["shard_ids"][0]), step=k)
    arena: SharedMemoryArena | None = state["arena"]
    if decisions is None:
        decisions = arena.read_channel_slice("decisions", state["lo"], state["hi"])
    rngs = state["step_rngs"].pop(k)
    actions = np.asarray(
        state["population"].respond(decisions, k, rngs), dtype=float
    ).ravel()
    shard_filter: DefaultRateFilter = state["filter"]
    table: CompressedDesign | None = None
    spec = state["suffstats"]
    if spec is not None:
        features = state["step_features"].pop(k)
        previous_rates = np.asarray(
            shard_filter.observation()["user_default_rates"], dtype=float
        )
        table = CompressedDesign.from_arrays(
            income_code(features[spec["feature"]], spec["income_threshold"]),
            # Same tolerance-and-clip as the serial retrain routes, so
            # pooled and serial runs agree on which rates are acceptable.
            clipped_default_rates(previous_rates),
            actions,
            offered=decisions,
        )
    observation = shard_filter.update(decisions, actions, k)
    tracker = shard_filter.tracker
    if arena is not None:
        lo, hi = state["lo"], state["hi"]
        arena.write_channel("actions", lo, hi, actions)
        arena.write_channel(
            "user_rates",
            lo,
            hi,
            np.asarray(observation["user_default_rates"], dtype=float),
        )
        arena.write_scalars(
            state["worker_index"],
            float(tracker.offers.sum()),
            float(tracker.repayments.sum()),
        )
        return table
    return (
        actions,
        np.asarray(observation["user_default_rates"], dtype=float),
        float(tracker.offers.sum()),
        float(tracker.repayments.sum()),
        table,
    )


def _pool_worker_finalize(token: str) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Collect the worker's final population and filter state."""
    state = _WORKER_STATE.pop(token)
    arena: SharedMemoryArena | None = state["arena"]
    if arena is not None:
        arena.close()  # drop the mapping; the orchestrator owns the unlink
    return (
        state["population"].export_shard_state(),
        state["filter"].export_state(),
    )


def _pool_worker_export(token: str) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Non-destructively export the worker's population and filter state.

    The checkpoint-boundary twin of :func:`_pool_worker_finalize`: the
    orchestrator gathers every worker's state to build a consistent global
    snapshot, and the worker keeps running.
    """
    state = _WORKER_STATE[token]
    return (
        state["population"].export_shard_state(),
        state["filter"].export_state(),
    )


class _ShardWorkerPool:
    """A set of persistent single-process executors, one per worker shard.

    Using one ``max_workers=1`` executor per shard pins each shard's state
    to one OS process across the whole run — the worker functions above
    keep the sliced population, the derived streams and the shard filter in
    module state between the per-step task submissions.

    When built with an ``arena``, the pool *owns* its shared-memory
    segment: every exit route (successful finalize, supervised teardown
    before a rebuild, serial fallback, any raise during construction)
    funnels through :meth:`shutdown`, which destroys the arena exactly
    once — the invariant the chaos suite's ``/dev/shm`` leak oracle pins.
    """

    def __init__(
        self,
        shards: Sequence[PopulationShard],
        base_seed: int,
        prior_rate: float,
        token: str,
        suffstats_spec: Dict[str, object] | None = None,
        filter_states: Sequence[Dict[str, object] | None] | None = None,
        timeout: float | None = None,
        arena: SharedMemoryArena | None = None,
    ) -> None:
        self.shards = list(shards)
        self.token = token
        self.arena = arena
        self._timeout = timeout
        self._executors: List[ProcessPoolExecutor] = []
        if filter_states is None:
            filter_states = [None] * len(self.shards)
        try:
            for shard in self.shards:
                executor = ProcessPoolExecutor(max_workers=1)
                self._executors.append(executor)
            futures = [
                executor.submit(
                    _pool_worker_init,
                    token,
                    {
                        "shard": shard,
                        "base_seed": base_seed,
                        "prior_rate": prior_rate,
                        "suffstats": suffstats_spec,
                        "filter_state": filter_state,
                        "arena": None if arena is None else arena.spec,
                        "worker_index": index,
                    },
                )
                for index, (executor, shard, filter_state) in enumerate(
                    zip(self._executors, self.shards, filter_states)
                )
            ]
            for future in futures:
                future.result()
        except Exception:
            self.shutdown()
            raise

    def _gather(self, futures) -> List[object]:
        """Collect worker futures, unifying death/hang/raise into one signal.

        A shared deadline covers the whole gather (the phases are
        lockstep, so per-future deadlines would just re-count the same
        wall clock); breaching it, losing a worker process, or a raise
        inside a worker all surface as :class:`WorkerPoolFailure`, which
        the supervising orchestrator turns into a retry from its last
        snapshot or a serial degrade.
        """
        deadline = None if self._timeout is None else time.monotonic() + self._timeout
        results: List[object] = []
        for future in futures:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            try:
                results.append(future.result(timeout=remaining))
            except FutureTimeoutError as error:
                raise WorkerPoolFailure("a shard worker hung past the timeout", error)
            except BrokenProcessPool as error:
                raise WorkerPoolFailure("a shard worker process died", error)
            except WorkerPoolFailure:
                raise
            except Exception as error:
                raise WorkerPoolFailure("a shard worker raised", error)
        return results

    def map_begin(self, k: int) -> List[Dict[str, np.ndarray] | bool]:
        results = self._gather(
            [
                executor.submit(_pool_worker_begin, self.token, k)
                for executor in self._executors
            ]
        )
        meter = transport_meter()
        if meter is not None and self.arena is None:
            meter.add_pickled(sum(len(pickle.dumps(piece)) for piece in results))
        return results

    def map_respond(self, k: int, decisions: np.ndarray):
        if self.arena is not None:
            # Scatter by shared write: one memcpy of the decision row, read
            # in place by every worker — nothing user-sized hits the pipes.
            self.arena.write_channel(
                "decisions", 0, self.arena.spec.num_users, decisions
            )
            responses = self._gather(
                [
                    executor.submit(_pool_worker_respond, self.token, k, None)
                    for executor in self._executors
                ]
            )
            meter = transport_meter()
            if meter is not None:
                meter.add_shared(self.arena.per_step_bytes())
                meter.note_step()
            return responses
        responses = self._gather(
            [
                executor.submit(
                    _pool_worker_respond,
                    self.token,
                    k,
                    decisions[shard.lo : shard.hi],
                )
                for executor, shard in zip(self._executors, self.shards)
            ]
        )
        meter = transport_meter()
        if meter is not None:
            meter.add_pickled(
                sum(
                    len(pickle.dumps(decisions[shard.lo : shard.hi]))
                    for shard in self.shards
                )
                + sum(len(pickle.dumps(response)) for response in responses)
            )
            meter.note_step()
        return responses

    def export_states(self):
        """Gather every worker's (population, filter) state, workers kept."""
        return self._gather(
            [
                executor.submit(_pool_worker_export, self.token)
                for executor in self._executors
            ]
        )

    def finalize(self):
        return self._gather(
            [
                executor.submit(_pool_worker_finalize, self.token)
                for executor in self._executors
            ]
        )

    def shutdown(self, graceful: bool = False) -> None:
        # Failure routes must not wait on workers that may be hung, so they
        # get the terminate-first teardown; the clean route waits for the
        # (idle) pools to exit fully, otherwise their management threads
        # race the interpreter's own atexit pool cleanup and can spray
        # "Bad file descriptor" tracebacks on exit.
        for executor in self._executors:
            if graceful:
                executor.shutdown(wait=True, cancel_futures=True)
            else:
                kill_executor(executor)
        self._executors = []
        # After the workers are dead their mappings are gone, so the owner's
        # close+unlink here removes the segment from the system on every
        # exit route (success, rebuild, fallback, raise).
        release_resources(self.arena)
        self.arena = None


class ClosedLoop:
    """Wires an AI system, a population, and a filter into the closed loop.

    Parameters
    ----------
    ai_system:
        The decision maker (implements :class:`~repro.core.ai_system.AISystem`).
    population:
        The users (implements :class:`~repro.core.population.Population`).
    loop_filter:
        The aggregation filter (implements
        :class:`~repro.core.filters.LoopFilter`).
    retrain:
        Whether to call the AI system's ``update`` hook each step.  Setting
        this to ``False`` turns the loop into the open-loop baseline where
        the model never adapts to the feedback it creates.
    """

    def __init__(
        self,
        ai_system: AISystem,
        population: Population,
        loop_filter: LoopFilter,
        retrain: bool = True,
    ) -> None:
        self._ai_system = ai_system
        self._population = population
        self._filter = loop_filter
        self._retrain = retrain
        self._plan, self._shard_aware = _resolve_population_plan(population)
        # Base seed of the shard streams; fixed at the first run/step call
        # so chunked runs continue the exact single-run schedule.
        self._stream_base: int | None = None
        # Per-shard seeds derived from the current base (cached: the shard
        # half of the hash chain is base-dependent only, so deriving it per
        # step would hash the same labels every step).
        self._shard_seeds: List[int] | None = None
        self._pool_token_counter = 0

    @property
    def ai_system(self) -> AISystem:
        """Return the AI system."""
        return self._ai_system

    @property
    def population(self) -> Population:
        """Return the population."""
        return self._population

    @property
    def loop_filter(self) -> LoopFilter:
        """Return the filter."""
        return self._filter

    @property
    def shard_plan(self) -> ShardPlan:
        """Return the canonical shard partition the loop executes."""
        return self._plan

    def _resolve_stream_base(self, rng, continuing: bool = False) -> int:
        """Fix (or reuse) the base seed of the shard streams.

        A fresh run resolves the base from ``rng`` every time — an integer
        is the base itself, a generator contributes one draw (advancing
        it, so repeated runs with the same generator stay independent),
        and ``None`` draws from OS entropy.  Only a *continuation*
        (``run`` with a non-empty history, and ``rng=None``) reuses the
        established base, which is what replays the exact single-run
        schedule across chunks.
        """
        if continuing and rng is None and self._stream_base is not None:
            return self._stream_base
        if rng is not None and not isinstance(rng, np.random.Generator):
            self._stream_base = int(rng)
        else:
            source = spawn_generator(rng)
            self._stream_base = int(source.integers(_MAX_SEED))
        self._shard_seeds = None
        return self._stream_base

    def _step_rngs(self, k: int) -> List[np.random.Generator]:
        """Return the per-shard generators of step ``k``."""
        base = self._stream_base
        assert base is not None
        if self._shard_seeds is None:
            self._shard_seeds = [
                shard_seed(base, shard) for shard in range(self._plan.num_shards)
            ]
        return [step_generator(seed, k) for seed in self._shard_seeds]

    def run(
        self,
        num_steps: int,
        rng: int | np.random.Generator | None = None,
        history: SimulationHistory | AggregateHistory | None = None,
        history_mode: str = "full",
        groups: Mapping[object, np.ndarray] | None = None,
        num_shards: int = 1,
        shard_parallel: bool = False,
        checkpoint: CheckpointSpec | None = None,
        supervisor: SupervisorPolicy | None = None,
    ) -> SimulationHistory | AggregateHistory:
        """Run the loop for ``num_steps`` steps and return the history.

        Parameters
        ----------
        num_steps:
            Number of passes through the loop.
        rng:
            Base seed (or generator contributing one draw) of the
            per-shard random streams.  Leave it ``None`` when continuing
            an existing history: the loop then reuses the base it started
            with, which replays the exact schedule of an unchunked run.
        history:
            Optional existing history to append to (the loop can be run in
            several chunks, e.g. to inspect intermediate state).  The
            store's type decides the recording mode, so a resumed run keeps
            the mode it started with regardless of ``history_mode``.
        history_mode:
            ``"full"`` (default) records every ``(steps, users)`` column in
            a :class:`~repro.core.history.SimulationHistory`;
            ``"aggregate"`` folds each step into a memory-bounded
            :class:`~repro.core.streaming.AggregateHistory` that keeps only
            group-level series (per-user accessors then raise
            :class:`~repro.core.history.FullHistoryRequiredError`).
        groups:
            Group partition (e.g. ``population.groups``) used by the
            aggregate store; only consulted when a new aggregate history is
            created here.
        num_shards:
            Number of worker processes the canonical shards are grouped
            onto when ``shard_parallel`` is set.  Results are bit-identical
            for every value: the random schedule depends only on the
            canonical shard partition, never on the worker grouping.
        shard_parallel:
            Execute the worker shards on a process pool (one persistent
            process per worker).  Requires a fresh run (no existing
            history), a shard-aware picklable population and a fresh
            :class:`~repro.core.filters.DefaultRateFilter`; anything else
            falls back to the serial path, which is bit-identical.  The
            pool refits the AI system the way
            :func:`~repro.core.ai_system.suffstats_recipe` says: from the
            workers' count tables, merged by exact integer addition, when
            the system speaks the sufficient-statistics protocol (e.g.
            :class:`~repro.core.ai_system.CreditScoringSystem` wrapping a
            ``retrain_mode="compressed"`` lender), else through the
            central row-level ``update``.  Either way the refit equals the
            serial one bit for bit: the merged tables equal the
            whole-population table the system's own ``update`` would
            build.
        checkpoint:
            Optional :class:`~repro.core.checkpoint.CheckpointSpec`: at
            every ``checkpoint.every``-th step boundary the loop's state
            (history, filter, AI system, population, stream base) is
            written crash-consistently to
            ``checkpoint.directory/checkpoint.stem.stepNNNNNNNN.ckpt``.
            A run restored from such a snapshot
            (:meth:`restore_snapshot`) and continued is bit-identical to
            the uninterrupted run, because the random streams are
            stateless per ``(shard, step)``.
        supervisor:
            Optional :class:`~repro.core.supervision.SupervisorPolicy` for
            the pooled shard path: worker death, hangs (when
            ``supervisor.timeout`` is set) and worker exceptions are
            detected, the pool is rebuilt and the run retried — after an
            exponential backoff — from the last checkpoint boundary (or
            the start), up to ``supervisor.max_retries`` times; past the
            budget the run degrades to the bit-identical serial path with
            a :class:`RuntimeWarning`.  ``None`` applies the default
            policy.
        """
        if num_steps < 0:
            raise ValueError("num_steps must be non-negative")
        if history_mode not in ("full", "aggregate"):
            raise ValueError(
                f'history_mode must be "full" or "aggregate", got {history_mode!r}'
            )
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        continuing = history is not None and history.num_steps > 0
        self._resolve_stream_base(rng, continuing=continuing)
        if history is not None:
            record_book = history
        elif history_mode == "aggregate":
            record_book = AggregateHistory(
                num_users=self._population.num_users, groups=groups
            )
        else:
            record_book = SimulationHistory()
        start = record_book.num_steps
        if (
            shard_parallel
            and num_steps > 0
            and start == 0
            and min(num_shards, self._plan.num_shards) > 1
        ):
            pooled = self._try_run_pooled(
                num_steps,
                record_book,
                num_shards,
                checkpoint=checkpoint,
                supervisor=supervisor,
            )
            if pooled is not None:
                return pooled
        return self._run_serial_range(record_book, start, start + num_steps, checkpoint)

    def _run_serial_range(
        self,
        record_book: SimulationHistory | AggregateHistory,
        start: int,
        end: int,
        checkpoint: CheckpointSpec | None,
    ) -> SimulationHistory | AggregateHistory:
        """Advance the loop serially over ``[start, end)``, checkpointing."""
        for k in range(start, end):
            _fire_fault("loop_step", step=k)
            public_features, decisions, actions, observation = self._advance(
                k, self._step_rngs(k)
            )
            record_book.record_step(k, public_features, decisions, actions, observation)
            if checkpoint is not None and checkpoint.due(record_book.num_steps):
                checkpoint.write(self.export_snapshot(record_book))
        return record_book

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------

    def export_snapshot(
        self, history: SimulationHistory | AggregateHistory
    ) -> Dict[str, object]:
        """Return a step-boundary snapshot payload of this run.

        The payload captures everything a fresh loop of the same
        configuration needs to continue bit-identically: the recorded
        history, the filter state, the AI system's learning state, the
        population's mutable state, and the base seed of the stateless
        random streams.  Components exposing ``export_state`` /
        ``import_state`` (and populations exposing the shard-state hooks)
        are captured structurally; anything else is embedded as the whole
        object, which pickles with the payload.

        The returned dict aliases live state — serialize it
        (:func:`~repro.core.checkpoint.serialize_payload` or
        :meth:`~repro.core.checkpoint.CheckpointSpec.write`) before
        advancing the loop further.
        """
        if self._stream_base is None:
            raise ValueError("no run in progress: the stream base is unset")

        def _component(obj, export: str, import_: str) -> Dict[str, object]:
            if hasattr(obj, export) and hasattr(obj, import_):
                return {"kind": "state", "state": getattr(obj, export)()}
            return {"kind": "object", "object": obj}

        return {
            "step": int(history.num_steps),
            "num_users": int(self._population.num_users),
            "stream_base": int(self._stream_base),
            "history": history,
            "filter": _component(self._filter, "export_state", "import_state"),
            "ai_system": _component(self._ai_system, "export_state", "import_state"),
            "population": _component(
                self._population, "export_shard_state", "import_shard_state"
            ),
        }

    def restore_snapshot(
        self, payload: Mapping[str, object]
    ) -> SimulationHistory | AggregateHistory:
        """Restore loop state from an :meth:`export_snapshot` payload.

        Returns the restored history; pass it back to :meth:`run` as
        ``history=`` (with ``rng=None``) and the continuation replays the
        uninterrupted run's schedule exactly.  The loop must be built with
        the same configuration that wrote the snapshot — the checkpoint
        layer's fingerprint guards that contract at the file level, and a
        population-size mismatch is rejected here as a second line of
        defence.
        """
        if int(payload["num_users"]) != self._population.num_users:
            raise CheckpointError(
                f"snapshot was taken with {payload['num_users']} users but this "
                f"loop has {self._population.num_users}; resume with the "
                "configuration that wrote the checkpoint"
            )
        population_payload = payload["population"]
        if population_payload["kind"] == "state":
            self._population.import_shard_state(0, population_payload["state"])
        else:
            self._population = population_payload["object"]
            self._plan, self._shard_aware = _resolve_population_plan(self._population)
        filter_payload = payload["filter"]
        if filter_payload["kind"] == "state":
            self._filter.import_state(filter_payload["state"])
        else:
            self._filter = filter_payload["object"]
        ai_payload = payload["ai_system"]
        if ai_payload["kind"] == "state":
            self._ai_system.import_state(ai_payload["state"])
        else:
            self._ai_system = ai_payload["object"]
        self._stream_base = int(payload["stream_base"])
        self._shard_seeds = None
        history = payload["history"]
        if history.num_steps != int(payload["step"]):
            raise CheckpointError(
                f"snapshot is inconsistent: history holds {history.num_steps} "
                f"steps but the payload claims {payload['step']}"
            )
        return history

    def step(self, k: int, rng: int | np.random.Generator | None = None) -> StepRecord:
        """Execute one pass through the loop at time ``k``.

        The base of the shard streams is resolved from ``rng`` for this
        call only (``None`` draws fresh entropy), without touching the base
        an earlier :meth:`run` established — a diagnostic ``step`` between
        chunked runs therefore cannot perturb the continuation's schedule.
        """
        if rng is not None and not isinstance(rng, np.random.Generator):
            base = int(rng)
        else:
            base = int(spawn_generator(rng).integers(_MAX_SEED))
        rngs = [
            shard_step_generator(base, shard, k)
            for shard in range(self._plan.num_shards)
        ]
        public_features, decisions, actions, observation = self._advance(k, rngs)
        return StepRecord(
            step=k,
            public_features={
                name: np.asarray(value, dtype=float).copy()
                for name, value in public_features.items()
            },
            decisions=decisions.copy(),
            actions=actions.copy(),
            observation={
                name: (
                    np.asarray(value, dtype=float).copy()
                    if np.ndim(value) > 0
                    else float(value)
                )
                for name, value in observation.items()
            },
        )

    def _advance(self, k: int, rngs: List[np.random.Generator]):
        """Run one pass through the loop and return its raw pieces.

        ``rngs`` holds one generator per canonical shard; a shard-aware
        population consumes the whole list (advancing each shard on its own
        stream), a legacy population gets the single shard-0 generator.
        Returns ``(public_features, decisions, actions, observation_after)``
        without any defensive copying — the caller either hands them to the
        history's columnar ingest (which copies into its own buffers) or
        wraps them in a :class:`StepRecord` with explicit copies.
        """
        population_rng = rngs if self._shard_aware else rngs[0]
        public_features = self._population.begin_step(k, population_rng)
        observation_before = self._filter.observation()
        decisions = np.asarray(
            self._ai_system.decide(public_features, observation_before, k), dtype=float
        ).ravel()
        if decisions.shape[0] != self._population.num_users:
            raise ValueError(
                "the AI system must return one decision per user "
                f"({decisions.shape[0]} != {self._population.num_users})"
            )
        actions = np.asarray(
            self._population.respond(decisions, k, population_rng), dtype=float
        ).ravel()
        if actions.shape[0] != self._population.num_users:
            raise ValueError("the population must return one action per user")
        if self._retrain:
            self._ai_system.update(
                public_features, decisions, actions, observation_before, k
            )
        observation_after = self._filter.update(decisions, actions, k)
        return public_features, decisions, actions, observation_after

    # ------------------------------------------------------------------
    # Process-pool shard execution
    # ------------------------------------------------------------------

    def _pool_eligible(self) -> bool:
        """Return whether this loop can run its shards on worker processes."""
        population = self._population
        if not self._shard_aware:
            return False
        if not all(
            hasattr(population, name)
            for name in ("shard_slice", "export_shard_state", "import_shard_state")
        ):
            return False
        loop_filter = self._filter
        # Exact type, not isinstance: pooled workers instantiate the plain
        # DefaultRateFilter and the orchestrator reassembles its two
        # observation keys, so a subclass overriding observation()/update()
        # would silently lose its behavior in the pool — send it down the
        # bit-identical serial path instead.
        if type(loop_filter) is not DefaultRateFilter:
            return False
        tracker = loop_filter.tracker
        if tracker.steps_recorded != 0 or tracker.num_users != population.num_users:
            return False
        return True

    @staticmethod
    def _warn_serial_fallback(reason: str, error: Exception) -> None:
        """Surface a pooled-path fallback instead of degrading silently.

        The fallback is always *correct* (the serial path is bit-identical),
        so it must not raise — but a pool that can never start (pickling
        regression, fork failure, daemonic parent) would otherwise cost the
        caller their speedup with zero diagnostic.
        """
        warnings.warn(
            f"shard_parallel fell back to the serial path: {reason} ({error!r})",
            RuntimeWarning,
            stacklevel=4,
        )

    def _build_arena(self, num_workers: int) -> SharedMemoryArena | None:
        """Allocate the pool's shared arena, or ``None`` for pickling.

        Requires the population to declare its public-feature channel
        names (``feature_channels``); populations without the hook — e.g.
        hand-written test doubles — keep the pickle transport, which is
        bit-identical.  An allocation failure (no ``/dev/shm``, exhausted
        segment quota) also degrades to pickling, with a warning.
        """
        channels = getattr(self._population, "feature_channels", None)
        if channels is None:
            return None
        try:
            return SharedMemoryArena.create(
                tuple(channels), self._population.num_users, num_workers
            )
        except Exception as error:
            warnings.warn(
                "shared-memory arena allocation failed; the pooled path is "
                f"using the pickle transport instead ({error!r})",
                RuntimeWarning,
                stacklevel=4,
            )
            return None

    def _start_pool(
        self,
        shards: Sequence[PopulationShard],
        prior_rate: float,
        suffstats_spec: Dict[str, object] | None,
        policy: SupervisorPolicy,
    ) -> _ShardWorkerPool:
        """Start a worker pool seeded with the filter's *current* state.

        Slicing the live tracker state per shard makes the same call serve
        both a fresh start (all-zero counts, identical to plain worker
        construction) and a supervised restart from a mid-run snapshot
        (each rebuilt worker resumes its shard's exact integer counts).
        Every call allocates a fresh arena (for populations with feature
        channels), so a supervised rebuild never reuses a segment a dying
        worker might still be writing.
        """
        state = self._filter.export_state()
        filter_states = [
            _slice_tracker_state(state, shard.lo, shard.hi) for shard in shards
        ]
        self._pool_token_counter += 1
        token = f"closedloop-{id(self):x}-{self._pool_token_counter}"
        arena = self._build_arena(len(shards))
        return _ShardWorkerPool(
            shards,
            self._stream_base,
            prior_rate,
            token,
            suffstats_spec,
            filter_states=filter_states,
            timeout=policy.timeout,
            arena=arena,
        )

    def _try_run_pooled(
        self,
        num_steps: int,
        record_book: SimulationHistory | AggregateHistory,
        num_shards: int,
        checkpoint: CheckpointSpec | None = None,
        supervisor: SupervisorPolicy | None = None,
    ) -> SimulationHistory | AggregateHistory | None:
        """Run the shards on supervised worker processes.

        Returns ``None`` for the pre-start serial fallback: ineligible
        population/filter combinations, unpicklable shard payloads and
        worker start-up failures (e.g. a daemonic parent process that may
        not fork children) all land back on the serial path before
        anything is recorded, emitting PR 3's :class:`RuntimeWarning`.

        Once the pool is running, failures are *supervised* instead: a
        worker death (``BrokenProcessPool``), hang (future past
        ``supervisor.timeout``) or raise rolls the loop back to its last
        consistent snapshot — the start of the run, or the last checkpoint
        boundary — tears the pool down, backs off exponentially, rebuilds
        the pool with each worker's filter slice restored, and replays.
        The stateless per-(shard, step) streams make the replay
        bit-identical.  When the retry budget is exhausted the run
        degrades to the serial path *from the snapshot* (also
        bit-identical), again with a structured warning — a crashed worker
        can slow an experiment down, but it can no longer change or kill
        it.
        """
        if not self._pool_eligible():
            return None
        policy = supervisor or SupervisorPolicy()
        prior_rate = self._filter.tracker.prior_rate
        try:
            shards = shard_population(self._population, num_shards)
        except Exception as error:
            self._warn_serial_fallback("slicing the population failed", error)
            return None
        # No pickle pre-probe: an unpicklable shard payload surfaces as an
        # exception from the init futures inside _ShardWorkerPool, which
        # the except below already turns into the serial fallback —
        # probing would serialize every population slice a second time.
        suffstats_spec = suffstats_recipe(self._ai_system) if self._retrain else None
        try:
            pool = self._start_pool(shards, prior_rate, suffstats_spec, policy)
        except Exception as error:
            self._warn_serial_fallback("starting the worker pool failed", error)
            return None
        # The supervisor's rollback target: a serialized snapshot of the
        # whole run state, refreshed at every checkpoint boundary.
        # Serializing (not aliasing) is what makes it immune to the
        # in-place mutation of the history and filter as steps execute.
        snapshot_ref = [serialize_payload(self.export_snapshot(record_book))]
        attempt = 0
        while True:
            try:
                return self._run_pooled_steps(
                    pool,
                    num_steps,
                    record_book,
                    shards,
                    prior_rate,
                    suffstats_spec,
                    checkpoint,
                    snapshot_ref,
                )
            except WorkerPoolFailure as failure:
                pool.shutdown()
                record_book = self.restore_snapshot(
                    deserialize_payload(snapshot_ref[0])
                )
                start = record_book.num_steps
                attempt += 1
                error = failure.cause if failure.cause is not None else failure
                if attempt <= policy.max_retries:
                    warnings.warn(
                        f"shard worker pool failure ({failure.reason}: {error!r}); "
                        f"rebuilding the pool and retrying from step {start} "
                        f"(attempt {attempt}/{policy.max_retries})",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    policy.sleep_before_retry(attempt)
                    try:
                        shards = shard_population(self._population, num_shards)
                        pool = self._start_pool(
                            shards, prior_rate, suffstats_spec, policy
                        )
                        continue
                    except Exception as rebuild_error:
                        error = rebuild_error
                self._warn_serial_fallback(
                    "the shard worker pool failed mid-run and the retry budget "
                    f"is exhausted; continuing serially from step {start}",
                    error,
                )
                return self._run_serial_range(
                    record_book, start, num_steps, checkpoint
                )

    def _run_pooled_steps(
        self,
        pool: _ShardWorkerPool,
        num_steps: int,
        record_book: SimulationHistory | AggregateHistory,
        shards: Sequence[PopulationShard],
        prior_rate: float,
        suffstats_spec: Dict[str, object] | None,
        checkpoint: CheckpointSpec | None,
        snapshot_ref: List[bytes],
    ) -> SimulationHistory | AggregateHistory:
        """One supervised attempt at the pooled step loop.

        Raises :class:`WorkerPoolFailure` on any worker death/hang/raise;
        the caller owns rollback and retry.  Starts from
        ``record_book.num_steps``, so a post-rollback attempt resumes at
        the snapshot's boundary.
        """
        try:
            observation_before = self._filter.observation()
            arena = pool.arena
            for k in range(record_book.num_steps, num_steps):
                feature_slices = pool.map_begin(k)
                if arena is not None:
                    # The workers wrote their slices in place; one copy per
                    # channel row replaces the pickled concatenation —
                    # same float64 values in the same user order.
                    public_features = {
                        name: arena.read_channel(name)
                        for name in arena.feature_channels
                    }
                else:
                    public_features = _concatenate_features(feature_slices)
                decisions = np.asarray(
                    self._ai_system.decide(public_features, observation_before, k),
                    dtype=float,
                ).ravel()
                if decisions.shape[0] != self._population.num_users:
                    raise ValueError(
                        "the AI system must return one decision per user "
                        f"({decisions.shape[0]} != {self._population.num_users})"
                    )
                responses = pool.map_respond(k, decisions)
                if arena is not None:
                    actions = arena.read_channel("actions")
                    user_rates = arena.read_channel("user_rates")
                    offers_total, repayments_total = arena.scalar_totals()
                    tables = responses
                else:
                    actions = np.concatenate([response[0] for response in responses])
                    user_rates = np.concatenate(
                        [response[1] for response in responses]
                    )
                    offers_total = sum(response[2] for response in responses)
                    repayments_total = sum(response[3] for response in responses)
                    tables = [response[4] for response in responses]
                if self._retrain:
                    if suffstats_spec is not None:
                        # Shard count tables merge by exact integer
                        # addition into the whole-population table, so the
                        # central refit touches only O(unique rows).
                        self._ai_system.update_from_suffstats(
                            merge_tables(tables), k
                        )
                    else:
                        self._ai_system.update(
                            public_features, decisions, actions, observation_before, k
                        )
                # Exactly DefaultRateTracker.portfolio_rate on the pooled
                # integer counts; the per-user rates concatenate exactly.
                observation_after = {
                    "user_default_rates": user_rates,
                    "portfolio_rate": (
                        prior_rate
                        if offers_total == 0
                        else float(1.0 - repayments_total / offers_total)
                    ),
                }
                record_book.record_step(
                    k, public_features, decisions, actions, observation_after
                )
                observation_before = observation_after
                if checkpoint is not None and checkpoint.due(record_book.num_steps):
                    # Fold the workers' live state into the orchestrator so
                    # the snapshot is globally consistent, persist it, and
                    # advance the supervisor's rollback target to this
                    # boundary.
                    self._fold_worker_states(pool, shards)
                    payload = self.export_snapshot(record_book)
                    snapshot_ref[0] = serialize_payload(payload)
                    checkpoint.write(payload)
            final_states = pool.finalize()
        except WorkerPoolFailure:
            raise  # the pool is the caller's to tear down and rebuild
        except BaseException:
            pool.shutdown()
            raise
        self._merge_worker_states(final_states, shards)
        pool.shutdown(graceful=True)
        return record_book

    def _fold_worker_states(
        self, pool: _ShardWorkerPool, shards: Sequence[PopulationShard]
    ) -> None:
        """Pull every worker's state into the orchestrator (workers kept)."""
        self._merge_worker_states(pool.export_states(), shards)

    def _merge_worker_states(self, states, shards: Sequence[PopulationShard]) -> None:
        """Fold per-shard (population, filter) states into the loop's own."""
        merged_filter: DefaultRateFilter | None = None
        for shard, (population_state, filter_state) in zip(shards, states):
            worker_filter = DefaultRateFilter.from_state(filter_state)
            merged_filter = (
                worker_filter
                if merged_filter is None
                else merged_filter.merge(worker_filter)
            )
            self._population.import_shard_state(shard.lo, population_state)
        if merged_filter is not None:
            self._filter.import_state(merged_filter.export_state())


def _slice_tracker_state(
    state: Dict[str, object], lo: int, hi: int
) -> Dict[str, object]:
    """Return rows ``[lo, hi)`` of an exported default-rate tracker state.

    The tracker state is row-independent integer counts, so a shard's slice
    of the global state is exactly the state the shard's own filter would
    hold — which is what lets a rebuilt worker pool resume mid-run from the
    orchestrator's snapshot.
    """
    return {
        "num_users": hi - lo,
        "prior_rate": state["prior_rate"],
        "offers": np.asarray(state["offers"])[lo:hi].copy(),
        "repayments": np.asarray(state["repayments"])[lo:hi].copy(),
        "steps_recorded": state["steps_recorded"],
    }


def _concatenate_features(
    feature_slices: Sequence[Dict[str, np.ndarray]]
) -> Dict[str, np.ndarray]:
    """Concatenate per-worker feature dicts into whole-population arrays."""
    if not feature_slices or not feature_slices[0]:
        return {}
    keys = list(feature_slices[0])
    return {
        key: np.concatenate(
            [np.asarray(piece[key], dtype=float) for piece in feature_slices]
        )
        for key in keys
    }
