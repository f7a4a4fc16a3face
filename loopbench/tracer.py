"""Outside-in per-layer tracing for the benchmark's traced run.

The tracer times calls into each layer by wrapping the layer's public
functions and class methods *in place* (the attribute on the module or
class is swapped for a timing wrapper and restored on exit).  Nothing in
the program is edited, and no object the program receives changes type, so
every type check and pool-eligibility test takes the same branch as in the
untraced run.

Work that runs in a worker process is not seen here; the parent's wall time
not covered by any traced span is reported as ``pool.wait`` instead.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional

import repro.campaign.runner as campaign_runner
import repro.experiments.runner as experiment_runner
from repro.campaign.cache import ResultCache
from repro.core.ai_system import CreditScoringSystem
from repro.core.filters import DefaultRateFilter
from repro.core.history import SimulationHistory
from repro.core.population import CreditPopulation
from repro.core.shardmem import TransportMeter, set_transport_meter
from repro.core.streaming import AggregateHistory
from repro.scoring.logistic import LogisticRegression
from repro.scoring.suffstats import CompressedDesign

__all__ = ["OpTrace", "Tracer"]


class OpTrace:
    """Spans and counts recorded during one operation."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = defaultdict(list)
        self.covered_s = 0.0  # wall time under outermost spans
        self.fit_iterations = 0
        self.unique_rows = 0
        self.table_rows = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.hit_load_s: List[float] = []
        self.plans: List[Dict[str, object]] = []
        self.executors = 0
        self.pickled_bytes = 0
        self.shared_bytes = 0
        self.metered_steps = 0
        self.elapsed = 0.0  # the operation's wall time, set by the caller
        self.cache_bytes_per_entry = 0.0

    def total(self, name: str) -> float:
        """Return the summed duration of every ``name`` span, in seconds."""
        return sum(self.spans.get(name, ()))


class Tracer:
    """Timing wrappers around the program's layer entry points, for one op.

    Use as a context manager around one operation; its spans and counts are
    in :attr:`op` afterwards.  Only the process that installed the wrappers
    records: forked pool workers inherit the wrappers but skip them.
    """

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._patches: List[tuple] = []
        self._depth = 0
        self._started_executors: set = set()
        self._meter = TransportMeter()
        self.op = OpTrace()

    # -- wrapping --------------------------------------------------------

    def _wrap(
        self,
        owner,
        attr: str,
        span: str,
        on_result: Optional[Callable] = None,
        when: Optional[Callable] = None,
    ) -> None:
        """Time every call of ``owner.attr`` (or those ``when(args)`` picks)."""
        original = vars(owner)[attr]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        tracer = self

        @functools.wraps(func)
        def timed(*args, **kwargs):
            if os.getpid() != tracer._pid or (when is not None and not when(args)):
                return func(*args, **kwargs)
            tracer._depth += 1
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._depth -= 1
                tracer.op.spans[span].append(elapsed)
                if tracer._depth == 0:
                    tracer.op.covered_s += elapsed
            if on_result is not None:
                on_result(args, kwargs, result, elapsed)
            return result

        setattr(owner, attr, classmethod(timed) if is_classmethod else timed)
        self._patches.append((owner, attr, original))

    # -- hooks -----------------------------------------------------------

    def _first_submit(self, args) -> bool:
        executor = id(args[0])
        if executor in self._started_executors:
            return False
        self._started_executors.add(executor)
        return True

    def _on_executor(self, args, kwargs, result, elapsed) -> None:
        self.op.executors += 1

    def _on_fit(self, args, kwargs, fit, elapsed) -> None:
        self.op.fit_iterations += int(fit.iterations)

    def _on_table(self, table: CompressedDesign) -> None:
        self.op.unique_rows += int(table.num_unique)
        self.op.table_rows += int(table.num_rows)

    def _on_from_arrays(self, args, kwargs, table, elapsed) -> None:
        self._on_table(table)

    def _on_update_from_suffstats(self, args, kwargs, result, elapsed) -> None:
        self._on_table(args[1] if len(args) > 1 else kwargs["table"])

    def _on_cache_load(self, args, kwargs, series, elapsed) -> None:
        if series is None:
            self.op.cache_misses += 1
        else:
            self.op.cache_hits += 1
            self.op.hit_load_s.append(elapsed)

    def _on_plan(self, args, kwargs, plan, elapsed) -> None:
        self.op.plans.append(plan.to_dict())

    def _on_budget(self, args, kwargs, budget, elapsed) -> None:
        self.op.plans.append(
            {
                "job_workers": budget.job_workers,
                "cores_per_job": budget.cores_per_job,
                "cpu_count": budget.cpu_count,
            }
        )

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrap = self._wrap
        # core.population (+ data.income, credit.repayment underneath).
        wrap(experiment_runner, "generate_population", "population.generate")
        wrap(CreditPopulation, "begin_step", "population.begin_step")
        wrap(CreditPopulation, "respond", "population.respond")
        # core.ai_system / credit.lender and the refit.
        wrap(CreditScoringSystem, "decide", "ai_system.decide")
        wrap(CreditScoringSystem, "update", "ai_system.update")
        wrap(
            CreditScoringSystem,
            "update_from_suffstats",
            "ai_system.update_from_suffstats",
            self._on_update_from_suffstats,
        )
        wrap(LogisticRegression, "fit", "scoring.fit", self._on_fit)
        wrap(CompressedDesign, "from_arrays", "suffstats.compress", self._on_from_arrays)
        # core.filters.
        wrap(DefaultRateFilter, "update", "filter.update")
        wrap(DefaultRateFilter, "observation", "filter.observation")
        # core.history / core.streaming.
        wrap(SimulationHistory, "record_step", "history.record_step")
        wrap(AggregateHistory, "record_step", "history.record_step")
        # core.planner, as the runners call it.
        wrap(experiment_runner, "plan_execution", "planner.plan", self._on_plan)
        wrap(campaign_runner, "plan_campaign_jobs", "planner.plan", self._on_budget)
        # campaign.cache / core.checkpoint.
        wrap(ResultCache, "load", "cache.load", self._on_cache_load)
        # Pools (core.loop shard pool, trial pool, campaign job pool).  Under
        # the fork start method an executor forks all of its workers on its
        # first submit, so construction plus that first submit is the
        # parent's share of starting a pool.
        wrap(ProcessPoolExecutor, "__init__", "pool.start", self._on_executor)
        wrap(ProcessPoolExecutor, "submit", "pool.start", when=self._first_submit)
        set_transport_meter(self._meter)
        return self

    def __exit__(self, *exc_info) -> None:
        set_transport_meter(None)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.op.pickled_bytes = self._meter.pickled_bytes
        self.op.shared_bytes = self._meter.shared_bytes
        self.op.metered_steps = self._meter.steps
