"""Planner-routed execution of campaign grids with cache-aware resume.

:func:`plan_campaign` expands a spec, content-addresses every job, probes
the cache, and splits the host's cores across the pending jobs via
:func:`~repro.core.planner.plan_campaign_jobs`; :func:`run_campaign`
executes the plan.  Cache hits are answered from disk without running
anything; misses run as whole jobs — the outermost, synchronization-free
axis of parallelism — on a supervised process pool.  Each job runs the
intra-job :class:`~repro.core.planner.ExecutionPlan` that
:func:`~repro.core.planner.plan_execution` resolves for its granted core
slice rather than the whole host; the plan travels with the job, so the
experiment layer never re-plans on its own host view.

Every completed job publishes its result to the cache from inside the
worker, atomically, before the sweep moves on — so a campaign killed at
job K resumes by simply re-running: jobs 0..K-1 are hits, the rest
recompute.  The job pool is the trial pool's supervised loop
(:func:`~repro.core.supervision.run_supervised_tasks`): worker death,
hangs and raises retry under the
:class:`~repro.core.supervision.SupervisorPolicy` budget and then degrade
to an in-process run with a :class:`RuntimeWarning`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.campaign.cache import CampaignJobSeries, ResultCache, job_key
from repro.campaign.spec import CampaignJob, CampaignSpec, expand_campaign
from repro.core.planner import (
    CampaignBudget,
    ExecutionPlan,
    plan_campaign_jobs,
    plan_execution,
)
from repro.core.supervision import SupervisorPolicy, run_supervised_tasks
from repro.experiments.runner import run_experiment
from repro.testing.faults import fire as _fire_fault

__all__ = [
    "CampaignPlan",
    "CampaignResult",
    "JobOutcome",
    "plan_campaign",
    "run_campaign",
]


@dataclass(frozen=True)
class JobOutcome:
    """One job's result and where it came from (cache or execution)."""

    job: CampaignJob
    key: str
    cached: bool
    series: CampaignJobSeries


@dataclass(frozen=True)
class CampaignPlan:
    """A campaign's jobs, their content addresses, and the core budget."""

    spec: CampaignSpec
    jobs: Tuple[CampaignJob, ...]
    keys: Tuple[str, ...]
    cached: Tuple[bool, ...]
    budget: CampaignBudget

    @property
    def num_cached(self) -> int:
        """Return how many jobs the cache already answers."""
        return sum(self.cached)

    @property
    def num_pending(self) -> int:
        """Return how many jobs must execute."""
        return len(self.jobs) - self.num_cached

    def describe(self) -> str:
        """Return a multi-line human summary for the CLI."""
        lines = [
            f"campaign {self.spec.name!r}: {len(self.jobs)} job(s) "
            f"({len(self.spec.scenarios)} scenario(s) x "
            f"{len(self.spec.policies)} policy arm(s) x "
            f"{len(self.spec.population_sizes)} population size(s) x "
            f"{len(self.spec.seeds)} seed(s) x "
            f"{len(self.spec.retrain_modes)} retrain mode(s))",
            f"cache: {self.num_cached} hit(s), {self.num_pending} to run",
            f"budget: {self.budget.describe()}",
            f"execution: {self.spec.execution!r} per job",
        ]
        for job, cached in zip(self.jobs, self.cached):
            marker = "cached" if cached else "run"
            lines.append(f"  [{marker:>6}] {job.job_id}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one campaign sweep."""

    spec: CampaignSpec
    outcomes: Tuple[JobOutcome, ...]
    budget: CampaignBudget

    @property
    def hits(self) -> int:
        """Return how many jobs were answered from the cache."""
        return sum(outcome.cached for outcome in self.outcomes)

    @property
    def misses(self) -> int:
        """Return how many jobs were executed."""
        return len(self.outcomes) - self.hits

    @property
    def hit_rate(self) -> float:
        """Return the cache hit rate of the sweep (1.0 for an empty grid)."""
        if not self.outcomes:
            return 1.0
        return self.hits / len(self.outcomes)

    def series_for(self, job_id: str) -> CampaignJobSeries:
        """Return one job's series by its human-readable id."""
        for outcome in self.outcomes:
            if outcome.job.job_id == job_id:
                return outcome.series
        known = ", ".join(outcome.job.job_id for outcome in self.outcomes)
        raise KeyError(f"no job {job_id!r} in this campaign; jobs: {known}")

    def summary(self) -> str:
        """Return a multi-line human summary for the CLI."""
        lines = [
            f"campaign {self.spec.name!r}: {len(self.outcomes)} job(s), "
            f"{self.hits} cache hit(s), {self.misses} executed "
            f"(hit rate {self.hit_rate:.0%})",
        ]
        for outcome in self.outcomes:
            marker = "cached" if outcome.cached else "ran"
            lines.append(f"  [{marker:>6}] {outcome.job.job_id}")
        return "\n".join(lines)


def plan_campaign(
    spec: CampaignSpec,
    cache_dir: str | Path,
    *,
    cpu_count: int | None = None,
) -> CampaignPlan:
    """Expand a spec, probe the cache, and budget the pending jobs.

    The cache probe here is a cheap existence check (a torn entry still
    counts as cached in the *summary*); :func:`run_campaign` re-probes
    with a full integrity read, so a torn file can only ever cost a
    recompute, never a wrong result.
    """
    jobs = expand_campaign(spec)
    cache = ResultCache(cache_dir)
    keys = tuple(job_key(job) for job in jobs)
    cached = tuple(key in cache for key in keys)
    budget = plan_campaign_jobs(
        sum(1 for hit in cached if not hit),
        cpu_count=cpu_count,
        max_workers=spec.max_workers,
    )
    return CampaignPlan(spec=spec, jobs=jobs, keys=keys, cached=cached, budget=budget)


def _job_plan(
    job: CampaignJob, spec: CampaignSpec, cores_per_job: int
) -> ExecutionPlan:
    """Resolve one job's layout against its granted core slice.

    Planning against ``cores_per_job`` — not the host's core count — is
    what keeps J concurrent jobs from greedily sizing J full-width pools.
    """
    return plan_execution(
        spec.execution,
        trials=job.config.num_trials,
        users=job.config.num_users,
        steps=job.config.num_steps,
        history_mode=job.config.history_mode,
        retrain_mode=job.config.retrain_mode,
        cpu_count=cores_per_job,
        num_shards=spec.num_shards,
    )


def _execute_job(
    job: CampaignJob, plan: ExecutionPlan, supervisor: SupervisorPolicy | None
) -> CampaignJobSeries:
    """Run one job under its resolved plan and stack its series."""
    result = run_experiment(
        job.config,
        policy_factory=job.policy_factory(),
        income_table=job.income_table(),
        supervisor=supervisor,
        execution=plan,
    )
    return CampaignJobSeries.from_experiment(result)


def _run_campaign_job(
    payload: Tuple[CampaignJob, ExecutionPlan, str, str, SupervisorPolicy | None]
) -> CampaignJobSeries:
    """Job-pool entry point: run one campaign job and publish its result.

    The worker stores the cache entry itself (atomically) before
    returning, so a sweep killed after this job completes keeps it across
    the resume — the parent process never holds unpublished results.
    """
    job, plan, cache_dir, key, supervisor = payload
    # Chaos-suite hook: lets a test deterministically kill/hang/fail the
    # sweep at a chosen job to exercise campaign-level resume.
    _fire_fault("campaign_job", trial=job.index)
    series = _execute_job(job, plan, supervisor)
    ResultCache(cache_dir).store(key, series)
    return series


def run_campaign(
    spec: CampaignSpec,
    cache_dir: str | Path,
    *,
    supervisor: SupervisorPolicy | None = None,
    cpu_count: int | None = None,
) -> CampaignResult:
    """Run a campaign: serve cache hits, execute misses, publish results.

    Parameters
    ----------
    spec:
        The campaign grid and its run options.
    cache_dir:
        Directory of the content-addressed result cache.  Reusing it
        across runs is the whole point: a completed sweep re-run from the
        same directory is a pure cache read, and an interrupted sweep
        resumes from the jobs already published.
    supervisor:
        Retry/backoff policy of the job pool (``None`` applies the
        defaults), also forwarded into each job's intra-job pools.
    cpu_count:
        Host core count override for the budget (tests; ``None`` detects).

    The per-job results are bit-identical to a fresh
    :func:`~repro.experiments.runner.run_experiment` of the same
    configuration and seed, whether they were computed here, computed by
    a previous run under a *different* execution layout, or computed by a
    sweep that was killed halfway through.
    """
    plan = plan_campaign(spec, cache_dir, cpu_count=cpu_count)
    cache = ResultCache(cache_dir)
    outcomes: Dict[int, JobOutcome] = {}
    pending: List[CampaignJob] = []
    keys: Dict[int, str] = {}
    for job, key in zip(plan.jobs, plan.keys):
        keys[job.index] = key
        series = cache.load(key)
        if series is not None:
            outcomes[job.index] = JobOutcome(job=job, key=key, cached=True, series=series)
        else:
            pending.append(job)
    budget = plan_campaign_jobs(
        len(pending), cpu_count=cpu_count, max_workers=spec.max_workers
    )
    if pending:
        by_index = {job.index: job for job in pending}
        plans = {
            job.index: _job_plan(job, spec, budget.cores_per_job) for job in pending
        }
        cache_path = str(cache.directory)

        def payload_for(index: int, attempts: int = 0) -> tuple:
            return (by_index[index], plans[index], cache_path, keys[index], supervisor)

        def run_in_process(index: int) -> CampaignJobSeries:
            # Past its retry budget a job runs here, without the worker's
            # chaos hook, so a poisoned worker cannot sink the sweep.
            series = _execute_job(by_index[index], plans[index], supervisor)
            cache.store(keys[index], series)
            return series

        computed: Dict[int, CampaignJobSeries] | None = None
        if budget.job_workers > 1 and len(pending) > 1:
            computed = run_supervised_tasks(
                _run_campaign_job,
                list(by_index),
                payload_for,
                run_in_process,
                workers=budget.job_workers,
                supervisor=supervisor,
                pool_name="campaign job pool",
                noun="job",
                describe=lambda index: f"campaign job {by_index[index].job_id!r}",
            )
        if computed is None:
            # The serial path runs the pooled worker's entry point itself,
            # chaos hook included, so it can be killed (and resumed) at a
            # chosen job too.
            computed = {
                index: _run_campaign_job(payload_for(index)) for index in by_index
            }
        for job in pending:
            outcomes[job.index] = JobOutcome(
                job=job,
                key=keys[job.index],
                cached=False,
                series=computed[job.index],
            )
    ordered = tuple(outcomes[job.index] for job in plan.jobs)
    return CampaignResult(spec=spec, outcomes=ordered, budget=budget)
