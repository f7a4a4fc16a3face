"""The benchmark's three closed-loop workloads.

Each workload turns the benchmark seed into concrete program inputs (a
``CaseStudyConfig`` or a ``CampaignSpec``), resolves the execution plan the
program will pick for them, runs one *operation* (a trial or a campaign
pass), and checks an operation's output against a reference computed once
per run on the serial layout.

The program only ever sees the generated configs; the seed stays here.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.campaign.cache import CampaignJobSeries, ResultCache
from repro.campaign.runner import CampaignResult, run_campaign
from repro.campaign.spec import CampaignSpec, expand_campaign
from repro.core.planner import plan_campaign_jobs, plan_execution
from repro.data.census import Race
from repro.experiments import CaseStudyConfig, run_experiment, run_trial

__all__ = ["WORKLOADS"]


def _derived_seeds(seed: int, count: int) -> List[int]:
    """Return ``count`` distinct config seeds drawn from the benchmark seed."""
    rng = np.random.default_rng(seed)
    seeds: List[int] = []
    while len(seeds) < count:
        value = int(rng.integers(1, 2**31 - 1))
        if value not in seeds:
            seeds.append(value)
    return seeds


def _same_array(left, right) -> bool:
    """Return whether two arrays are equal bit for bit (NaNs included)."""
    a = np.ascontiguousarray(left)
    b = np.ascontiguousarray(right)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _series_mismatch(label: str, expected: Dict[Race, np.ndarray], got) -> Optional[str]:
    """Describe the first race whose series differs, or return ``None``."""
    for race in Race:
        if race not in got or not _same_array(expected[race], got[race]):
            return f"{label}: {race.name} series differs from the serial reference"
    return None


class Workload:
    """One workload: inputs, plan, operation, reference and output check."""

    name = ""
    #: Users x steps one operation delivers (cached campaign jobs included).
    user_steps = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.plan: Dict[str, object] = {}
        self.expected = None
        self.setup()

    def setup(self) -> None:
        """Build the program inputs and resolve their execution plan."""
        raise NotImplementedError

    def compute_reference(self) -> None:
        """Compute the expected outputs once, on the serial layout."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed per-operation preparation (nothing by default)."""

    def operate(self):
        """Run one timed operation and return its result."""
        raise NotImplementedError

    def check(self, result) -> Optional[str]:
        """Return why ``result`` is wrong, or ``None`` when it is right."""
        raise NotImplementedError

    def cache_bytes_per_entry(self) -> float:
        """Mean size of a result-cache entry after the last operation."""
        return 0.0

    def cleanup(self) -> None:
        """Remove any files the workload wrote."""


class _TrialWorkload(Workload):
    """``run_trial`` of one config under one execution knob."""

    execution = "serial"
    config_kwargs: Dict[str, object] = {}

    def setup(self) -> None:
        (config_seed,) = _derived_seeds(self.seed, 1)
        self.config = CaseStudyConfig(
            num_trials=1, end_year=2021, seed=config_seed, **self.config_kwargs
        )
        self.user_steps = self.config.num_users * self.config.num_steps
        # The same call run_trial makes for this config.
        self.plan = plan_execution(
            self.execution,
            trials=1,
            users=self.config.num_users,
            steps=self.config.num_steps,
            history_mode=self.config.history_mode,
            retrain_mode=self.config.retrain_mode,
        ).to_dict()

    def compute_reference(self) -> None:
        reference = run_trial(self.config, execution="serial")
        self.expected = dict(reference.group_default_rates)

    def operate(self):
        return run_trial(self.config, execution=self.execution)

    def check(self, result) -> Optional[str]:
        return _series_mismatch(self.name, self.expected, result.group_default_rates)


class TrialExact(_TrialWorkload):
    """The paper's default config: full history, exact row-level refit."""

    name = "trial-exact"
    execution = "serial"
    config_kwargs = {"num_users": 100_000}


class TrialLeanAuto(_TrialWorkload):
    """Aggregate history, compressed refit, planner-chosen layout."""

    name = "trial-lean-auto"
    execution = "auto"
    config_kwargs = {
        "num_users": 200_000,
        "history_mode": "aggregate",
        "retrain_mode": "compressed",
    }


class CampaignHalfWarm(Workload):
    """A 24-job campaign pass whose ``exact`` half is already cached."""

    name = "campaign-half-warm"

    def _spec(self, retrain_modes) -> CampaignSpec:
        return CampaignSpec(
            name="loopbench",
            scenarios=("baseline", "recession"),
            policies=("retraining", "static"),
            population_sizes=(2000,),
            seeds=tuple(self.job_seeds),
            num_trials=4,
            start_year=2002,
            end_year=2021,
            history_mode="aggregate",
            retrain_modes=retrain_modes,
            execution="auto",
        )

    def setup(self) -> None:
        self.job_seeds = _derived_seeds(self.seed, 3)
        self.spec = self._spec(("exact", "compressed"))
        self.warm_spec = self._spec(("exact",))
        self.jobs = expand_campaign(self.spec)
        self.warm_jobs = sum(1 for job in self.jobs if job.config.retrain_mode == "exact")
        self.user_steps = sum(
            job.config.num_users * job.config.num_trials * job.config.num_steps
            for job in self.jobs
        )
        budget = plan_campaign_jobs(len(self.jobs) - self.warm_jobs)
        job = self.jobs[0]
        job_plan = plan_execution(
            self.spec.execution,
            trials=job.config.num_trials,
            users=job.config.num_users,
            steps=job.config.num_steps,
            history_mode=job.config.history_mode,
            retrain_mode=job.config.retrain_mode,
            cpu_count=budget.cores_per_job,
        )
        self.plan = {
            "job_workers": budget.job_workers,
            "cores_per_job": budget.cores_per_job,
            "cpu_count": budget.cpu_count,
            "job_plan": job_plan.to_dict(),
        }
        self.template_dir = self.workdir / "campaign-template"
        self.cache_dir = self.workdir / "campaign-cache"

    def compute_reference(self) -> None:
        self.expected = {}
        for job in self.jobs:
            result = run_experiment(
                job.config,
                policy_factory=job.policy_factory(),
                income_table=job.income_table(),
                execution="serial",
            )
            self.expected[job.job_id] = CampaignJobSeries.from_experiment(result)
        # Seed the cache template once from the exact half; every pass then
        # starts from a copy of it.
        shutil.rmtree(self.template_dir, ignore_errors=True)
        seeded = run_campaign(self.warm_spec, self.template_dir)
        for outcome in seeded.outcomes:
            problem = self._series_problem(outcome.job.job_id, outcome.series)
            if problem is not None:
                raise RuntimeError(f"seeding the cache template: {problem}")

    def prepare(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        shutil.copytree(self.template_dir, self.cache_dir)

    def operate(self) -> CampaignResult:
        return run_campaign(self.spec, self.cache_dir)

    def cache_bytes_per_entry(self) -> float:
        cache = ResultCache(self.cache_dir)
        entries = len(cache)
        return cache.total_bytes() / entries if entries else 0.0

    def _series_problem(self, job_id: str, series: CampaignJobSeries) -> Optional[str]:
        expected = self.expected[job_id]
        problem = _series_mismatch(
            job_id, expected.group_default_rates, series.group_default_rates
        )
        if problem is None and not _same_array(
            expected.approval_rates, series.approval_rates
        ):
            problem = f"{job_id}: approval series differs from run_experiment"
        return problem

    def check(self, result: CampaignResult) -> Optional[str]:
        hits_expected = self.warm_jobs
        misses_expected = len(self.jobs) - self.warm_jobs
        if (result.hits, result.misses) != (hits_expected, misses_expected):
            return (
                f"{self.name}: {result.hits} hits / {result.misses} misses, "
                f"expected {hits_expected} / {misses_expected}"
            )
        for outcome in result.outcomes:
            if outcome.cached != (outcome.job.config.retrain_mode == "exact"):
                return f"{outcome.job.job_id}: served from the wrong half of the cache"
            problem = self._series_problem(outcome.job.job_id, outcome.series)
            if problem is not None:
                return problem
        return None

    def cleanup(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        shutil.rmtree(self.template_dir, ignore_errors=True)


WORKLOADS = {
    workload.name: workload
    for workload in (TrialExact, TrialLeanAuto, CampaignHalfWarm)
}

