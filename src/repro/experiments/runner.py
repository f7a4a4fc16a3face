"""Multi-trial runner of the credit-scoring closed loop.

A *trial* (the paper's term) generates a fresh batch of users and runs the
closed loop over the whole calendar window; the experiment repeats the trial
several times and aggregates the race-wise average-default-rate series into
mean and standard-deviation bands — exactly the quantities plotted in the
paper's Figures 3-5.

Trials are embarrassingly parallel: trial ``t`` seeds its own generator via
``derive_seed(config.seed, "trial", t)``, so no random state is shared and
every execution layout yields bit-identical results to the serial loop.

Each trial records in one of two history modes (``config.history_mode`` or
the ``history_mode`` override): ``"full"`` retains the ``(steps, users)``
columns, ``"aggregate"`` streams the trajectory through a
:class:`~repro.core.streaming.StreamingAggregator` and keeps only the
group-level series the paper's figures need, bounding memory for
million-user trials.  Group-level results are bit-identical between modes;
per-user accessors (``user_default_rates``, ``stacked_user_series``) raise
:class:`~repro.core.history.FullHistoryRequiredError` in aggregate mode.

The layout is chosen by one knob, ``execution`` (config field or runner
override), which each top-level call resolves into one
:class:`~repro.core.planner.ExecutionPlan` via
:func:`~repro.core.planner.plan_execution`; everything below that call —
trial-pool workers, the in-process fallback, campaign jobs — runs the
resolved plan instead of planning again.  ``"pool"`` runs trials on a
supervised process pool (the trial body is pure numpy-crunching Python,
which threads cannot overlap under the GIL) and falls back to the plain
serial loop when the inputs cannot be pickled (e.g. a lambda policy
factory); ``"batch"`` runs every trial in lockstep through the
trial-batched tensor engine (:mod:`repro.experiments.batch`), which stacks
the per-trial populations into ``(trials, users)`` columns and fuses the
population side of each step across the trial axis while each trial
keeps its own derived random streams, AI system, filter and history;
``"shard"`` splits each trial's users over a shard pool
(:meth:`repro.core.loop.ClosedLoop.run`).
"""

from __future__ import annotations

import pickle
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.ai_system import AISystem, CreditScoringSystem
from repro.core.checkpoint import (
    CheckpointError,
    CheckpointSpec,
    config_fingerprint,
    load_latest_checkpoint,
    prune_checkpoints,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.filters import DefaultRateFilter
from repro.core.history import FullHistoryRequiredError, SimulationHistory
from repro.core.loop import ClosedLoop
from repro.core.metrics import group_approval_series, group_average_series
from repro.core.planner import (
    ExecutionPlan,
    plan_execution,
    validate_execution_settings,
)
from repro.core.streaming import AggregateHistory
from repro.core.population import CreditPopulation
from repro.core.supervision import SupervisorPolicy, run_supervised_tasks
from repro.credit.lender import Lender
from repro.credit.mortgage import MortgageTerms
from repro.credit.repayment import GaussianRepaymentModel
from repro.data.census import IncomeTable, Race, default_income_table
from repro.data.synthetic import PopulationSpec, generate_population
from repro.experiments.batch import BatchedTrialRunner, BuiltTrial
from repro.experiments.config import CaseStudyConfig, validate_checkpoint_settings
from repro.testing.faults import fire as _fire_fault
from repro.utils.rng import derive_seed

__all__ = [
    "TrialResult",
    "ExperimentResult",
    "GroupSeriesMoments",
    "run_trial",
    "run_experiment",
    "trajectory_fingerprint_fields",
]


#: Signature of a policy factory: builds a fresh AI system for each trial.
PolicyFactory = Callable[[CaseStudyConfig, CreditPopulation], AISystem]


def default_policy_factory(
    config: CaseStudyConfig, population: CreditPopulation
) -> AISystem:
    """Build the paper's retraining scorecard lender for one trial."""
    return CreditScoringSystem(
        Lender(
            cutoff=config.cutoff,
            warm_up_rounds=config.warm_up_rounds,
            retrain_mode=config.retrain_mode,
            warm_start=config.warm_start,
        )
    )


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial of the case study.

    Attributes
    ----------
    history:
        The trial's trajectory store: a
        :class:`~repro.core.history.SimulationHistory` in full mode, an
        :class:`~repro.core.streaming.AggregateHistory` in aggregate mode.
    user_default_rates:
        ``ADR_i(k)`` as a ``(steps, users)`` matrix, or ``None`` in
        aggregate mode (per-user rows are never materialised there).
    group_default_rates:
        ``ADR_s(k)`` per race as ``(steps,)`` vectors — available, and
        bit-identical, in both modes.
    races:
        The per-user race labels of the trial's population.
    years:
        Calendar years of the steps.
    """

    history: SimulationHistory | AggregateHistory
    user_default_rates: np.ndarray | None
    group_default_rates: Dict[Race, np.ndarray]
    races: np.ndarray
    years: Tuple[int, ...]

    @property
    def history_mode(self) -> str:
        """Return the recording mode this trial ran with."""
        return "aggregate" if isinstance(self.history, AggregateHistory) else "full"

    def group_indices(self) -> Dict[Race, np.ndarray]:
        """Return, per race, the user indices of this trial's population."""
        races_array = np.asarray(self.races, dtype=object)
        return {race: np.flatnonzero(races_array == race) for race in Race}

    def approval_rate_series(self) -> np.ndarray:
        """Return the per-step approval rates (identical in both modes)."""
        return np.asarray(self.history.approval_rates())

    def group_action_averages(self) -> Dict[Race, np.ndarray]:
        """Return the per-race Cesàro action-average series.

        Aggregate mode reads the streaming series; full mode derives the
        same arrays (bit for bit) from the per-user history.
        """
        if isinstance(self.history, AggregateHistory):
            return dict(self.history.group_action_average_series())
        return group_average_series(
            self.history.running_action_averages(), self.group_indices()
        )

    def group_approval_series(self) -> Dict[Race, np.ndarray]:
        """Return the per-race per-step approval-rate series (both modes)."""
        if isinstance(self.history, AggregateHistory):
            return dict(self.history.group_approval_series())
        return group_approval_series(
            self.history.decisions_matrix(), self.group_indices()
        )

    def require_user_default_rates(self) -> np.ndarray:
        """Return the per-user ADR matrix, or raise in aggregate mode."""
        if self.user_default_rates is None:
            raise FullHistoryRequiredError(
                "per-user default-rate series are not retained in "
                'history_mode="aggregate"; rerun with history_mode="full"'
            )
        return self.user_default_rates

    @property
    def final_group_rates(self) -> Dict[Race, float]:
        """Return the last-step race-wise default rates."""
        return {race: float(series[-1]) for race, series in self.group_default_rates.items()}

    @property
    def final_group_gap(self) -> float:
        """Return the spread of the last-step race-wise default rates."""
        finite = [value for value in self.final_group_rates.values() if np.isfinite(value)]
        if len(finite) < 2:
            return 0.0
        return float(max(finite) - min(finite))


class GroupSeriesMoments:
    """Online across-trial moments of the per-race ``ADR_s(k)`` series.

    One Welford accumulator per race and step: trials stream through
    :meth:`update` one at a time, so the across-trial mean and standard
    deviation are available without retaining any per-trial series — the
    route to experiments with thousands of trials
    (``run_experiment(..., keep_trials=False)``).

    The single-pass mean/std agree with the batch ``np.mean``/``np.std``
    over the stacked series to floating-point reassociation error (Welford
    is the numerically stable formulation); the default ``keep_trials=True``
    path still computes the batch statistics, so golden-hash suites are
    unaffected.
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean: Dict[Race, np.ndarray] = {}
        self._m2: Dict[Race, np.ndarray] = {}

    @property
    def num_trials(self) -> int:
        """Return how many trials have been folded in."""
        return self._count

    def update(self, group_rates: Dict[Race, np.ndarray]) -> None:
        """Fold one trial's per-race series into the running moments."""
        self._count += 1
        for race, series in group_rates.items():
            values = np.asarray(series, dtype=float)
            if race not in self._mean:
                self._mean[race] = np.zeros_like(values)
                self._m2[race] = np.zeros_like(values)
            delta = values - self._mean[race]
            self._mean[race] += delta / self._count
            self._m2[race] += delta * (values - self._mean[race])

    def mean_series(self) -> Dict[Race, np.ndarray]:
        """Return, per race, the across-trial mean series."""
        if self._count == 0:
            raise ValueError("no trials have been accumulated")
        return {race: mean.copy() for race, mean in self._mean.items()}

    def std_series(self) -> Dict[Race, np.ndarray]:
        """Return, per race, the across-trial (population) std series."""
        if self._count == 0:
            raise ValueError("no trials have been accumulated")
        return {
            race: np.sqrt(m2 / self._count) for race, m2 in self._m2.items()
        }


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregate of several trials.

    Attributes
    ----------
    config:
        The configuration the trials were run with.
    trials:
        The individual trial results, in trial order.  Empty when the
        experiment ran with ``keep_trials=False``; the across-trial group
        statistics then come from ``group_moments``.
    group_moments:
        Online across-trial moments of the per-race series, accumulated as
        the trials completed (always populated by :func:`run_experiment`).
    """

    config: CaseStudyConfig
    trials: Tuple[TrialResult, ...]
    group_moments: GroupSeriesMoments | None = None
    #: The recording mode the trials actually ran with (set by
    #: run_experiment so a ``history_mode`` override survives
    #: ``keep_trials=False``, where no trial is left to ask).
    resolved_history_mode: str | None = None

    @property
    def years(self) -> Tuple[int, ...]:
        """Return the calendar years of the simulation."""
        return self.config.years

    @property
    def history_mode(self) -> str:
        """Return the recording mode the trials ran with."""
        if self.trials:
            return self.trials[0].history_mode
        if self.resolved_history_mode is not None:
            return self.resolved_history_mode
        return self.config.history_mode

    def group_mean_series(self) -> Dict[Race, np.ndarray]:
        """Return, per race, the across-trial mean of ``ADR_s(k)``.

        With retained trials this is the batch ``np.mean`` over the
        stacked per-trial series (bit-stable for the golden suites); a
        trial-free result answers from the online moments instead.
        """
        if not self.trials:
            return self._require_moments().mean_series()
        return {
            race: np.mean(
                [trial.group_default_rates[race] for trial in self.trials], axis=0
            )
            for race in Race
        }

    def group_std_series(self) -> Dict[Race, np.ndarray]:
        """Return, per race, the across-trial standard deviation of ``ADR_s(k)``."""
        if not self.trials:
            return self._require_moments().std_series()
        return {
            race: np.std(
                [trial.group_default_rates[race] for trial in self.trials], axis=0
            )
            for race in Race
        }

    def _require_moments(self) -> GroupSeriesMoments:
        if self.group_moments is None or self.group_moments.num_trials == 0:
            raise ValueError(
                "this ExperimentResult retains neither per-trial series nor "
                "accumulated group moments"
            )
        return self.group_moments

    def stacked_user_series(self) -> np.ndarray:
        """Return all user-wise ADR series stacked as ``(trials * users, steps)``.

        This is the collection of ``5 x 1000`` curves shown in the paper's
        Figure 4.  Requires full-history trials; aggregate-mode runs raise
        :class:`~repro.core.history.FullHistoryRequiredError`.
        """
        return np.vstack(
            [trial.require_user_default_rates().T for trial in self.trials]
        )

    def stacked_user_races(self) -> np.ndarray:
        """Return the race label of every stacked user series."""
        return np.concatenate([trial.races for trial in self.trials])


def _trial_stem(trial_index: int) -> str:
    """Return the checkpoint-file stem of one trial."""
    return f"trial-{trial_index:04d}"


def trajectory_fingerprint_fields(
    config: CaseStudyConfig, history_mode: str | None = None
) -> Tuple[object, ...]:
    """Return the config fields that steer a trial's trajectory, in order.

    The single source of truth for "what defines the result": population
    shape and race mix, the calendar window, mortgage and model knobs, the
    master seed, and the recording mode.  Execution layout (shards, pools,
    batching, transports, worker caps, checkpoint plumbing) is deliberately
    excluded — every layout is bit-identical by construction — so both the
    per-trial checkpoint fingerprints and the campaign result cache
    (:mod:`repro.campaign.cache`) key on exactly these fields, and an entry
    written under one layout is valid under every other.

    The field order is frozen: reordering or renaming would silently
    invalidate every persisted trial result and campaign cache entry.
    """
    mode = config.history_mode if history_mode is None else history_mode
    race_mix = tuple(
        sorted((race.name, float(share)) for race, share in config.race_mix.items())
    )
    return (
        mode,
        config.num_users,
        config.start_year,
        config.end_year,
        race_mix,
        config.income_multiple,
        config.annual_rate,
        config.living_cost,
        config.repayment_sensitivity,
        config.cutoff,
        config.warm_up_rounds,
        config.income_threshold,
        config.seed,
        config.retrain_mode,
        config.warm_start,
    )


def _trial_fingerprint(
    config: CaseStudyConfig, trial_index: int, history_mode: str
) -> str:
    """Fingerprint the parameters that define one trial's trajectory.

    The trial index joins :func:`trajectory_fingerprint_fields` so each
    trial's checkpoints are distinct; the digest is byte-identical to what
    earlier releases wrote, so existing checkpoint directories remain
    resumable.
    """
    return config_fingerprint(
        "trial", trial_index, *trajectory_fingerprint_fields(config, history_mode)
    )


def _shard_hint(num_shards: int | None, config: CaseStudyConfig) -> int | None:
    """Resolve the planner's shard-count hint from override and config.

    An explicit override wins; otherwise a non-default ``config.num_shards``
    is the hint (the CLI lands ``--shards`` there), and the default ``1``
    means "unset" — the planner then sizes the shard pool from the core
    count instead of being pinned to a single worker.
    """
    if num_shards is not None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        return num_shards
    return config.num_shards if config.num_shards != 1 else None


def _resolve_history_mode(config: CaseStudyConfig, history_mode: str | None) -> str:
    """Return the recording mode a run uses, validating an override."""
    mode = config.history_mode if history_mode is None else history_mode
    if mode not in ("full", "aggregate"):
        raise ValueError(f'history_mode must be "full" or "aggregate", got {mode!r}')
    return mode


def _with_overrides(
    config: CaseStudyConfig, retrain_mode: str | None, warm_start: bool | None
) -> CaseStudyConfig:
    """Merge the ``retrain_mode``/``warm_start`` overrides into the config.

    The policy factory reads these off the config, and the fingerprints
    must describe the effective trajectory, so the overrides land on the
    config before either runs.
    """
    if retrain_mode is None and warm_start is None:
        return config
    return replace(
        config,
        retrain_mode=config.retrain_mode if retrain_mode is None else retrain_mode,
        warm_start=config.warm_start if warm_start is None else warm_start,
    )


def _resolve_plan(
    execution: str | ExecutionPlan | None,
    config: CaseStudyConfig,
    *,
    trials: int,
    history_mode: str,
    checkpoint_every: int,
    resume: bool,
    max_workers: int | None = None,
    num_shards: int | None = None,
) -> ExecutionPlan:
    """Return the plan a run executes: the one given, or a fresh one.

    A mode name (``None`` defers to ``config.execution``) is resolved by
    :func:`plan_execution`; an already-resolved :class:`ExecutionPlan` —
    what the layers below a top-level call receive — is only checked
    against the checkpoint knobs, and the worker-count hints are ignored.
    """
    requested = config.execution if execution is None else execution
    if isinstance(requested, ExecutionPlan):
        validate_execution_settings(
            requested, checkpoint_every=checkpoint_every, resume=resume
        )
        return requested
    return plan_execution(
        requested,
        trials=trials,
        users=config.num_users,
        steps=config.num_steps,
        history_mode=history_mode,
        retrain_mode=config.retrain_mode,
        checkpoint_every=checkpoint_every,
        resume=resume,
        max_workers=max_workers,
        num_shards=_shard_hint(num_shards, config),
    )


def run_trial(
    config: CaseStudyConfig,
    trial_index: int = 0,
    policy_factory: PolicyFactory | None = None,
    terms: MortgageTerms | None = None,
    income_table: IncomeTable | None = None,
    history_mode: str | None = None,
    num_shards: int | None = None,
    retrain_mode: str | None = None,
    warm_start: bool | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int | None = None,
    resume: bool | None = None,
    supervisor: SupervisorPolicy | None = None,
    execution: str | ExecutionPlan | None = None,
) -> TrialResult:
    """Run one trial of the case study.

    Parameters
    ----------
    config:
        The case-study configuration.
    trial_index:
        Index of the trial; it seeds the trial's independent random stream.
    policy_factory:
        Builder of the AI system (defaults to the paper's retraining
        scorecard lender).
    terms:
        Mortgage terms override (defaults to the configuration's terms).
    income_table:
        Income-table override (defaults to the embedded synthetic table).
    history_mode:
        Recording-mode override (``None`` defers to
        ``config.history_mode``).  ``"aggregate"`` bounds memory by
        streaming group-level series instead of materialising the
        ``(steps, users)`` history; the group series are bit-identical to
        the full-history path.
    num_shards:
        Shard-pool worker-count hint for the planner (``None`` defers to a
        non-default ``config.num_shards``).  The trajectory is
        bit-identical for every worker count: the random schedule depends
        only on the population's canonical shard partition and the trial
        seed.
    retrain_mode, warm_start:
        Sufficient-statistics retraining overrides (``None`` defers to the
        config); see :class:`~repro.experiments.config.CaseStudyConfig`.
        ``"exact"`` reproduces the paper bit for bit; ``"compressed"``
        refits in O(unique rows) with coefficients equal to solver
        tolerance and — at paper scale — identical decision vectors.
    checkpoint_dir, checkpoint_every, resume:
        Fault-tolerance overrides (``None`` defers to the config).  With
        ``checkpoint_every > 0`` the trial's loop state is snapshotted
        crash-consistently into ``checkpoint_dir`` every that many steps;
        with ``resume`` the trial restores from its latest intact snapshot
        (fingerprint-checked against this configuration) and continues —
        bit-identically, because the random streams are stateless per
        ``(trial, shard, step)``.
    supervisor:
        :class:`~repro.core.supervision.SupervisorPolicy` for the pooled
        shard path (``None`` applies the defaults): worker death, hangs
        and raises are retried from the last checkpoint boundary with
        exponential backoff, then degrade to the bit-identical serial
        path.
    execution:
        Layout override (``None`` defers to ``config.execution``): a mode
        name resolved for this single trial via
        :func:`~repro.core.planner.plan_execution` with ``trials=1``
        (``"auto"`` picks sharded execution for large populations on
        multi-core hosts, serial otherwise; ``"pool"`` has nothing to
        pool over one trial and resolves to serial), or an
        already-resolved :class:`~repro.core.planner.ExecutionPlan`, of
        which the trial runs the shard layout.  A batch layout batches
        trials *across* an experiment and is rejected here — use
        :func:`run_experiment`.  Every plan is bit-identical, and the plan
        is excluded from the checkpoint fingerprint, so resuming under a
        different plan (or ``cpu_count``) replays the same trajectory.
    """
    mode = _resolve_history_mode(config, history_mode)
    ckpt_dir = config.checkpoint_dir if checkpoint_dir is None else checkpoint_dir
    every = config.checkpoint_every if checkpoint_every is None else checkpoint_every
    do_resume = config.resume if resume is None else bool(resume)
    validate_checkpoint_settings(ckpt_dir, every, do_resume)
    config = _with_overrides(config, retrain_mode, warm_start)
    plan = _resolve_plan(
        execution,
        config,
        trials=1,
        history_mode=mode,
        checkpoint_every=every,
        resume=do_resume,
        num_shards=num_shards,
    )
    if plan.trial_batch:
        raise ValueError(
            'execution="batch" runs an experiment\'s trials in lockstep; '
            "run_trial runs a single trial — use run_experiment, or "
            "another execution mode"
        )
    ((trial_seed, population, ai_system),) = _build_trials(
        config, [trial_index], policy_factory, terms, income_table
    )
    loop = ClosedLoop(
        ai_system=ai_system,
        population=population,
        loop_filter=DefaultRateFilter(num_users=config.num_users),
    )
    fingerprint = _trial_fingerprint(config, trial_index, mode)
    spec = (
        CheckpointSpec(
            directory=ckpt_dir,
            stem=_trial_stem(trial_index),
            every=every,
            fingerprint=fingerprint,
        )
        if ckpt_dir is not None and every > 0
        else None
    )
    history: SimulationHistory | AggregateHistory | None = None
    if do_resume and ckpt_dir is not None:
        payload = load_latest_checkpoint(
            ckpt_dir, _trial_stem(trial_index), expected_fingerprint=fingerprint
        )
        if payload is not None:
            history = loop.restore_snapshot(payload)
    remaining = config.num_steps - (0 if history is None else history.num_steps)
    # The trial seed itself is the base of the shard streams (the
    # population generation above consumed an unrelated generator); an
    # integer base is what lets pooled workers re-derive any shard's stream
    # without shipping generator state.  A resumed trial passes rng=None
    # instead: the loop then reuses the restored base, replaying the
    # uninterrupted schedule exactly.
    if remaining > 0:
        history = loop.run(
            remaining,
            rng=None if history is not None else trial_seed,
            history=history,
            history_mode=mode,
            groups=population.groups if mode == "aggregate" else None,
            num_shards=plan.num_shards,
            shard_parallel=plan.shard_parallel,
            checkpoint=spec,
            supervisor=supervisor,
        )
    return _trial_result_from_history(config, history, population)


def _build_trials(
    config: CaseStudyConfig,
    trial_indices: Sequence[int],
    policy_factory: PolicyFactory | None,
    terms: MortgageTerms | None,
    income_table: IncomeTable | None,
) -> List[BuiltTrial]:
    """Build the seed, population and AI system of each listed trial.

    Trial ``t`` generates its users from ``derive_seed(config.seed,
    "trial", t)`` — also the base of its step streams — and gets its AI
    system from ``policy_factory`` (default: the paper's lender).  The
    serial trial and the trial-batched engine both build through here; the
    immutable terms, income table and repayment model are built once and
    shared by the listed trials.
    """
    factory = policy_factory or default_policy_factory
    spec = PopulationSpec(size=config.num_users, race_mix=dict(config.race_mix))
    terms = terms or MortgageTerms(
        income_multiple=config.income_multiple,
        annual_rate=config.annual_rate,
        living_cost=config.living_cost,
    )
    income_table = income_table or default_income_table()
    repayment_model = GaussianRepaymentModel(sensitivity=config.repayment_sensitivity)
    trials: List[BuiltTrial] = []
    for trial_index in trial_indices:
        trial_seed = derive_seed(config.seed, "trial", trial_index)
        population = CreditPopulation(
            population=generate_population(spec, np.random.default_rng(trial_seed)),
            income_table=income_table,
            terms=terms,
            repayment_model=repayment_model,
            start_year=config.start_year,
        )
        trials.append((trial_seed, population, factory(config, population)))
    return trials


def _trial_result_from_history(
    config: CaseStudyConfig,
    history: SimulationHistory | AggregateHistory,
    population: CreditPopulation,
) -> TrialResult:
    """Assemble a :class:`TrialResult` from a recorded trial history.

    Shared by the serial trial loop and the trial-batched engine, so both
    derive the group series through the identical calls.
    """
    if isinstance(history, AggregateHistory):
        user_rates = None
        group_rates = history.group_default_rate_series()
    else:
        user_rates = history.running_default_rates()
        group_rates = group_average_series(user_rates, population.groups)
    return TrialResult(
        history=history,
        user_default_rates=user_rates,
        group_default_rates={race: group_rates[race] for race in Race},
        races=population.races,
        years=config.years,
    )


@dataclass(frozen=True)
class _TrialCall:
    """One experiment's :func:`run_trial` arguments, bar index and resume.

    The experiment merges its overrides into ``config`` and resolves its
    ``plan`` once; the serial loop, the trial-pool workers and the
    pool's in-process fallback all run trials through this one object.
    A module-level frozen dataclass, so the trial pool pickles it.
    """

    config: CaseStudyConfig
    policy_factory: PolicyFactory | None
    terms: MortgageTerms | None
    income_table: IncomeTable | None
    history_mode: str
    plan: ExecutionPlan
    checkpoint_dir: str | None
    checkpoint_every: int
    supervisor: SupervisorPolicy | None

    def __call__(self, trial_index: int, resume: bool) -> TrialResult:
        return run_trial(
            self.config,
            trial_index=trial_index,
            policy_factory=self.policy_factory,
            terms=self.terms,
            income_table=self.income_table,
            history_mode=self.history_mode,
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_every=self.checkpoint_every,
            resume=resume,
            supervisor=self.supervisor,
            execution=self.plan,
        )


def _run_trial_task(payload: Tuple[_TrialCall, int, bool]) -> TrialResult:
    """Trial-pool entry point: run one trial from a pickled payload."""
    call, trial_index, resume = payload
    # Chaos-suite hook: lets a test deterministically kill/hang/fail this
    # trial's worker to exercise the supervised trial pool.
    _fire_fault("trial_worker", trial=trial_index)
    return call(trial_index, resume)


def _trial_result_path(directory: str, trial_index: int) -> Path:
    """Return the completed-trial result file of one trial."""
    return Path(directory) / f"{_trial_stem(trial_index)}.result"


@dataclass(frozen=True)
class _SeriesOnlyTrial:
    """Group-series stub for persisted trials folded with ``keep_trials=False``.

    Resume only needs ``group_default_rates`` to fold a persisted trial
    into the experiment moments; materialising the full pickled
    :class:`TrialResult` — histories, per-user matrices — just to read one
    small dict and drop it would defeat the bounded-memory contract of
    ``keep_trials=False``.
    """

    group_default_rates: Dict[Race, np.ndarray]


def _write_trial_result(
    directory: str, trial_index: int, fingerprint: str, result: TrialResult
) -> None:
    """Persist a completed trial crash-consistently; drop its step snapshots.

    The result file is what experiment-level ``resume`` skips on: once it
    exists, the trial never reruns, so the intermediate step snapshots are
    dead weight and are pruned away.

    The group series travel beside the full result (which is pickled into
    an opaque ``result_bytes`` blob) so a ``keep_trials=False`` resume can
    fold the moments without reconstructing the trial's histories and
    per-user matrices.
    """
    write_checkpoint(
        _trial_result_path(directory, trial_index),
        {
            "kind": "trial_result",
            "fingerprint": fingerprint,
            "group_rates": dict(result.group_default_rates),
            "result_bytes": pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
        },
    )
    prune_checkpoints(directory, _trial_stem(trial_index), keep=0)


def _load_trial_result(
    directory: str, trial_index: int, fingerprint: str, need_full: bool = True
) -> TrialResult | _SeriesOnlyTrial | None:
    """Load a completed trial's persisted result, or ``None`` to rerun it.

    An unreadable/torn file degrades to a rerun with a warning (re-running
    is always safe); an intact file written by a *different* configuration
    raises — silently mixing two experiments' trials is the one outcome
    resume must never produce.

    With ``need_full=False`` (the ``keep_trials=False`` resume path) only
    the persisted group series are materialised, as a
    :class:`_SeriesOnlyTrial`; the pickled full result stays opaque bytes.
    """
    path = _trial_result_path(directory, trial_index)
    if not path.exists():
        return None
    try:
        payload = read_checkpoint(path)
    except CheckpointError as error:
        warnings.warn(
            f"re-running trial {trial_index}: its persisted result is "
            f"unreadable ({error})",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    if payload.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"persisted result {path.name} was written by a different "
            "configuration; point checkpoint_dir at a fresh directory, or "
            "rerun with the original configuration"
        )
    if "result" in payload:
        # Legacy envelope: the whole TrialResult pickled inline.  Already
        # materialised by read_checkpoint, so hand it over either way.
        return payload["result"]
    if not need_full:
        return _SeriesOnlyTrial(group_default_rates=payload["group_rates"])
    return pickle.loads(payload["result_bytes"])


class _OrderedTrialFolder:
    """Fold trial results into the moments in trial order, arrival-agnostic.

    The Welford accumulator is order-sensitive in floats, so results — which
    may arrive out of order from the supervised pool, or partially from disk
    on resume — are buffered just long enough to fold consecutively from
    trial 0.  With ``keep_trials=False`` each trial is dropped as soon as it
    folds, preserving the bounded-memory contract.
    """

    def __init__(self, moments: GroupSeriesMoments, keep_trials: bool) -> None:
        self._moments = moments
        self._keep = keep_trials
        self._buffer: Dict[int, TrialResult] = {}
        self._next = 0
        self.trials: List[TrialResult] = []

    def add(self, trial_index: int, trial: TrialResult) -> None:
        self._buffer[trial_index] = trial
        while self._next in self._buffer:
            folded = self._buffer.pop(self._next)
            self._moments.update(folded.group_default_rates)
            if self._keep:
                self.trials.append(folded)
            self._next += 1


def run_experiment(
    config: CaseStudyConfig,
    policy_factory: PolicyFactory | None = None,
    terms: MortgageTerms | None = None,
    income_table: IncomeTable | None = None,
    max_workers: int | None = None,
    history_mode: str | None = None,
    num_shards: int | None = None,
    retrain_mode: str | None = None,
    warm_start: bool | None = None,
    keep_trials: bool = True,
    checkpoint_dir: str | None = None,
    checkpoint_every: int | None = None,
    resume: bool | None = None,
    supervisor: SupervisorPolicy | None = None,
    execution: str | ExecutionPlan | None = None,
) -> ExperimentResult:
    """Run all trials of the case study and return the aggregate result.

    Parameters
    ----------
    config:
        The case-study configuration.
    policy_factory, terms, income_table:
        Per-trial overrides, as in :func:`run_trial`.  A non-picklable
        ``policy_factory`` keeps a pooled plan's trials in-process.
    max_workers, num_shards:
        Trial-pool and shard-pool worker-count hints for the planner
        (``None`` defers to the config); see :func:`run_trial`.
    history_mode:
        Recording-mode override for every trial (``None`` defers to
        ``config.history_mode``); see :func:`run_trial`.
    retrain_mode, warm_start:
        Sufficient-statistics retraining overrides forwarded to every
        trial (``None`` defers to the config); see :func:`run_trial`.
    keep_trials:
        Retain the per-trial results on the returned
        :class:`ExperimentResult` (default).  ``False`` drops each trial
        after folding its group series into the online
        :class:`GroupSeriesMoments`, so experiments with very large trial
        counts keep ``O(steps * groups)`` memory; per-trial accessors
        (``trials``, ``stacked_user_series``) are then unavailable.
    checkpoint_dir, checkpoint_every, resume:
        Fault-tolerance overrides (``None`` defers to the config).  Each
        running trial snapshots its loop state every ``checkpoint_every``
        steps, and each *completed* trial persists its result to
        ``checkpoint_dir``; with ``resume`` the experiment skips trials
        whose results are already on disk and continues interrupted
        trials from their latest intact snapshot — all bit-identical to
        the uninterrupted experiment.  See :func:`run_trial`.
    supervisor:
        :class:`~repro.core.supervision.SupervisorPolicy` governing the
        pooled execution paths: worker death, hangs (with
        ``supervisor.timeout``) and raises are detected, lost trials are
        re-run on a rebuilt pool with exponential backoff, and work past
        the retry budget degrades to the bit-identical serial path with a
        :class:`RuntimeWarning` instead of crashing the experiment.
    execution:
        Layout override (``None`` defers to ``config.execution``): one
        mode — ``"auto"``, ``"serial"``, ``"batch"``, ``"pool"`` or
        ``"shard"`` — resolved into an
        :class:`~repro.core.planner.ExecutionPlan` by
        :func:`~repro.core.planner.plan_execution` from (``cpu_count``,
        trials, users, steps, history/retrain modes, checkpoint knobs), or
        an already-resolved plan.  ``"auto"`` may compose layouts (pooled
        trials × sharded users on hosts with spare cores).  Every plan is
        bit-identical to serial, so this knob can never change a result —
        only its wall clock.
    """
    mode = _resolve_history_mode(config, history_mode)
    ckpt_dir = config.checkpoint_dir if checkpoint_dir is None else checkpoint_dir
    every = config.checkpoint_every if checkpoint_every is None else checkpoint_every
    do_resume = config.resume if resume is None else bool(resume)
    validate_checkpoint_settings(ckpt_dir, every, do_resume)
    effective = _with_overrides(config, retrain_mode, warm_start)
    plan = _resolve_plan(
        execution,
        effective,
        trials=config.num_trials,
        history_mode=mode,
        checkpoint_every=every,
        resume=do_resume,
        max_workers=config.max_workers if max_workers is None else max_workers,
        num_shards=num_shards,
    )
    moments = GroupSeriesMoments()
    if plan.trial_batch:
        trials = _run_trials_batched(
            effective, policy_factory, terms, income_table, mode, moments, keep_trials
        )
        return ExperimentResult(
            config=config,
            trials=tuple(trials),
            group_moments=moments,
            resolved_history_mode=mode,
        )
    call = _TrialCall(
        config=effective,
        policy_factory=policy_factory,
        terms=terms,
        income_table=income_table,
        history_mode=mode,
        plan=plan,
        checkpoint_dir=ckpt_dir,
        checkpoint_every=every,
        supervisor=supervisor,
    )
    folder = _OrderedTrialFolder(moments, keep_trials)
    pending: List[int] = []
    for trial_index in range(config.num_trials):
        loaded = None
        if do_resume and ckpt_dir is not None:
            # keep_trials=False folds only the group series, so skip
            # materialising the persisted full result.
            loaded = _load_trial_result(
                ckpt_dir,
                trial_index,
                _trial_fingerprint(effective, trial_index, mode),
                need_full=keep_trials,
            )
        if loaded is not None:
            folder.add(trial_index, loaded)
        else:
            pending.append(trial_index)

    def finish(trial_index: int, trial: TrialResult) -> None:
        if ckpt_dir is not None:
            _write_trial_result(
                ckpt_dir,
                trial_index,
                _trial_fingerprint(effective, trial_index, mode),
                trial,
            )
        folder.add(trial_index, trial)

    if plan.parallel and min(len(pending), plan.max_workers) > 1:
        pooled = _run_trials_pooled(call, pending, plan.max_workers, do_resume)
        if pooled is not None:
            for trial_index, trial in pooled.items():
                finish(trial_index, trial)
            pending = []
    for trial_index in pending:
        finish(trial_index, call(trial_index, do_resume))
    return ExperimentResult(
        config=config,
        trials=tuple(folder.trials),
        group_moments=moments,
        resolved_history_mode=mode,
    )


def _run_trials_batched(
    config: CaseStudyConfig,
    policy_factory: PolicyFactory | None,
    terms: MortgageTerms | None,
    income_table: IncomeTable | None,
    history_mode: str,
    moments: GroupSeriesMoments,
    keep_trials: bool,
) -> List[TrialResult]:
    """Run every trial through the trial-batched engine.

    ``config`` already carries the merged overrides, exactly as
    :func:`run_trial` sees it, the trials are built by the same builder
    and the results are assembled by the same call — so a batched trial is
    the serial trial, bit for bit, minus the per-trial dispatch overhead.
    """
    runner = BatchedTrialRunner(
        _build_trials(
            config, range(config.num_trials), policy_factory, terms, income_table
        ),
        history_mode=history_mode,
    )
    trials: List[TrialResult] = []
    for history, population in runner.run(config.num_steps):
        trial = _trial_result_from_history(config, history, population)
        moments.update(trial.group_default_rates)
        if keep_trials:
            trials.append(trial)
    return trials


def _run_trials_pooled(
    call: _TrialCall, pending: Sequence[int], workers: int, resume: bool
) -> Dict[int, TrialResult] | None:
    """Run trials on the supervised trial pool; ``None`` for serial fallback.

    See :func:`~repro.core.supervision.run_supervised_tasks` for the
    supervision contract.  When step checkpointing is on, a retried trial
    resumes from the dead worker's last snapshot instead of from scratch,
    and so does a trial that exhausts its retries and runs in-process.
    """
    resumable = call.checkpoint_dir is not None and call.checkpoint_every > 0
    return run_supervised_tasks(
        _run_trial_task,
        pending,
        lambda index, attempts: (call, index, resume or (resumable and attempts > 0)),
        lambda index: call(index, resume or resumable),
        workers=workers,
        supervisor=call.supervisor,
        pool_name="parallel trial pool",
        noun="trial",
        describe=lambda index: f"trial {index}",
    )
