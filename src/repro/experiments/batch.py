"""Trial-batched execution: a whole experiment's trials in lockstep.

The paper's figures are Monte-Carlo sweeps — ``T`` seeded trials of the
same closed loop.  The serial runner executes them one
:meth:`~repro.core.loop.ClosedLoop.run` at a time, paying the fixed
per-step Python/numpy dispatch cost of the population side ``T`` times; on
a single-CPU host the process-pool alternative only adds IPC.  The
:class:`BatchedTrialRunner` here amortises that fixed cost across trials
instead of across processes.

Only the population side of the Figure-1 step is stacked into
``(trials, users)`` blocks: the per-step draws (one bulk generator call
per ``(trial, shard)`` and one bracket search per race for all trials),
the affordability update and the probit repayment probabilities and
comparisons.  Everything the AI system does runs per trial, through its
public API, in the serial loop's order:

* ``decide(features, observation, k)`` for every system;
* the delayed-feedback refit — ``update_from_suffstats(table, k)`` for a
  system that speaks the sufficient-statistics protocol (decided by
  :func:`~repro.core.ai_system.suffstats_recipe`, the rule the shard pool
  uses too), with every such trial's table cut from one ``pack_rows``
  pass over the stacked rows; plain ``update(...)`` otherwise;
* the trial's own :class:`~repro.core.filters.DefaultRateFilter` update
  and ``record_step`` into the same history object
  (:class:`~repro.core.history.SimulationHistory` or
  :class:`~repro.core.streaming.AggregateHistory`) that
  :meth:`~repro.core.loop.ClosedLoop.run` builds.

The engine therefore runs any ``policy_factory`` the serial loop runs, and
a policy returning non-0/1 decisions is rejected by the filter exactly as
in every other execution mode.

Bit-identity contract
---------------------

Every batched trial row is **bit-identical** to its serial
:func:`~repro.experiments.runner.run_trial` twin:

* the trials are built by the runner's own trial builder, so trial ``t``'s
  population comes from ``default_rng(derive_seed(seed, "trial", t))``
  and its AI system from the same factory call;
* each step draws from the canonical per-shard streams
  :func:`~repro.utils.rng.shard_step_generator`.  The engine draws each
  ``(trial, shard, step)`` generator's whole consumption (bracket
  uniforms, in-bracket uniforms, repayment uniforms) in **one**
  ``random(3 * shard_size)`` call; numpy generators buffer nothing between
  ``random`` calls, so the split block equals the serial path's separate
  draws double for double (pinned by the income-sampler regression tests
  and the batch-equivalence suite).  Rather than construct each of those
  generators, it reseeds one reused generator with the identical PCG64
  states, hashed for the whole step at once by
  :func:`~repro.utils.rng.pcg64_states`;
* the stacked phases are elementwise, so evaluating them on a
  ``(trials, users)`` block produces the identical bits row by row — key
  packing included, and a trial's count table equals the one its own
  ``update`` would build, as the shard pool's merged tables do.

Trade-off vs. the other execution modes: trial batching wins on few cores
and many trials (it removes per-trial dispatch without spawning
processes); trial-level pooling (``execution="pool"``) wins when real
cores exist and trials are few and heavy; intra-trial sharding
(``execution="shard"``) targets single giant trials.  ``BENCH_core.json``
(entry ``trial-batched-engine``) records the measured crossover.
``execution="auto"`` (:func:`repro.core.planner.plan_execution`) selects
this engine exactly in its winning regime — several trials on a single
core, no checkpointing (the lockstep walk has no per-trial boundary to
snapshot, which is why ``execution="batch"`` with checkpoint knobs is
rejected at config time).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.ai_system import AISystem, suffstats_recipe
from repro.core.filters import DefaultRateFilter
from repro.core.history import SimulationHistory
from repro.core.population import CreditPopulation
from repro.core.streaming import AggregateHistory
from repro.credit.borrower import affordability_state
from repro.data.census import Race
from repro.scoring.features import clipped_default_rates
from repro.scoring.suffstats import CompressedDesign, pack_rows
from repro.utils.rng import pcg64_states, shard_seed, step_seed

__all__ = ["BatchedTrialRunner"]

#: One built trial: its seed (the base of its step streams), its
#: population and its AI system — what the runner's trial builder returns.
BuiltTrial = Tuple[int, CreditPopulation, AISystem]

#: One trial's outcome: the recorded history plus the trial's population
#: (the runner assembles :class:`~repro.experiments.runner.TrialResult`
#: from these, mirroring ``run_trial``'s tail).
TrialOutcome = Tuple[SimulationHistory | AggregateHistory, CreditPopulation]


class BatchedTrialRunner:
    """Run the trials of a case study in lockstep.

    Parameters
    ----------
    trials:
        The built trials, in trial order (see ``BuiltTrial``); all of one
        configuration, so they share the user count, calendar, income
        table, mortgage terms and repayment model.
    history_mode:
        ``"full"`` records each trial into a
        :class:`~repro.core.history.SimulationHistory`; ``"aggregate"``
        into an :class:`~repro.core.streaming.AggregateHistory` over the
        trial's race groups — the stores ``run_trial`` records into.
    """

    def __init__(
        self, trials: Sequence[BuiltTrial], history_mode: str = "full"
    ) -> None:
        if history_mode not in ("full", "aggregate"):
            raise ValueError(
                f'history_mode must be "full" or "aggregate", got {history_mode!r}'
            )
        if not trials:
            raise ValueError("at least one trial is required")
        self._history_mode = history_mode
        self._populations = [population for _, population, _ in trials]
        self._ai_systems = [ai_system for _, _, ai_system in trials]
        first = self._populations[0]
        self._num_users = first.num_users
        self._plan = first.shard_plan
        # Every trial's sampler reads an equal income table, so trial 0's
        # sampler (and its per-(year, race) bracket-CDF cache) serves
        # every draw.
        self._sampler = first.sampler
        # The shard half of the stream derivation is step-independent;
        # derive each (trial, shard) seed once.
        self._shard_seeds: List[List[int]] = [
            [shard_seed(base, shard) for shard in range(self._plan.num_shards)]
            for base, _, _ in trials
        ]
        self._draw_generator = np.random.Generator(np.random.PCG64(0))
        self._build_draw_layout()

    def _build_draw_layout(self) -> None:
        """Precompute the flat gather/scatter layout of the step draws.

        Each ``(trial, shard, step)`` generator's whole consumption is one
        ``random(3 * shard_size)`` block written at offset ``3 * lo`` of
        the trial's row in a ``(trials, 3 * users)`` buffer.  Within a
        block the serial draw order is: per race segment (table order,
        skipping empty ones) the bracket uniforms then the in-bracket
        uniforms, and finally the repayment uniforms.  This method turns
        that layout into, per race, flat index arrays — where the race's
        bracket/width uniforms live in the buffer and which flat income
        slots they fill — so each step maps every trial's and shard's
        draws with one ``searchsorted`` and one scatter per race, plus one
        gather for the repayment uniforms.
        """
        num_users = self._num_users
        buffer_width = 3 * num_users
        races = self._sampler.table.races
        bracket_positions: Dict[Race, List[np.ndarray]] = {race: [] for race in races}
        width_positions: Dict[Race, List[np.ndarray]] = {race: [] for race in races}
        income_targets: Dict[Race, List[np.ndarray]] = {race: [] for race in races}
        repayment_positions: List[np.ndarray] = []
        for trial, population in enumerate(self._populations):
            row_base = trial * buffer_width
            for (lo, hi), local in zip(
                self._plan.bounds, population.shard_race_partition()
            ):
                block_base = row_base + 3 * lo
                size = hi - lo
                offset = 0
                for race in races:
                    indices = local.get(race)
                    if indices is None or not indices.size:
                        continue
                    count = indices.size
                    positions = np.arange(
                        block_base + offset, block_base + offset + count
                    )
                    bracket_positions[race].append(positions)
                    width_positions[race].append(positions + count)
                    offset += 2 * count
                    income_targets[race].append(trial * num_users + lo + indices)
                repayment_positions.append(
                    np.arange(block_base + 2 * size, block_base + 3 * size)
                )
        self._race_layout: List[Tuple[Race, np.ndarray, np.ndarray, np.ndarray]] = [
            (
                race,
                np.concatenate(bracket_positions[race]),
                np.concatenate(width_positions[race]),
                np.concatenate(income_targets[race]),
            )
            for race in races
            if bracket_positions[race]
        ]
        self._repayment_positions = np.concatenate(repayment_positions)

    def _draw_step(
        self,
        k: int,
        year: int,
        buffer: np.ndarray,
        incomes: np.ndarray,
        repayment_uniforms: np.ndarray,
    ) -> None:
        """Draw every trial's incomes and repayment uniforms for step ``k``.

        One bulk ``random(3 * shard_size)`` call per ``(trial, shard)``
        covers the serial path's entire generator consumption for the step
        — bracket uniforms and in-bracket uniforms per race segment
        (``begin_step``), then the repayment uniforms (``respond``) — in
        the identical stream order.  The blocks land in the flat draw
        buffer, from which the precomputed layout maps all trials' and
        shards' draws with one bracket search and scatter per race.
        """
        sampler = self._sampler
        bounds = self._plan.bounds
        # Each block's stream is step_generator(seed, k)'s: one reused
        # generator is reseeded with the PCG64 states of all the step's
        # (trial, shard) seeds, hashed in one bulk pass.
        states = iter(
            pcg64_states(
                [step_seed(seed, k) for seeds in self._shard_seeds for seed in seeds]
            )
        )
        generator = self._draw_generator
        bit_generator = generator.bit_generator
        for row in buffer:
            for lo, hi in bounds:
                bit_generator.state = next(states)
                generator.random(out=row[3 * lo : 3 * hi])
        flat = buffer.reshape(-1)
        income_slots = incomes.reshape(-1)
        for race, bracket_idx, width_idx, target_idx in self._race_layout:
            income_slots[target_idx] = sampler.incomes_from_uniforms(
                year, race, flat[bracket_idx], flat[width_idx]
            )
        np.take(flat, self._repayment_positions, out=repayment_uniforms.reshape(-1))

    def run(self, num_steps: int) -> List[TrialOutcome]:
        """Advance every trial ``num_steps`` steps and return the outcomes."""
        populations = self._populations
        ai_systems = self._ai_systems
        num_trials = len(ai_systems)
        num_users = self._num_users
        terms = populations[0].terms
        repayment_model = populations[0].repayment_model
        # Each trial owns the filter and history ClosedLoop.run would build.
        filters = [DefaultRateFilter(num_users) for _ in range(num_trials)]
        histories: List[SimulationHistory | AggregateHistory] = [
            SimulationHistory()
            if self._history_mode == "full"
            else AggregateHistory(num_users=num_users, groups=population.groups)
            for population in populations
        ]
        observations = [loop_filter.observation() for loop_filter in filters]
        # The trials refitting from count tables, and each one's recipe.
        recipes = {
            trial: recipe
            for trial, recipe in enumerate(map(suffstats_recipe, ai_systems))
            if recipe is not None
        }
        packed = list(recipes)
        thresholds = np.array(
            [[recipes[trial]["income_threshold"]] for trial in packed], dtype=float
        )
        draw_buffer = np.empty((num_trials, 3 * num_users), dtype=float)
        incomes = np.empty((num_trials, num_users), dtype=float)
        repayment_uniforms = np.empty((num_trials, num_users), dtype=float)
        decisions = np.empty((num_trials, num_users), dtype=float)
        affordability = incomes  # placeholder for the num_steps == 0 edge
        for k in range(num_steps):
            self._draw_step(
                k,
                populations[0].year_of_step(k),
                draw_buffer,
                incomes,
                repayment_uniforms,
            )
            affordability = affordability_state(incomes, terms)
            # Fresh per-trial objects, exactly what the serial loop hands
            # its AI system (begin_step copies the incomes).
            features = [{"income": row.copy()} for row in incomes]
            for trial, ai_system in enumerate(ai_systems):
                decisions_row = np.asarray(
                    ai_system.decide(features[trial], observations[trial], k),
                    dtype=float,
                ).ravel()
                if decisions_row.shape[0] != num_users:
                    raise ValueError(
                        "the AI system must return one decision per user "
                        f"({decisions_row.shape[0]} != {num_users})"
                    )
                decisions[trial] = decisions_row
            probabilities = repayment_model.repayment_probability(affordability)
            actions = (
                (repayment_uniforms < probabilities) & (decisions != 0.0)
            ).astype(float)
            tables: Dict[int, CompressedDesign] = {}
            if packed:
                # One fused pass packs every protocol trial's (code, rate,
                # label) rows; each trial's table then keeps its offered
                # rows — the table its own update would compress.
                feature_rows = [
                    features[trial][recipes[trial]["feature"]] for trial in packed
                ]
                rate_rows = [
                    observations[trial]["user_default_rates"] for trial in packed
                ]
                keys = pack_rows(
                    np.stack(feature_rows) >= thresholds,
                    clipped_default_rates(np.stack(rate_rows)),
                    actions[packed],
                )
                offered = decisions[packed] == 1.0
                for row, trial in enumerate(packed):
                    tables[trial] = CompressedDesign.from_key_array(
                        keys[row][offered[row]]
                    )
            for trial, ai_system in enumerate(ai_systems):
                # The serial loop's tail: delayed-feedback refit, filter,
                # then record.
                if trial in tables:
                    ai_system.update_from_suffstats(tables[trial], k)
                else:
                    ai_system.update(
                        features[trial],
                        decisions[trial],
                        actions[trial],
                        observations[trial],
                        k,
                    )
                observations[trial] = filters[trial].update(
                    decisions[trial], actions[trial], k
                )
                histories[trial].record_step(
                    k,
                    features[trial],
                    decisions[trial],
                    actions[trial],
                    observations[trial],
                )
        outcomes: List[TrialOutcome] = []
        for trial, population in enumerate(populations):
            if num_steps > 0:
                # Leave the population holding its final step state, as a
                # serial trial would.
                population.import_shard_state(
                    0,
                    {
                        "incomes": incomes[trial],
                        "affordability": affordability[trial],
                    },
                )
            outcomes.append((histories[trial], population))
        return outcomes
