"""Streaming (memory-bounded) aggregation of closed-loop trajectories.

The paper's group-level figures only need the race-wise series ``ADR_s(k)``,
the Cesàro action averages and the approval rates — yet the full-history
engine materialises every ``(steps, users)`` column, which makes *memory*
the binding constraint at million-user scale.  This module provides the
``history_mode="aggregate"`` path of the engine:

* :class:`StreamingAggregator` consumes each step's decisions and actions
  online and maintains group-level running series in ``O(users)`` running
  state plus ``O(steps * groups)`` output — no per-user history rows are
  ever retained.
* :class:`AggregateHistory` wraps an aggregator behind the
  :class:`~repro.core.history.SimulationHistory` ingest surface
  (``record_step``/``append``/``num_steps``), so
  :meth:`~repro.core.loop.ClosedLoop.run` can record into either store.
  Per-user accessors (``decisions_matrix`` and friends) raise
  :class:`~repro.core.history.FullHistoryRequiredError` with a clear
  message instead of silently degrading.

Bit-identity with the full-history path is a hard guarantee, pinned by
``tests/experiments/test_streaming_equivalence.py``: the full path derives
group series via :func:`~repro.core.metrics.group_average_series`, i.e.
``series[:, indices].mean(axis=1)`` on a fancy-indexed selection, which
numpy evaluates as a *sequential left-to-right* accumulation over the
group's users (the fancy-indexed intermediate is F-ordered, so the
reduction runs over the outer iterator axis without SIMD pairwise
blocking).  The streaming path reproduces that exact summation order with
:func:`sequential_sum` (``np.cumsum(...)[-1]``, the same fold at C speed),
so the per-step group sums — and hence the series — agree bit for bit.  (One
documented caveat: a *single-step* history's fancy-indexed selection is
contiguous, so numpy reduces it with SIMD pairwise blocking instead; group
means of a one-step run can therefore differ from the full path in the
last ulp.  Every real simulation spans many steps.)

Sharding note: :meth:`StreamingAggregator.merge` combines two aggregators
that observed *disjoint user shards* of the same simulation.  Integer-like
cumulative state (offers, repayments, counts, minima/maxima) merges
exactly; the floating-point group sums merge as ``sum_a + sum_b``, which
differs from the single-stream sequential fold by at most the usual
last-ulp reassociation error (the property suite asserts exactness for
dyadic inputs and tight agreement in general).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from repro.core.history import (
    FullHistoryRequiredError,
    StepRecord,
    _grown,
    _readonly,
    running_default_rates_from_cums,
)

__all__ = [
    "StreamingAggregator",
    "AggregateHistory",
    "sequential_sum",
    "DEFAULT_RATE_BINS",
    "RATE_HISTOGRAM_LOW_THRESHOLD",
]

#: Initial row capacity of the per-step series (matches SimulationHistory).
_INITIAL_CAPACITY = 32

#: Number of equal-width ``ADR_i(k)`` histogram bins on [0, 1] kept per step
#: (matches the default binning of the fig5 density driver).
DEFAULT_RATE_BINS = 20

#: Threshold of the dedicated low-rate counter (the paper's "share of users
#: with ADR <= 0.10" summary of Figure 5).
RATE_HISTOGRAM_LOW_THRESHOLD = 0.10


def sequential_sum(values: np.ndarray) -> float:
    """Return the left-to-right sequential float sum of ``values``.

    This is bit-identical to the accumulation order numpy uses when
    reducing a fancy-indexed ``(steps, users)`` selection along the user
    axis (the full-history group path), which is *not* the SIMD pairwise
    order of a contiguous ``np.sum``.  ``np.cumsum`` performs the same
    sequential fold in C, so the last prefix sum is the exact sequential
    total.
    """
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        return 0.0
    return float(np.cumsum(array)[-1])


def _validated_groups(
    groups: Mapping[object, np.ndarray] | None, num_users: int
) -> Dict[object, np.ndarray]:
    """Validate and copy a group partition (may be empty)."""
    if groups is None:
        return {}
    validated: Dict[object, np.ndarray] = {}
    for key, indices in groups.items():
        index_array = np.asarray(indices, dtype=np.intp).ravel()
        if index_array.size and (
            index_array.min() < 0 or index_array.max() >= num_users
        ):
            raise ValueError(
                f"group {key!r} has user indices outside [0, {num_users})"
            )
        validated[key] = index_array.copy()
    return validated


class StreamingAggregator:
    """Online group-level aggregation of a closed-loop decision/action stream.

    The aggregator holds ``O(users)`` running state (cumulative offers,
    repayments and action sums — the same cumulative quantities the
    full-history engine folds into its derived series) and appends one row
    per step to ``O(steps)``/``O(steps * groups)`` output series:

    * per-group running average default rates — the paper's ``ADR_s(k)``;
    * per-group Cesàro action averages (Definition 3's limit quantity);
    * per-group and population-wide approval rates;
    * the pooled portfolio default rate;
    * population-wide per-step moments of ``ADR_i(k)`` (sum, sum of
      squares, min, max) so dispersion summaries survive without the
      ``(steps, users)`` matrix.

    Every series is bit-identical to the corresponding full-history
    derivation (see the module docstring for why the group sums use
    :func:`sequential_sum`).

    Parameters
    ----------
    num_users:
        Number of users in the (shard of the) population.
    groups:
        Optional partition: mapping from group key (e.g. a
        :class:`~repro.data.census.Race`) to the array of user indices in
        that group.  Empty groups report ``nan`` series like
        :func:`~repro.core.metrics.group_average_series`.
    prior_rate:
        Portfolio default rate reported before any offer exists, matching
        :class:`~repro.credit.default_rates.DefaultRateTracker`.
    """

    def __init__(
        self,
        num_users: int,
        groups: Mapping[object, np.ndarray] | None = None,
        prior_rate: float = 0.0,
        rate_bins: int = DEFAULT_RATE_BINS,
    ) -> None:
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        if rate_bins < 2:
            raise ValueError("rate_bins must be at least 2")
        self._num_users = int(num_users)
        self._prior_rate = float(prior_rate)
        self._groups = _validated_groups(groups, self._num_users)
        self._num_steps = 0
        self._capacity = _INITIAL_CAPACITY
        # Per-step histogram of ADR_i(k) on a fixed [0, 1] binning: integer
        # counts, so per-shard and per-trial histograms pool exactly into
        # the full-history histogram of the concatenated stack (the fig5
        # density path in aggregate mode).  np.histogram is called with the
        # explicit edge array so the bin-assignment arithmetic is the same
        # one the full-history driver uses.
        self._rate_bins = int(rate_bins)
        self._rate_edges = np.linspace(0.0, 1.0, self._rate_bins + 1)
        self._rate_hist = np.zeros((self._capacity, self._rate_bins), dtype=np.int64)
        self._rate_low_counts = np.zeros(self._capacity, dtype=np.int64)
        # O(users) running state — identical to SimulationHistory's
        # incremental layer, so the derived rows agree bit for bit.
        self._offers_cum = np.zeros(self._num_users, dtype=float)
        self._repayments_cum = np.zeros(self._num_users, dtype=float)
        self._actions_cum = np.zeros(self._num_users, dtype=float)
        # O(steps) global series.
        self._approvals = np.empty(self._capacity, dtype=float)
        self._decision_sums = np.empty(self._capacity, dtype=float)
        self._offers_totals = np.empty(self._capacity, dtype=float)
        self._repayments_totals = np.empty(self._capacity, dtype=float)
        self._portfolio = np.empty(self._capacity, dtype=float)
        self._rate_sums = np.empty(self._capacity, dtype=float)
        self._rate_sumsqs = np.empty(self._capacity, dtype=float)
        self._rate_mins = np.empty(self._capacity, dtype=float)
        self._rate_maxs = np.empty(self._capacity, dtype=float)
        # O(steps * groups) series: per-group sequential sums per step.
        self._group_rate_sums = {key: np.empty(self._capacity) for key in self._groups}
        self._group_action_sums = {key: np.empty(self._capacity) for key in self._groups}
        self._group_decision_sums = {
            key: np.empty(self._capacity) for key in self._groups
        }

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def num_users(self) -> int:
        """Return the number of users this aggregator observes."""
        return self._num_users

    @property
    def num_steps(self) -> int:
        """Return the number of aggregated steps."""
        return self._num_steps

    @property
    def group_keys(self) -> Tuple[object, ...]:
        """Return the group keys, in partition order."""
        return tuple(self._groups)

    @property
    def group_sizes(self) -> Dict[object, int]:
        """Return the number of users in each group."""
        return {key: int(indices.size) for key, indices in self._groups.items()}

    @property
    def prior_rate(self) -> float:
        """Return the portfolio rate reported before any offer exists."""
        return self._prior_rate

    def group_indices(self) -> Dict[object, np.ndarray]:
        """Return a copy of the group partition."""
        return {key: indices.copy() for key, indices in self._groups.items()}

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def update(self, decisions: np.ndarray, actions: np.ndarray) -> None:
        """Fold one step of decisions and actions into the running series."""
        decisions_row = np.asarray(decisions, dtype=float).ravel()
        actions_row = np.asarray(actions, dtype=float).ravel()
        if decisions_row.shape[0] != self._num_users:
            raise ValueError(
                "decisions must have one entry per user "
                f"({decisions_row.shape[0]} != {self._num_users})"
            )
        if actions_row.shape[0] != self._num_users:
            raise ValueError(
                "actions must have one entry per user "
                f"({actions_row.shape[0]} != {self._num_users})"
            )
        if self._num_steps >= self._capacity:
            self._grow()
        row = self._num_steps
        # Replay, term by term, SimulationHistory._update_running_stats so
        # the derived per-user rows are bit-identical to the full engine;
        # the rate fold itself is the shared single definition.
        self._offers_cum += decisions_row
        self._repayments_cum += actions_row * decisions_row
        self._actions_cum += actions_row
        rates = running_default_rates_from_cums(
            self._offers_cum, self._repayments_cum
        )
        cesaro = self._actions_cum / float(row + 1)
        self._approvals[row] = np.mean(decisions_row)
        self._decision_sums[row] = float(decisions_row.sum())
        offers_total = float(self._offers_cum.sum())
        repayments_total = float(self._repayments_cum.sum())
        self._offers_totals[row] = offers_total
        self._repayments_totals[row] = repayments_total
        # Same branch and same float ops as DefaultRateTracker.portfolio_rate.
        self._portfolio[row] = (
            self._prior_rate
            if offers_total == 0
            else 1.0 - repayments_total / offers_total
        )
        self._rate_sums[row] = float(rates.sum())
        # dot avoids materialising an O(users) squared temporary.
        self._rate_sumsqs[row] = float(np.dot(rates, rates))
        self._rate_mins[row] = float(rates.min())
        self._rate_maxs[row] = float(rates.max())
        self._rate_hist[row], _ = np.histogram(rates, bins=self._rate_edges)
        self._rate_low_counts[row] = int(
            np.count_nonzero(rates <= RATE_HISTOGRAM_LOW_THRESHOLD)
        )
        for key, indices in self._groups.items():
            self._group_rate_sums[key][row] = sequential_sum(rates[indices])
            self._group_action_sums[key][row] = sequential_sum(cesaro[indices])
            self._group_decision_sums[key][row] = sequential_sum(
                decisions_row[indices]
            )
        self._num_steps += 1

    def _grow(self) -> None:
        new_capacity = max(_INITIAL_CAPACITY, self._capacity * 2)
        for attribute in (
            "_approvals",
            "_decision_sums",
            "_offers_totals",
            "_repayments_totals",
            "_portfolio",
            "_rate_sums",
            "_rate_sumsqs",
            "_rate_mins",
            "_rate_maxs",
        ):
            setattr(
                self,
                attribute,
                _grown(getattr(self, attribute), new_capacity, self._num_steps),
            )
        for series in (
            self._group_rate_sums,
            self._group_action_sums,
            self._group_decision_sums,
        ):
            for key in series:
                series[key] = _grown(series[key], new_capacity, self._num_steps)
        self._rate_hist = _grown(self._rate_hist, new_capacity, self._num_steps)
        self._rate_low_counts = _grown(
            self._rate_low_counts, new_capacity, self._num_steps
        )
        self._capacity = new_capacity

    # ------------------------------------------------------------------
    # Series queries
    # ------------------------------------------------------------------

    def _group_mean_series(
        self, sums: Mapping[object, np.ndarray]
    ) -> Dict[object, np.ndarray]:
        result: Dict[object, np.ndarray] = {}
        for key, indices in self._groups.items():
            if indices.size == 0:
                result[key] = np.full(self._num_steps, np.nan)
            else:
                # Sum-then-divide matches np.mean's reduce-then-true_divide.
                result[key] = sums[key][: self._num_steps] / indices.size
        return result

    def group_default_rate_series(self) -> Dict[object, np.ndarray]:
        """Return the per-group running default-rate series ``ADR_s(k)``.

        Bit-identical to ``group_average_series(running_default_rates(),
        groups)`` on the full-history path.
        """
        return self._group_mean_series(self._group_rate_sums)

    def group_action_average_series(self) -> Dict[object, np.ndarray]:
        """Return the per-group Cesàro action averages over time."""
        return self._group_mean_series(self._group_action_sums)

    def group_approval_series(self) -> Dict[object, np.ndarray]:
        """Return the per-group per-step approval rates."""
        return self._group_mean_series(self._group_decision_sums)

    def approval_rate_series(self) -> np.ndarray:
        """Return the per-step population approval rates."""
        return self._approvals[: self._num_steps].copy()

    def portfolio_rate_series(self) -> np.ndarray:
        """Return the pooled default rate of all offers made up to each step."""
        return self._portfolio[: self._num_steps].copy()

    def rate_sum_series(self) -> np.ndarray:
        """Return, per step, the sum of ``ADR_i(k)`` over all users."""
        return self._rate_sums[: self._num_steps].copy()

    def rate_sumsq_series(self) -> np.ndarray:
        """Return, per step, the sum of squared ``ADR_i(k)`` over all users."""
        return self._rate_sumsqs[: self._num_steps].copy()

    def rate_min_series(self) -> np.ndarray:
        """Return, per step, the minimum ``ADR_i(k)`` over all users."""
        return self._rate_mins[: self._num_steps].copy()

    def rate_max_series(self) -> np.ndarray:
        """Return, per step, the maximum ``ADR_i(k)`` over all users."""
        return self._rate_maxs[: self._num_steps].copy()

    @property
    def rate_bins(self) -> int:
        """Return the number of ``ADR_i(k)`` histogram bins kept per step."""
        return self._rate_bins

    def rate_histogram_edges(self) -> np.ndarray:
        """Return the fixed [0, 1] bin edges of the per-step histograms."""
        return self._rate_edges.copy()

    def rate_histogram_series(self) -> np.ndarray:
        """Return the per-step ``ADR_i(k)`` histogram counts.

        A ``(steps, rate_bins)`` integer matrix.  Counts pool exactly
        across shards and trials (integer addition), so the summed
        histograms equal ``np.histogram`` of the concatenated full-history
        stack step by step — the fig5 density in bounded memory.
        """
        return self._rate_hist[: self._num_steps].copy()

    def rate_low_count_series(self) -> np.ndarray:
        """Return, per step, how many users have ``ADR_i(k) <= 0.10``.

        The exact counter behind Figure 5's "share of users with ADR <=
        0.10" summary (a histogram with a bin edge at 0.10 cannot recover
        it: values exactly at the threshold fall into the next bin).
        """
        return self._rate_low_counts[: self._num_steps].copy()

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------

    def export_state(self) -> Dict[str, object]:
        """Return a picklable snapshot of the aggregator's running state.

        The snapshot is what a sharded runner ships between workers: the
        per-user cumulative vectors, the per-step series (trimmed to the
        filled rows) and the group partition.  ``merge`` consumes two live
        aggregators; the ``export_state``/:meth:`from_state` pair exists so
        transports that cannot pickle the object itself can still move the
        state around.
        """
        filled = self._num_steps
        return {
            "num_users": self._num_users,
            "prior_rate": self._prior_rate,
            "num_steps": filled,
            "groups": self.group_indices(),
            "rate_bins": self._rate_bins,
            "rate_hist": self._rate_hist[:filled].copy(),
            "rate_low_counts": self._rate_low_counts[:filled].copy(),
            "offers_cum": self._offers_cum.copy(),
            "repayments_cum": self._repayments_cum.copy(),
            "actions_cum": self._actions_cum.copy(),
            "approvals": self._approvals[:filled].copy(),
            "decision_sums": self._decision_sums[:filled].copy(),
            "offers_totals": self._offers_totals[:filled].copy(),
            "repayments_totals": self._repayments_totals[:filled].copy(),
            "portfolio": self._portfolio[:filled].copy(),
            "rate_sums": self._rate_sums[:filled].copy(),
            "rate_sumsqs": self._rate_sumsqs[:filled].copy(),
            "rate_mins": self._rate_mins[:filled].copy(),
            "rate_maxs": self._rate_maxs[:filled].copy(),
            "group_rate_sums": {
                key: self._group_rate_sums[key][:filled].copy() for key in self._groups
            },
            "group_action_sums": {
                key: self._group_action_sums[key][:filled].copy()
                for key in self._groups
            },
            "group_decision_sums": {
                key: self._group_decision_sums[key][:filled].copy()
                for key in self._groups
            },
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "StreamingAggregator":
        """Rebuild a live (mergeable, updatable) aggregator from a snapshot."""
        aggregator = cls(
            int(state["num_users"]),
            groups=state["groups"],  # type: ignore[arg-type]
            prior_rate=float(state["prior_rate"]),
            rate_bins=int(state.get("rate_bins", DEFAULT_RATE_BINS)),
        )
        filled = int(state["num_steps"])
        while aggregator._capacity < filled:
            aggregator._grow()
        aggregator._num_steps = filled
        rate_hist = np.asarray(
            state.get("rate_hist", np.zeros((filled, aggregator._rate_bins))),
            dtype=np.int64,
        )
        if rate_hist.shape != (filled, aggregator._rate_bins):
            raise ValueError("state 'rate_hist' must be (num_steps, rate_bins)")
        aggregator._rate_hist[:filled] = rate_hist
        rate_low = np.asarray(
            state.get("rate_low_counts", np.zeros(filled)), dtype=np.int64
        ).ravel()
        if rate_low.shape != (filled,):
            raise ValueError("state 'rate_low_counts' must have one entry per step")
        aggregator._rate_low_counts[:filled] = rate_low
        for attribute, key in (
            ("_offers_cum", "offers_cum"),
            ("_repayments_cum", "repayments_cum"),
            ("_actions_cum", "actions_cum"),
        ):
            value = np.asarray(state[key], dtype=float).ravel()
            if value.shape != (aggregator._num_users,):
                raise ValueError(f"state {key!r} must have one entry per user")
            setattr(aggregator, attribute, value.copy())
        for attribute, key in (
            ("_approvals", "approvals"),
            ("_decision_sums", "decision_sums"),
            ("_offers_totals", "offers_totals"),
            ("_repayments_totals", "repayments_totals"),
            ("_portfolio", "portfolio"),
            ("_rate_sums", "rate_sums"),
            ("_rate_sumsqs", "rate_sumsqs"),
            ("_rate_mins", "rate_mins"),
            ("_rate_maxs", "rate_maxs"),
        ):
            value = np.asarray(state[key], dtype=float).ravel()
            if value.shape != (filled,):
                raise ValueError(f"state {key!r} must have one entry per step")
            getattr(aggregator, attribute)[:filled] = value
        for attribute, key in (
            ("_group_rate_sums", "group_rate_sums"),
            ("_group_action_sums", "group_action_sums"),
            ("_group_decision_sums", "group_decision_sums"),
        ):
            series = state[key]
            if set(series) != set(aggregator._groups):  # type: ignore[arg-type]
                raise ValueError(f"state {key!r} must cover exactly the group keys")
            for group_key, values in series.items():  # type: ignore[union-attr]
                value = np.asarray(values, dtype=float).ravel()
                if value.shape != (filled,):
                    raise ValueError(
                        f"state {key!r}[{group_key!r}] must have one entry per step"
                    )
                getattr(aggregator, attribute)[group_key][:filled] = value
        return aggregator

    def merge(self, other: "StreamingAggregator") -> "StreamingAggregator":
        """Merge two aggregators that observed disjoint user shards.

        Both shards must have aggregated the same number of steps with the
        same group keys and prior rate; ``other``'s users are appended
        after ``self``'s (its group indices are shifted by
        ``self.num_users``).  Cumulative per-user state, counts and
        minima/maxima merge exactly; the floating-point group sums merge
        as ``sum_a + sum_b``, which can differ from a single concatenated
        stream's sequential fold in the last ulp.
        """
        if not isinstance(other, StreamingAggregator):
            raise TypeError("can only merge with another StreamingAggregator")
        if self._num_steps != other._num_steps:
            raise ValueError(
                "cannot merge aggregators with different step counts "
                f"({self._num_steps} != {other._num_steps})"
            )
        if self._prior_rate != other._prior_rate:
            raise ValueError("cannot merge aggregators with different prior rates")
        if tuple(self._groups) != tuple(other._groups):
            raise ValueError("cannot merge aggregators with different group keys")
        if self._rate_bins != other._rate_bins:
            raise ValueError(
                "cannot merge aggregators with different histogram binnings"
            )
        merged_groups = {
            key: np.concatenate(
                [self._groups[key], other._groups[key] + self._num_users]
            )
            for key in self._groups
        }
        merged = StreamingAggregator(
            self._num_users + other._num_users,
            groups=merged_groups,
            prior_rate=self._prior_rate,
            rate_bins=self._rate_bins,
        )
        filled = self._num_steps
        while merged._capacity < filled:
            merged._grow()
        merged._num_steps = filled
        merged._offers_cum = np.concatenate([self._offers_cum, other._offers_cum])
        merged._repayments_cum = np.concatenate(
            [self._repayments_cum, other._repayments_cum]
        )
        merged._actions_cum = np.concatenate([self._actions_cum, other._actions_cum])
        merged._decision_sums[:filled] = (
            self._decision_sums[:filled] + other._decision_sums[:filled]
        )
        total_users = merged._num_users
        merged._approvals[:filled] = merged._decision_sums[:filled] / total_users
        merged._offers_totals[:filled] = (
            self._offers_totals[:filled] + other._offers_totals[:filled]
        )
        merged._repayments_totals[:filled] = (
            self._repayments_totals[:filled] + other._repayments_totals[:filled]
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            merged._portfolio[:filled] = np.where(
                merged._offers_totals[:filled] == 0,
                self._prior_rate,
                1.0
                - merged._repayments_totals[:filled]
                / np.maximum(merged._offers_totals[:filled], 1e-300),
            )
        merged._rate_sums[:filled] = self._rate_sums[:filled] + other._rate_sums[:filled]
        merged._rate_sumsqs[:filled] = (
            self._rate_sumsqs[:filled] + other._rate_sumsqs[:filled]
        )
        merged._rate_mins[:filled] = np.minimum(
            self._rate_mins[:filled], other._rate_mins[:filled]
        )
        merged._rate_maxs[:filled] = np.maximum(
            self._rate_maxs[:filled], other._rate_maxs[:filled]
        )
        # Histogram and threshold counts are integers: pooling is exact.
        merged._rate_hist[:filled] = (
            self._rate_hist[:filled] + other._rate_hist[:filled]
        )
        merged._rate_low_counts[:filled] = (
            self._rate_low_counts[:filled] + other._rate_low_counts[:filled]
        )
        for key in self._groups:
            merged._group_rate_sums[key][:filled] = (
                self._group_rate_sums[key][:filled]
                + other._group_rate_sums[key][:filled]
            )
            merged._group_action_sums[key][:filled] = (
                self._group_action_sums[key][:filled]
                + other._group_action_sums[key][:filled]
            )
            merged._group_decision_sums[key][:filled] = (
                self._group_decision_sums[key][:filled]
                + other._group_decision_sums[key][:filled]
            )
        return merged


class AggregateHistory:
    """A memory-bounded trajectory store for ``history_mode="aggregate"``.

    Presents the same ingest surface as
    :class:`~repro.core.history.SimulationHistory` (``record_step``,
    ``append``, ``num_steps``, ``num_users``, ``approval_rates``), but
    folds every step into a :class:`StreamingAggregator` instead of
    retaining ``(steps, users)`` matrices: public features and per-user
    observations are consumed and dropped, so the store's footprint is
    ``O(users)`` running state plus ``O(steps * groups)`` series.

    Accessors that fundamentally need per-user rows —
    ``decisions_matrix``, ``actions_matrix``, ``running_default_rates``,
    ``records`` and friends — raise
    :class:`~repro.core.history.FullHistoryRequiredError` naming the knob
    to flip, rather than returning degraded data.

    Parameters
    ----------
    num_users:
        Optional user count; inferred from the first recorded step when
        omitted.
    groups:
        Optional group partition forwarded to the aggregator.
    prior_rate:
        Portfolio prior, as in :class:`StreamingAggregator`.
    """

    def __init__(
        self,
        num_users: int | None = None,
        groups: Mapping[object, np.ndarray] | None = None,
        prior_rate: float = 0.0,
    ) -> None:
        self._declared_num_users = None if num_users is None else int(num_users)
        self._groups = groups
        self._prior_rate = float(prior_rate)
        self._aggregator: StreamingAggregator | None = None
        if self._declared_num_users is not None:
            self._aggregator = StreamingAggregator(
                self._declared_num_users, groups=self._groups, prior_rate=self._prior_rate
            )

    # ------------------------------------------------------------------
    # Ingest (mirrors SimulationHistory)
    # ------------------------------------------------------------------

    def append(self, record: StepRecord) -> None:
        """Fold one step's record into the aggregate series."""
        self.record_step(
            record.step,
            record.public_features,
            record.decisions,
            record.actions,
            record.observation,
        )

    def record_step(
        self,
        step: int,
        public_features: Mapping[str, np.ndarray],
        decisions: np.ndarray,
        actions: np.ndarray,
        observation: Mapping[str, np.ndarray | float],
    ) -> None:
        """Aggregate one step; features and observations are not retained.

        Steps must arrive in order without gaps: the running series divide
        by the step count, so a skipped or replayed step would silently
        corrupt every Cesàro average.  The full-history store can warn and
        keep the latest fragment; an aggregate store cannot rewind, so
        out-of-order recording is rejected outright.
        """
        if step != self.num_steps:
            raise ValueError(
                f"aggregate histories require contiguous steps: expected step "
                f"{self.num_steps}, got {step}"
            )
        decisions_row = np.asarray(decisions, dtype=float).ravel()
        if self._aggregator is None:
            self._aggregator = StreamingAggregator(
                decisions_row.shape[0], groups=self._groups, prior_rate=self._prior_rate
            )
        self._aggregator.update(decisions_row, actions)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def aggregator(self) -> StreamingAggregator:
        """Return the underlying aggregator."""
        self._require_non_empty()
        assert self._aggregator is not None
        return self._aggregator

    @property
    def num_steps(self) -> int:
        """Return the number of aggregated steps."""
        return 0 if self._aggregator is None else self._aggregator.num_steps

    @property
    def num_users(self) -> int:
        """Return the number of users (fixed at the first recorded step)."""
        if self._aggregator is None:
            raise ValueError("the history is empty")
        return self._aggregator.num_users

    def _require_non_empty(self) -> None:
        if self._aggregator is None or self._aggregator.num_steps == 0:
            raise ValueError("the history is empty")

    # ------------------------------------------------------------------
    # Aggregate series (bit-identical to the full-history derivations)
    # ------------------------------------------------------------------

    def approval_rates(self) -> np.ndarray:
        """Return the per-step fraction of approved users."""
        self._require_non_empty()
        return _readonly(self.aggregator.approval_rate_series())

    def portfolio_rate_series(self) -> np.ndarray:
        """Return the pooled portfolio default rate over time."""
        self._require_non_empty()
        return _readonly(self.aggregator.portfolio_rate_series())

    def group_default_rate_series(self) -> Dict[object, np.ndarray]:
        """Return the per-group ``ADR_s(k)`` series."""
        self._require_non_empty()
        return self.aggregator.group_default_rate_series()

    def group_action_average_series(self) -> Dict[object, np.ndarray]:
        """Return the per-group Cesàro action-average series."""
        self._require_non_empty()
        return self.aggregator.group_action_average_series()

    def group_approval_series(self) -> Dict[object, np.ndarray]:
        """Return the per-group per-step approval-rate series."""
        self._require_non_empty()
        return self.aggregator.group_approval_series()

    def rate_histogram_series(self) -> np.ndarray:
        """Return the per-step ``ADR_i(k)`` histogram counts (fig5 input)."""
        self._require_non_empty()
        return self.aggregator.rate_histogram_series()

    def rate_histogram_edges(self) -> np.ndarray:
        """Return the fixed bin edges of the per-step rate histograms."""
        self._require_non_empty()
        return self.aggregator.rate_histogram_edges()

    def rate_low_count_series(self) -> np.ndarray:
        """Return, per step, the count of users with ``ADR_i(k) <= 0.10``."""
        self._require_non_empty()
        return self.aggregator.rate_low_count_series()

    # ------------------------------------------------------------------
    # Full-history-only surface: fail loudly, name the fix
    # ------------------------------------------------------------------

    def _full_history_required(self, accessor: str) -> FullHistoryRequiredError:
        return FullHistoryRequiredError(
            f"{accessor} requires per-user history rows, which "
            'history_mode="aggregate" does not retain; rerun with '
            'history_mode="full" to materialise the (steps, users) columns'
        )

    def decisions_matrix(self) -> np.ndarray:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("decisions_matrix")

    def actions_matrix(self) -> np.ndarray:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("actions_matrix")

    def public_feature_matrix(self, name: str) -> np.ndarray:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required(f"public_feature_matrix({name!r})")

    def observation_series(self, name: str) -> np.ndarray:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required(f"observation_series({name!r})")

    def running_default_rates(self) -> np.ndarray:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("running_default_rates")

    def running_action_averages(self) -> np.ndarray:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("running_action_averages")

    def recompute_running_default_rates(self) -> np.ndarray:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("recompute_running_default_rates")

    def recompute_running_action_averages(self) -> np.ndarray:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("recompute_running_action_averages")

    def recompute_approval_rates(self) -> np.ndarray:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("recompute_approval_rates")

    def group_series(
        self, per_user_series: np.ndarray, groups: Mapping[object, np.ndarray]
    ) -> Dict[object, np.ndarray]:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("group_series")

    @property
    def records(self) -> Iterable[StepRecord]:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("records")

    def record_at(self, index: int) -> StepRecord:
        """Unavailable in aggregate mode; raises FullHistoryRequiredError."""
        raise self._full_history_required("record_at")
