"""AI systems: the decision-making box of the closed loop.

An AI system sees the users' public features (never the protected
attribute), plus the filtered feedback, and produces the output ``pi(k)`` —
here encoded as one decision per user.  It may also retrain itself on the
delayed feedback; the orchestrator calls ``update`` with the observation
that was available *before* the current step's actions were filtered in,
which is exactly the paper's "delay" box.

Implementations:

* :class:`CreditScoringSystem` — the paper's retraining scorecard lender.
* :class:`ScorecardDecisionSystem` — a fixed scorecard that is never
  retrained (open-loop baseline).
* :class:`ConstantDecisionSystem` — approve (or deny) everyone; the purest
  form of equal treatment.

:func:`suffstats_recipe` is the one rule deciding whether a system's
refit may run from merged count tables instead of its row-level
``update``; the shard pool and the trial-batched engine both ask it.
"""

from __future__ import annotations

from typing import Dict, Mapping, Protocol, runtime_checkable

import numpy as np

from repro.credit.lender import Lender
from repro.scoring.cutoff import CutoffPolicy
from repro.scoring.scorecard import Scorecard
from repro.scoring.suffstats import CompressedDesign

__all__ = [
    "AISystem",
    "CreditScoringSystem",
    "ScorecardDecisionSystem",
    "ConstantDecisionSystem",
    "suffstats_recipe",
]


@runtime_checkable
class AISystem(Protocol):
    """Protocol for the AI-system box of the closed loop."""

    def decide(
        self,
        public_features: Mapping[str, np.ndarray],
        observation: Mapping[str, np.ndarray | float],
        k: int,
    ) -> np.ndarray:
        """Return one decision per user for step ``k``."""
        ...  # pragma: no cover - protocol

    def update(
        self,
        public_features: Mapping[str, np.ndarray],
        decisions: np.ndarray,
        actions: np.ndarray,
        observation: Mapping[str, np.ndarray | float],
        k: int,
    ) -> None:
        """Retrain on the delayed feedback (may be a no-op)."""
        ...  # pragma: no cover - protocol


def suffstats_recipe(ai_system: AISystem) -> Dict[str, object] | None:
    """Return the system's count-table recipe, or ``None`` to refit by ``update``.

    A system refits from sufficient statistics — tables built from the
    ``(income code, previous rate, repayment)`` rows of offered users and
    handed to ``update_from_suffstats(table, k)`` — exactly when its own
    ``retrain_mode`` is ``"compressed"``, it implements
    ``update_from_suffstats``, and its ``suffstats_spec`` names both the
    public ``feature`` carrying the incomes and the ``income_threshold``
    of the code.  The protocol must mirror what the system's ``update``
    would do, so it is never forced onto an exact-mode system; and an
    incomplete recipe is refused here rather than surfacing as a
    ``KeyError`` mid-trial.  Everything else keeps the row-level
    ``update``, which is always correct.
    """
    if getattr(ai_system, "retrain_mode", "exact") != "compressed":
        return None
    if not hasattr(ai_system, "update_from_suffstats"):
        return None
    spec = getattr(ai_system, "suffstats_spec", None)
    if not isinstance(spec, dict) or not (
        "feature" in spec and "income_threshold" in spec
    ):
        return None
    return spec


class CreditScoringSystem:
    """The paper's retraining scorecard lender wrapped as an AI system.

    ``decide`` scores each user's (income code, previous average default
    rate) with the current scorecard and applies the cut-off; during the
    warm-up years everyone is approved.  ``update`` refits the logistic
    model on this step's repayments against the features that were visible
    when the decision was made, then rebuilds the scorecard for the next
    step.

    The system also speaks the *sufficient-statistics retraining* protocol
    of the sharded closed loop: :attr:`suffstats_spec` publishes what a
    worker shard needs to compress its slice of the training set into a
    :class:`~repro.scoring.suffstats.CompressedDesign` count table, and
    :meth:`update_from_suffstats` refits centrally from the merged table in
    O(unique rows).  The execution layers only use it when the wrapped
    lender's ``retrain_mode`` is ``"compressed"`` (see
    :func:`suffstats_recipe`).
    """

    def __init__(self, lender: Lender | None = None) -> None:
        self._lender = lender or Lender()
        self._last_scores: np.ndarray | None = None

    @property
    def lender(self) -> Lender:
        """Return the wrapped lender."""
        return self._lender

    @property
    def retrain_mode(self) -> str:
        """Return the wrapped lender's refit strategy."""
        return self._lender.retrain_mode

    @property
    def suffstats_spec(self) -> Dict[str, object]:
        """Return the shard-side compression recipe of the retraining set.

        Workers compress ``(income code, previous rate, repayment)`` rows of
        offered users; all they need beyond their own slices is the income
        threshold of the code indicator and the name of the public feature
        carrying the raw incomes.
        """
        return {
            "feature": "income",
            "income_threshold": self._lender.feature_builder.income_threshold,
        }

    @property
    def last_scores(self) -> np.ndarray | None:
        """Return the scores of the most recent decision round."""
        return None if self._last_scores is None else self._last_scores.copy()

    def decide(
        self,
        public_features: Mapping[str, np.ndarray],
        observation: Mapping[str, np.ndarray | float],
        k: int,
    ) -> np.ndarray:
        """Score and decide for every user."""
        incomes = np.asarray(public_features["income"], dtype=float)
        rates = np.asarray(observation["user_default_rates"], dtype=float)
        decision = self._lender.decide(incomes, rates)
        self._last_scores = decision.scores
        return decision.decisions.astype(float)

    def update(
        self,
        public_features: Mapping[str, np.ndarray],
        decisions: np.ndarray,
        actions: np.ndarray,
        observation: Mapping[str, np.ndarray | float],
        k: int,
    ) -> None:
        """Refit the scorecard on this step's repayments."""
        incomes = np.asarray(public_features["income"], dtype=float)
        rates = np.asarray(observation["user_default_rates"], dtype=float)
        self._lender.retrain(
            incomes,
            rates,
            np.asarray(actions, dtype=float),
            offered=np.asarray(decisions, dtype=float),
        )

    def update_from_suffstats(self, table: CompressedDesign, k: int) -> None:
        """Refit the scorecard from a merged shard count table.

        ``table`` must already be restricted to offered users (the shard
        compression passes the decisions as the ``offered`` mask) and merged
        across all shards; the refit then touches only the unique rows.
        """
        self._lender.retrain_from_suffstats(table)

    def export_state(self) -> Dict[str, object]:
        """Return a picklable snapshot of the system's mutable state.

        Wraps the lender's learning state (round counter + fitted model;
        the scorecard is rebuilt from the model on import) together with
        the last decision round's scores.  Used by the checkpoint layer —
        see :mod:`repro.core.checkpoint`.
        """
        return {
            "lender": self._lender.export_state(),
            "last_scores": (
                None if self._last_scores is None else self._last_scores.copy()
            ),
        }

    def import_state(self, state: Mapping[str, object]) -> None:
        """Restore the state captured by :meth:`export_state`."""
        self._lender.import_state(state["lender"])
        scores = state.get("last_scores")
        self._last_scores = (
            None if scores is None else np.asarray(scores, dtype=float).copy()
        )


class ScorecardDecisionSystem:
    """A fixed scorecard applied every step, never retrained.

    This is the open-loop (concept-drift-blind) baseline: the card of
    Table I — or any other card — decides forever on the same points.
    """

    def __init__(self, scorecard: Scorecard, cutoff: float = 0.4) -> None:
        self._scorecard = scorecard
        self._cutoff_policy = CutoffPolicy(cutoff=cutoff)

    @property
    def scorecard(self) -> Scorecard:
        """Return the fixed scorecard."""
        return self._scorecard

    def decide(
        self,
        public_features: Mapping[str, np.ndarray],
        observation: Mapping[str, np.ndarray | float],
        k: int,
    ) -> np.ndarray:
        """Score (previous ADR, income) with the fixed card and decide."""
        incomes = np.asarray(public_features["income"], dtype=float)
        rates = np.asarray(observation["user_default_rates"], dtype=float)
        features = np.column_stack([rates, incomes])
        scores = self._scorecard.score_matrix(features)
        return self._cutoff_policy.decide(scores).astype(float)

    def update(
        self,
        public_features: Mapping[str, np.ndarray],
        decisions: np.ndarray,
        actions: np.ndarray,
        observation: Mapping[str, np.ndarray | float],
        k: int,
    ) -> None:
        """Fixed scorecards never retrain."""
        return None


class ConstantDecisionSystem:
    """Give every user the same decision every step.

    With ``decision=1`` this is the approve-everyone policy of the paper's
    warm-up years — the purest equal treatment, and the reference point for
    the equal-impact discussion of the introduction.
    """

    def __init__(self, decision: int = 1) -> None:
        if decision not in (0, 1):
            raise ValueError("decision must be 0 or 1")
        self._decision = int(decision)

    @property
    def decision(self) -> int:
        """Return the constant decision."""
        return self._decision

    def decide(
        self,
        public_features: Mapping[str, np.ndarray],
        observation: Mapping[str, np.ndarray | float],
        k: int,
    ) -> np.ndarray:
        """Return the constant decision for every user."""
        num_users = self._infer_num_users(public_features, observation)
        return np.full(num_users, float(self._decision))

    def update(
        self,
        public_features: Mapping[str, np.ndarray],
        decisions: np.ndarray,
        actions: np.ndarray,
        observation: Mapping[str, np.ndarray | float],
        k: int,
    ) -> None:
        """Constant policies never retrain."""
        return None

    @staticmethod
    def _infer_num_users(
        public_features: Mapping[str, np.ndarray],
        observation: Mapping[str, np.ndarray | float],
    ) -> int:
        for mapping in (public_features, observation):
            for value in mapping.values():
                array = np.asarray(value)
                if array.ndim >= 1 and array.size >= 1:
                    return int(array.shape[0])
        raise ValueError(
            "cannot infer the population size; provide per-user public features "
            "or a per-user observation"
        )
