"""Demographic-parity post-processing baseline.

Group-fairness interventions of the kind the related-work section surveys
(demographic parity, equal opportunity) operate within a single pass of the
loop: they adjust decision thresholds per group so that approval *rates*
match.  This baseline implements the simplest such post-processor on top of
a retraining scorecard lender, so experiments can contrast "equalise the
treatment rates now" with "equalise the impact in the long run".

Note that, unlike every other policy in the library, this baseline consumes
the protected attribute — that is the point of the comparison.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.credit.lender import Lender
from repro.utils.validation import require_positive_probability

__all__ = ["GroupThresholdPolicy"]


class GroupThresholdPolicy:
    """Scorecard lender with per-group thresholds targeting a common approval rate.

    Parameters
    ----------
    groups:
        Mapping from group key to the array of user indices in that group.
    target_approval_rate:
        Desired approval rate in every group, applied to the score
        distribution of each group separately (each group's threshold is the
        corresponding quantile of its scores).
    lender:
        The wrapped retraining lender.
    """

    def __init__(
        self,
        groups: Mapping[object, np.ndarray],
        target_approval_rate: float = 0.9,
        lender: Lender | None = None,
    ) -> None:
        if not groups:
            raise ValueError("groups must not be empty")
        self._groups = {key: np.asarray(indices, dtype=int) for key, indices in groups.items()}
        self._target = require_positive_probability(
            target_approval_rate, "target_approval_rate"
        )
        self._lender = lender or Lender()

    @property
    def lender(self) -> Lender:
        """Return the wrapped lender."""
        return self._lender

    @property
    def target_approval_rate(self) -> float:
        """Return the per-group approval-rate target."""
        return self._target

    def decide(
        self,
        public_features: Mapping[str, np.ndarray],
        observation: Mapping[str, np.ndarray | float],
        k: int,
    ) -> np.ndarray:
        """Score everyone, then approve the top share within every group."""
        incomes = np.asarray(public_features["income"], dtype=float)
        rates = np.asarray(observation["user_default_rates"], dtype=float)
        decision = self._lender.decide(incomes, rates)
        if decision.warm_up:
            return decision.decisions.astype(float)
        scores = decision.scores
        approvals = np.zeros_like(scores)
        for indices in self._groups.values():
            if indices.size == 0:
                continue
            group_scores = scores[indices]
            # Approve the top share of the group by score rank.  Rank-based
            # selection (rather than a score threshold) keeps the approval
            # rate on target even when scores are heavily tied, which they
            # are whenever both features are near-binary.
            num_approved = int(round(self._target * indices.size))
            if num_approved == 0:
                continue
            order = np.argsort(group_scores)[::-1]
            approvals[indices[order[:num_approved]]] = 1.0
        return approvals

    def update(
        self,
        public_features: Mapping[str, np.ndarray],
        decisions: np.ndarray,
        actions: np.ndarray,
        observation: Mapping[str, np.ndarray | float],
        k: int,
    ) -> None:
        """Retrain the wrapped lender exactly like the unconstrained system."""
        incomes = np.asarray(public_features["income"], dtype=float)
        rates = np.asarray(observation["user_default_rates"], dtype=float)
        self._lender.retrain(
            incomes,
            rates,
            np.asarray(actions, dtype=float),
            offered=np.asarray(decisions, dtype=float),
        )
