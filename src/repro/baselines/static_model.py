"""The never-retrained scorecard: the open-loop baseline.

The paper stresses that practical AI systems are retrained over time
("concept drift ... ignored by most analyses").  This baseline quantifies
what the retraining buys: the lender trains its scorecard once, right after
the warm-up years, and then keeps applying the same card forever, ignoring
every later observation.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.core.ai_system import CreditScoringSystem
from repro.credit.lender import Lender
from repro.utils.validation import require_integer, require_positive

__all__ = ["StaticCreditScoringSystem"]


class StaticCreditScoringSystem:
    """A credit-scoring system that stops retraining after the first fit.

    It wraps a :class:`~repro.core.ai_system.CreditScoringSystem`, decides
    through it and forwards only the first ``training_rounds`` ``update``
    calls.  It deliberately does not speak the sufficient-statistics
    protocol: a count-table refit would bypass the training budget.

    Parameters
    ----------
    lender:
        The wrapped lender (defaults to the paper's configuration).
    training_rounds:
        Number of initial ``update`` calls that actually retrain; later
        calls are ignored.  The default of 1 trains exactly once, on the
        data produced by the warm-up years.
    """

    def __init__(self, lender: Lender | None = None, training_rounds: int = 1) -> None:
        self._training_rounds = require_integer(training_rounds, "training_rounds")
        require_positive(self._training_rounds, "training_rounds")
        self._system = CreditScoringSystem(lender)
        self._updates_done = 0

    @property
    def lender(self) -> Lender:
        """Return the wrapped lender."""
        return self._system.lender

    @property
    def last_scores(self) -> np.ndarray | None:
        """Return the scores of the most recent decision round."""
        return self._system.last_scores

    @property
    def training_rounds(self) -> int:
        """Return how many update calls are allowed to retrain."""
        return self._training_rounds

    @property
    def updates_done(self) -> int:
        """Return how many retraining rounds have actually happened."""
        return self._updates_done

    def decide(
        self,
        public_features: Mapping[str, np.ndarray],
        observation: Mapping[str, np.ndarray | float],
        k: int,
    ) -> np.ndarray:
        """Score and decide with the current (eventually frozen) card."""
        return self._system.decide(public_features, observation, k)

    def update(
        self,
        public_features: Mapping[str, np.ndarray],
        decisions: np.ndarray,
        actions: np.ndarray,
        observation: Mapping[str, np.ndarray | float],
        k: int,
    ) -> None:
        """Retrain only during the first ``training_rounds`` update calls."""
        if self._updates_done >= self._training_rounds:
            return None
        self._system.update(public_features, decisions, actions, observation, k)
        self._updates_done += 1
        return None

    def export_state(self) -> Dict[str, object]:
        """Return the wrapped system's state plus the spent training budget."""
        return {
            "system": self._system.export_state(),
            "updates_done": self._updates_done,
        }

    def import_state(self, state: Mapping[str, object]) -> None:
        """Restore the state captured by :meth:`export_state`."""
        self._system.import_state(state["system"])
        self._updates_done = int(state["updates_done"])
