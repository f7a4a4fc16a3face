"""The income-proportional credit-limit baseline.

The paper's introduction contrasts the uniform $50K limit with a credit
limit set at a multiple of the annual salary: the lower-income subgroup
receives smaller loans (a violation of equal treatment on the raw amounts)
but can repay them, build a history, and eventually enjoy an equal impact.

In the library the proportional loan size lives in the mortgage terms of
the population; the decision rule here simply approves everyone whose
income clears a minimal bar (and whose default history is not catastrophic,
if a cap is configured).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.utils.validation import require_non_negative, require_probability

__all__ = ["IncomeMultiplePolicy"]


class IncomeMultiplePolicy:
    """Approve users above a minimal income, with an optional default-rate cap.

    Parameters
    ----------
    minimum_income:
        Smallest income (in $K) still offered a loan; the default of 0
        approves everyone, reflecting that the loan amount — not the
        approval — is what scales with income.
    max_default_rate:
        Optional cap on the historical average default rate; ``None`` means
        no cap.
    """

    def __init__(
        self, minimum_income: float = 0.0, max_default_rate: float | None = None
    ) -> None:
        if max_default_rate is not None:
            require_probability(max_default_rate, "max_default_rate")
        self._minimum_income = require_non_negative(minimum_income, "minimum_income")
        self._max_default_rate = max_default_rate

    @property
    def minimum_income(self) -> float:
        """Return the minimal income required for approval."""
        return self._minimum_income

    def decide(
        self,
        public_features: Mapping[str, np.ndarray],
        observation: Mapping[str, np.ndarray | float],
        k: int,
    ) -> np.ndarray:
        """Approve users above the income bar (and under the optional cap)."""
        incomes = np.asarray(public_features["income"], dtype=float)
        approved = incomes >= self._minimum_income
        if self._max_default_rate is not None:
            rates = np.asarray(observation["user_default_rates"], dtype=float)
            approved &= rates <= self._max_default_rate
        return approved.astype(float)

    def update(
        self,
        public_features: Mapping[str, np.ndarray],
        decisions: np.ndarray,
        actions: np.ndarray,
        observation: Mapping[str, np.ndarray | float],
        k: int,
    ) -> None:
        """The proportional rule has nothing to retrain."""
        return None
