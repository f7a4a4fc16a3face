"""The uniform-credit-limit baseline (pure equal treatment).

The paper's introduction describes the policy: "everyone who has not
defaulted on any loan is approved a credit up to $50000.  Anyone else is
declined credit."  It treats everyone identically — and, as the paper
argues, over time the lower-income subgroup defaults more often on the
fixed-size loan, gets locked out, and equal impact fails.

The decision rule only needs the filtered default history; the $50K loan
size itself is configured on the population side via
``MortgageTerms(fixed_principal=50)``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.utils.validation import require_probability

__all__ = ["UniformLimitPolicy"]


class UniformLimitPolicy:
    """Approve every user whose average default rate does not exceed a tolerance.

    Parameters
    ----------
    max_default_rate:
        Largest historical average default rate still approved.  The paper's
        wording ("has not defaulted on any loan") corresponds to the default
        of 0; a small positive tolerance models a slightly forgiving lender.
    """

    def __init__(self, max_default_rate: float = 0.0) -> None:
        self._max_default_rate = require_probability(
            max_default_rate, "max_default_rate"
        )

    @property
    def max_default_rate(self) -> float:
        """Return the approval tolerance on the historical default rate."""
        return self._max_default_rate

    def decide(
        self,
        public_features: Mapping[str, np.ndarray],
        observation: Mapping[str, np.ndarray | float],
        k: int,
    ) -> np.ndarray:
        """Approve users whose historical default rate is within tolerance."""
        rates = np.asarray(observation["user_default_rates"], dtype=float)
        return (rates <= self._max_default_rate).astype(float)

    def update(
        self,
        public_features: Mapping[str, np.ndarray],
        decisions: np.ndarray,
        actions: np.ndarray,
        observation: Mapping[str, np.ndarray | float],
        k: int,
    ) -> None:
        """The uniform rule has nothing to retrain."""
        return None
