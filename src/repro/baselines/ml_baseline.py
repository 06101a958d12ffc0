"""ML Baseline: lifetime prediction-based tiering (Section 3.4).

Follows the SSD/HDD tiering case study of Zhou & Maas (2021): a model
predicts the mean ``mu`` and standard deviation ``sigma`` of each file's
lifetime; files with predicted ``mu + sigma`` shorter than a specified
time-to-live (TTL) are admitted to SSD, and "to mitigate mispredictions,
we evict any file residing in the SSD for longer than mu + sigma".

Lifetimes are heavy-tailed, so both regressors work in log space: one
GBT predicts ``log1p(lifetime)`` and a second predicts the squared
residual, yielding a per-job sigma.
"""

from __future__ import annotations

import numpy as np

from ..ml.gbdt import GBTRegressor
from ..storage.policy import BatchDecision, PlacementContext, PlacementPolicy
from ..units import HOUR
from ..workloads.features import FeatureMatrix
from ..workloads.job import Trace

__all__ = ["LifetimeModel", "LifetimePolicy"]


class LifetimeModel:
    """Predicts per-job lifetime mean and standard deviation (seconds)."""

    def __init__(self, n_rounds: int = 20, max_depth: int = 5):
        self._mu_model = GBTRegressor(n_rounds=n_rounds, max_depth=max_depth)
        self._var_model = GBTRegressor(n_rounds=max(n_rounds // 2, 5), max_depth=max_depth)

    def fit(self, features: FeatureMatrix, lifetimes: np.ndarray) -> "LifetimeModel":
        lifetimes = np.asarray(lifetimes, dtype=float)
        y = np.log1p(np.clip(lifetimes, 0.0, None))
        self._mu_model.fit(features.X, y)
        resid = y - self._mu_model.predict(features.X)
        self._var_model.fit(features.X, resid**2)
        return self

    def predict(self, features: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
        """Return (mu, sigma) in seconds.

        The log-space prediction interval ``log_mu + log_sigma`` maps
        back through ``expm1``; sigma is reported as the half-width of
        that interval so that ``mu + sigma`` is the admission bound.
        """
        log_mu = self._mu_model.predict(features.X)
        log_sigma = np.sqrt(np.clip(self._var_model.predict(features.X), 0.0, None))
        mu = np.expm1(log_mu)
        upper = np.expm1(log_mu + log_sigma)
        return np.clip(mu, 0.0, None), np.clip(upper - mu, 0.0, None)


class LifetimePolicy(PlacementPolicy):
    """Admit jobs with predicted ``mu + sigma < ttl``; evict at ``mu + sigma``."""

    name = "ML Baseline"

    def __init__(
        self,
        model: LifetimeModel,
        features: FeatureMatrix,
        ttl: float = 1 * HOUR,
    ):
        if ttl <= 0:
            raise ValueError("ttl must be > 0")
        self.model = model
        self.ttl = ttl
        mu, sigma = model.predict(features)
        self._bound = mu + sigma

    def on_simulation_start(self, trace: Trace, capacity: float, rates) -> None:
        if len(trace) != len(self._bound):
            raise ValueError(
                f"features cover {len(self._bound)} jobs but trace has {len(trace)}"
            )

    def decide_one(
        self, job_index: int, time: float, free_ssd: float, capacity: float
    ) -> tuple[bool, float | None]:
        bound = float(self._bound[job_index])
        if bound < self.ttl:
            return True, bound
        return False, None

    def decide_batch(self, first: int, ctx: PlacementContext) -> BatchDecision:
        """The full remaining trace: per-job bounds are precomputed and
        independent of simulator feedback."""
        bounds = self._bound[first:]
        return BatchDecision(
            count=len(bounds), want_ssd=bounds < self.ttl, ssd_ttl=bounds
        )
