"""Rolling retraining: models evolve at the velocity of the workload.

Section 2.3's deployment argument is that BYOM lets each workload
retrain and ship its model on its own schedule instead of the storage
system's release cadence.  This module provides the mechanism: a
:class:`RollingTrainer` that periodically refits the category model on a
sliding window of recently *completed* jobs and swaps the predictions
used by the adaptive policy — all at the application layer, with the
storage-layer algorithm untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import AdaptiveParams, ModelParams
from ..cost import CostRates, DEFAULT_RATES
from ..storage.policy import PlacementPolicy
from ..workloads.features import FeatureMatrix
from ..workloads.job import Trace
from .adaptive import AdaptiveCategoryPolicy
from .category_model import CategoryModel

__all__ = ["RetrainEvent", "RollingTrainer", "RetrainingPolicy"]


@dataclass(frozen=True)
class RetrainEvent:
    """Bookkeeping for one model refresh."""

    time: float
    n_training_jobs: int
    top1_accuracy_online: float


class RollingTrainer:
    """Refits a category model on a sliding window of completed jobs.

    Parameters
    ----------
    window:
        Only jobs that *completed* within the last ``window`` seconds
        are used as training data (their outcomes are known).
    interval:
        Minimum time between refits.
    min_jobs:
        Skip a refresh when fewer than this many completed jobs exist.
    """

    def __init__(
        self,
        model_params: ModelParams | None = None,
        window: float = 7 * 86400.0,
        interval: float = 86400.0,
        min_jobs: int = 200,
        rates: CostRates = DEFAULT_RATES,
    ):
        if window <= 0 or interval <= 0:
            raise ValueError("window and interval must be > 0")
        self.model_params = model_params or ModelParams()
        self.window = window
        self.interval = interval
        self.min_jobs = min_jobs
        self.rates = rates
        self.model: CategoryModel | None = None
        self.events: list[RetrainEvent] = []
        self._last_fit = -np.inf

    def maybe_refit(
        self, t: float, trace: Trace, features: FeatureMatrix
    ) -> bool:
        """Refit if due; training data = jobs completed in the window.

        Returns True when a new model was installed.
        """
        if t < self._last_fit + self.interval:
            return False
        ends = trace.ends
        eligible = (ends <= t) & (ends > t - self.window)
        idx = np.flatnonzero(eligible)
        if idx.size < self.min_jobs:
            return False
        sub_trace = Trace([trace[i] for i in idx], name="rolling-window")
        sub_features = features.take(idx)
        model = CategoryModel(self.model_params, self.rates)
        model.fit(sub_trace, sub_features)
        acc = model.top1_accuracy(sub_trace, sub_features)
        self.model = model
        self._last_fit = t
        self.events.append(
            RetrainEvent(time=t, n_training_jobs=int(idx.size), top1_accuracy_online=acc)
        )
        return True


class RetrainingPolicy(PlacementPolicy):
    """Adaptive category selection with periodic in-situ retraining.

    Wraps :class:`AdaptiveCategoryPolicy` but refreshes the per-job
    category predictions whenever the rolling trainer installs a new
    model.  The combined trace (history + live) and its feature matrix
    must cover every simulated job.
    """

    name = "Adaptive Ranking (rolling)"

    def __init__(
        self,
        trainer: RollingTrainer,
        features: FeatureMatrix,
        adaptive_params: AdaptiveParams | None = None,
    ):
        self.trainer = trainer
        self.features = features
        self.adaptive_params = adaptive_params or AdaptiveParams()
        self._inner: AdaptiveCategoryPolicy | None = None
        self._trace: Trace | None = None
        self._capacity = 0.0
        self._rates = DEFAULT_RATES

    def on_simulation_start(self, trace: Trace, capacity: float, rates: CostRates) -> None:
        if len(trace) != len(self.features):
            raise ValueError("features must cover the simulated trace")
        self._trace = trace
        self._capacity = capacity
        self._rates = rates
        n_cat = self.trainer.model_params.n_categories
        if self.trainer.model is not None:
            categories = self.trainer.model.predict(self.features)
        else:
            # No model yet: everything mid-rank until the first refit.
            categories = np.full(len(trace), max(n_cat // 2, 1), dtype=int)
        self._inner = AdaptiveCategoryPolicy(
            categories, n_cat, self.adaptive_params, name=self.name
        )
        self._inner.on_simulation_start(trace, capacity, rates)

    def on_shard_topology(self, shards, lane_capacities) -> None:
        self._inner.on_shard_topology(shards, lane_capacities)

    def decide_one(
        self, job_index: int, time: float, free_ssd: float, capacity: float
    ) -> tuple[bool, float | None]:
        if self.trainer.maybe_refit(time, self._trace, self.features):
            # Swap predictions in place; adaptive state (ACT, history)
            # carries over — only the hints change.
            self._inner.categories = self.trainer.model.predict(self.features)
        return self._inner.decide_one(job_index, time, free_ssd, capacity)

    def observe_one(
        self,
        job_index: int,
        time: float,
        requested_ssd: bool,
        ssd_space_fraction: float,
        spill_time: float | None,
        shard: int = 0,
    ) -> None:
        self._inner.observe_one(
            job_index, time, requested_ssd, ssd_space_fraction, spill_time, shard
        )

    @property
    def trajectory(self):
        return self._inner.trajectory if self._inner else []
