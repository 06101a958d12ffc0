"""Imitation-learning baseline: learn the oracle's decisions directly.

Section 4 of the paper explains why this *doesn't* work in deployment:

    "A common approach to ML-driven systems is to train a model that
    learns to make decisions [...] e.g., via imitation learning.
    However, data centers are highly dynamic environments and the
    optimal decision depends on external factors such as the available
    amount of SSD at a given point in time."

We implement it anyway, as the paper's motivating negative result: a
GBT classifier is trained to imitate the clairvoyant oracle's SSD/HDD
decisions *at one training-time SSD capacity*.  When deployed at a
different capacity, its decision boundary is stale — it keeps admitting
the training-regime's job population regardless of the room actually
available.  The ablation benchmark quantifies exactly this failure mode
against the BYOM design, whose model output (a capacity-independent
ranking) dodges the problem by construction.
"""

from __future__ import annotations

import numpy as np

from ..cost import CostRates, DEFAULT_RATES
from ..ml.gbdt import GBTClassifier
from ..oracle.ilp import oracle_placement
from ..storage.policy import BatchDecision, PlacementContext, PlacementPolicy
from ..workloads.features import FeatureMatrix
from ..workloads.job import Trace

__all__ = ["ImitationModel", "ImitationPolicy"]


class ImitationModel:
    """GBT classifier imitating oracle decisions at a fixed capacity.

    Parameters
    ----------
    train_quota_fraction:
        SSD quota (fraction of the training trace's peak usage) at which
        the teacher oracle is solved.  The learned decision boundary is
        implicitly specialized to this regime.
    """

    def __init__(
        self,
        train_quota_fraction: float = 0.1,
        n_rounds: int = 15,
        max_depth: int = 6,
        rates: CostRates = DEFAULT_RATES,
    ):
        if not 0.0 < train_quota_fraction <= 1.0:
            raise ValueError("train_quota_fraction must be in (0, 1]")
        self.train_quota_fraction = train_quota_fraction
        self.rates = rates
        self.model = GBTClassifier(n_rounds=n_rounds, max_depth=max_depth)
        self._fitted = False

    def fit(self, trace: Trace, features: FeatureMatrix) -> "ImitationModel":
        """Solve the teacher oracle on ``trace`` and imitate its labels."""
        if len(trace) != len(features):
            raise ValueError("trace and features must align")
        capacity = self.train_quota_fraction * trace.peak_ssd_usage()
        teacher = oracle_placement(
            trace, capacity, "tco", self.rates, integrality=False
        )
        labels = (teacher.ssd_fraction() > 0.5).astype(int)
        if labels.sum() == 0 or labels.sum() == len(labels):
            # Degenerate teacher (all one class): the classifier handles
            # it, but record it for callers.
            pass
        self.model.fit(features.X, labels)
        self._fitted = True
        return self

    def predict(self, features: FeatureMatrix) -> np.ndarray:
        """Binary SSD/HDD decision per job."""
        if not self._fitted:
            raise RuntimeError("model not fitted")
        return self.model.predict(features.X).astype(bool)


class ImitationPolicy(PlacementPolicy):
    """Replays the imitation model's fixed decisions online.

    No capacity feedback: the model decided SSD/HDD offline, and the
    policy follows it regardless of the deployment environment — the
    brittleness the paper calls out.
    """

    name = "Imitation"

    def __init__(self, model: ImitationModel, features: FeatureMatrix):
        self._decisions = model.predict(features)

    def on_simulation_start(self, trace: Trace, capacity: float, rates: CostRates) -> None:
        if len(trace) != len(self._decisions):
            raise ValueError("features must cover the simulated trace")

    def decide_one(
        self, job_index: int, time: float, free_ssd: float, capacity: float
    ) -> tuple[bool, float | None]:
        return bool(self._decisions[job_index]), None

    def decide_batch(self, first: int, ctx: PlacementContext) -> BatchDecision:
        """The whole remaining replay in one chunk.

        The model decided offline and ignores every feedback channel
        (the brittleness under study), so the mask never changes and the
        chunked engine can drive the entire trace in one batch.
        """
        mask = self._decisions[first:]
        return BatchDecision(count=len(mask), want_ssd=mask)
