"""Heuristic: practical adaptive placement (Section 3.3).

Emulates the state-of-the-art CacheSack-style approach (Yang et al.,
ATC'22) adapted for placement: storage requests carry a *category* (the
job's pipeline identity), and a per-category admission policy is built
from each category's measured dynamic behaviour.  Categories are ranked
by their historical TCO savings and added to the admission set until the
cumulative historical space usage reaches the SSD capacity; an arriving
job is placed on SSD iff its category is in the admission set.

The admission set is rebuilt periodically online from completed jobs, so
the heuristic adapts to workload drift (this is what makes it the
"closest practical approach to a learning-based baseline").
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..cost import CostRates, DEFAULT_RATES
from ..storage.policy import BatchDecision, PlacementContext, PlacementPolicy
from ..units import HOUR
from ..workloads.job import Trace

__all__ = ["CategoryAdmissionPolicy"]


def _admission_set(
    categories: list[str],
    savings: np.ndarray,
    avg_space: np.ndarray,
    capacity: float,
) -> set[str]:
    """Rank categories by savings; admit until space reaches capacity."""
    order = np.argsort(-savings)
    admitted: set[str] = set()
    used = 0.0
    for k in order:
        if savings[k] <= 0:
            break
        admitted.add(categories[k])
        used += avg_space[k]
        if used >= capacity:
            break
    return admitted


class CategoryAdmissionPolicy(PlacementPolicy):
    """Per-category admission with periodic online refresh.

    Parameters
    ----------
    train_trace:
        Historical trace used to seed the admission set (the paper
        constructs the policy "based on dynamic behavior" measured per
        category).
    refresh_interval:
        How often (seconds) the admission set is rebuilt from jobs
        completed so far in the evaluated trace.
    """

    name = "Heuristic"

    def __init__(
        self,
        train_trace: Trace | None = None,
        rates: CostRates = DEFAULT_RATES,
        refresh_interval: float = 6 * HOUR,
    ):
        self.train_trace = train_trace
        self.rates = rates
        self.refresh_interval = refresh_interval
        self._admitted: set[str] = set()
        self._trace: Trace | None = None
        self._capacity = 0.0
        self._next_refresh = 0.0
        # Online per-category accumulators over completed jobs.
        self._cat_savings: dict[str, float] = defaultdict(float)
        self._cat_space_seconds: dict[str, float] = defaultdict(float)
        self._observed_span = 1.0
        self._pending: list[int] = []  # indices sorted by end time
        self._savings_vec: np.ndarray | None = None

    def _seed_from_history(self, capacity: float) -> None:
        trace = self.train_trace
        if trace is None or len(trace) == 0:
            return
        savings = trace.costs(self.rates).savings
        span = max(float(trace.ends.max() - trace.arrivals.min()), 1.0)
        per_cat_savings: dict[str, float] = defaultdict(float)
        per_cat_space: dict[str, float] = defaultdict(float)
        for i, job in enumerate(trace):
            per_cat_savings[job.pipeline] += savings[i]
            per_cat_space[job.pipeline] += job.size * job.duration / span
        cats = sorted(per_cat_savings)
        self._admitted = _admission_set(
            cats,
            np.array([per_cat_savings[c] for c in cats]),
            np.array([per_cat_space[c] for c in cats]),
            capacity,
        )

    def on_simulation_start(self, trace: Trace, capacity: float, rates: CostRates) -> None:
        self._trace = trace
        self._capacity = capacity
        self.rates = rates
        self._savings_vec = trace.costs(rates).savings
        self._cat_savings.clear()
        self._cat_space_seconds.clear()
        self._pending = sorted(range(len(trace)), key=lambda i: trace.ends[i])
        self._pending_pos = 0
        self._pipelines = np.asarray(trace.pipelines, dtype=object)
        self._seed_from_history(capacity)
        start = float(trace.arrivals[0]) if len(trace) else 0.0
        self._epoch = start
        self._next_refresh = start + self.refresh_interval

    def _fold_completions(self, t: float) -> None:
        trace = self._trace
        ends = trace.ends
        while self._pending_pos < len(self._pending):
            i = self._pending[self._pending_pos]
            if ends[i] > t:
                break
            job = trace[i]
            self._cat_savings[job.pipeline] += self._savings_vec[i]
            self._cat_space_seconds[job.pipeline] += job.size * job.duration
            self._pending_pos += 1
        self._observed_span = max(t - self._epoch, 1.0)

    def _refresh(self, t: float) -> None:
        self._fold_completions(t)
        if not self._cat_savings:
            return
        cats = sorted(self._cat_savings)
        self._admitted = _admission_set(
            cats,
            np.array([self._cat_savings[c] for c in cats]),
            np.array([self._cat_space_seconds[c] / self._observed_span for c in cats]),
            self._capacity,
        )

    def decide_one(
        self, job_index: int, time: float, free_ssd: float, capacity: float
    ) -> tuple[bool, float | None]:
        if time >= self._next_refresh:
            self._refresh(time)
            self._next_refresh = time + self.refresh_interval
        return self._pipelines[job_index] in self._admitted, None

    def decide_batch(self, first: int, ctx: PlacementContext) -> BatchDecision:
        """Admission mask for every job up to the next refresh.

        Between refreshes the admission set is frozen, so membership is
        one vectorized lookup over the chunk's pipeline column.
        """
        if ctx.time >= self._next_refresh:
            self._refresh(ctx.time)
            self._next_refresh = ctx.time + self.refresh_interval
        arrivals = self._trace.arrivals
        stop = int(np.searchsorted(arrivals, self._next_refresh, side="left"))
        stop = min(max(stop, first + 1), len(arrivals))
        chunk = self._pipelines[first:stop]
        if self._admitted:
            mask = np.isin(chunk, np.asarray(sorted(self._admitted), dtype=object))
        else:
            mask = np.zeros(len(chunk), dtype=bool)
        return BatchDecision(count=stop - first, want_ssd=mask)
