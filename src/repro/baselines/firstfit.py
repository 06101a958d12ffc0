"""FirstFit: static placement (Section 3.2).

"We try to place jobs on SSD in the order of their start times, checking
jobs' peak space usage and only placing jobs on SSD that fit in the
available SSD capacity."  The representative production heuristic: great
when SSD is plentiful, indiscriminate when it is scarce.
"""

from __future__ import annotations

from ..storage.policy import BatchDecision, PlacementContext, PlacementPolicy

__all__ = ["FirstFitPolicy"]


class FirstFitPolicy(PlacementPolicy):
    """Admit any job whose full footprint fits in the free SSD space."""

    name = "FirstFit"

    def __init__(self) -> None:
        self._trace = None

    def on_simulation_start(self, trace, capacity, rates) -> None:
        self._trace = trace

    def decide_one(
        self, job_index: int, time: float, free_ssd: float, capacity: float
    ) -> tuple[bool, float | None]:
        return bool(self._trace.sizes[job_index] <= free_ssd), None

    def decide_batch(self, first: int, ctx: PlacementContext) -> BatchDecision:
        """One fit-check chunk covering the rest of the trace.

        The rule ("admit iff it fits right now") never changes, so the
        chunked engine evaluates it against evolving occupancy without
        any further policy round-trips.
        """
        return BatchDecision(
            count=len(self._trace) - first, want_ssd=None, fit_check=True
        )
