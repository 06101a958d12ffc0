"""Placement policy interface for the storage simulator.

A policy sees each job at its arrival (with current SSD occupancy) and
answers SSD-or-HDD; after the simulator applies the decision the policy
receives the outcome (how much actually fit), which is the real-time
feedback channel the paper's adaptive algorithm consumes.  Policies
speak two protocols.

Scalar protocol (one job at a time)
-----------------------------------
Every policy implements::

    def decide_one(self, job_index, time, free_ssd, capacity)
        -> tuple[bool, float | None]          # (want_ssd, ssd_ttl)

and may override :meth:`PlacementPolicy.observe_one` to receive each
job's applied outcome.  Both take plain scalars, so a per-job round
trip allocates no objects.  The offline ``legacy`` engine and the
online :class:`~repro.serve.PlacementService` in ``"scalar"`` mode
drive this protocol, one ``decide_one``/``observe_one`` pair per job.

Batch protocol (the simulator's fast path)
------------------------------------------
Policies whose decision *rule* only changes at discrete instants (the
adaptive policies between ACT updates, the heuristic between admission
refreshes, replayed/static baselines for the whole trace) may
additionally implement::

    def decide_batch(self, first: int, ctx: PlacementContext) -> BatchDecision

returning decisions for a whole run of upcoming jobs at once.  The
chunked simulator engine drives such policies in decision-interval
chunks with vectorized capacity accounting, calling
:meth:`PlacementPolicy.observe_batch` with structure-of-arrays feedback
after each chunk.  The default ``observe_batch`` fans the chunk out to
``observe_one``, so a policy that overrides only ``observe_one`` sees
the same feedback on every path.  Policies without ``decide_batch``
run through the legacy per-job event loop.

Two drivers speak the batch protocol: the offline engine
(:func:`repro.storage.engine.run_placement`) and the online
:class:`~repro.serve.PlacementService`.  Both call ``decide_batch``
exactly once per chunk with the chunk-opening context; the service may
*defer running* the chunk until the declared run of jobs has been
submitted (its admission queue), so a ``count`` reaching past the jobs
a policy can currently see is fine — the driver clamps it to the
available horizon exactly as the engine clamps at trace end.  Online
policies without a full trace (e.g.
:class:`~repro.serve.OnlineAdaptivePolicy`) simply declare chunks up to
the jobs observed so far.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..cost import CostRates
from ..workloads.job import Trace

__all__ = [
    "PlacementContext",
    "BatchDecision",
    "BatchOutcomes",
    "PlacementPolicy",
    "FixedPolicy",
]


@dataclass(frozen=True)
class PlacementContext:
    """The chunk-opening snapshot ``decide_batch`` receives.

    ``free_ssd`` and ``capacity`` are *lane-local* — the chunk's
    *first* job's caching server (whose slice may differ from its
    peers' under a heterogeneous capacity layout); with one global
    pool they are the global counters.  One chunk spans many lanes, so
    batch policies needing per-job lane data use the routing vector
    from :meth:`PlacementPolicy.on_shard_topology`.
    """

    time: float
    free_ssd: float
    capacity: float


@dataclass(frozen=True)
class BatchDecision:
    """Decisions for ``count`` consecutive jobs starting at some index.

    Attributes
    ----------
    count:
        How many upcoming jobs this decision covers (>= 1).  The policy
        guarantees its decision rule is constant over the run — the
        simulator will not call back before job ``first + count``.
    want_ssd:
        Boolean mask of length ``count``, or ``None`` with
        ``fit_check=True``.
    ssd_ttl:
        Optional per-job SSD residency bound (length ``count``); NaN or
        ``None`` entries mean "resident until job end".
    fit_check:
        FirstFit semantics: a job wants SSD iff its full footprint fits
        in the free capacity observed at its own arrival.  The decision
        depends on evolving occupancy, so no mask can be precomputed,
        but the simulator can still drive the run without per-job
        policy calls.
    """

    count: int
    want_ssd: np.ndarray | None
    ssd_ttl: np.ndarray | None = None
    fit_check: bool = False


@dataclass(frozen=True)
class BatchOutcomes:
    """Structure-of-arrays feedback for one simulated chunk.

    Column ``k`` carries job ``first + k``'s :meth:`observe_one`
    arguments; ``spill_time`` is NaN-encoded (NaN = nothing spilled).
    ``shards`` carries the per-job caching-server routing of the chunk,
    or ``None`` in unsharded runs (one global pool).
    """

    first: int
    times: np.ndarray
    requested_ssd: np.ndarray
    ssd_space_fraction: np.ndarray
    spill_time: np.ndarray
    shards: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.times)


class PlacementPolicy(ABC):
    """Base class for all placement methods (baselines and BYOM)."""

    #: Human-readable method name used in reports.
    name: str = "policy"

    def on_simulation_start(
        self, trace: Trace, capacity: float, rates: CostRates
    ) -> None:
        """Called once before the event loop; default is stateless.

        ``capacity`` is the run's *total* SSD capacity across all lanes;
        the per-lane layout follows in :meth:`on_shard_topology`.
        """

    def on_shard_topology(
        self, shards: np.ndarray | None, lane_capacities: np.ndarray
    ) -> None:
        """Called once per run, after :meth:`on_simulation_start`.

        ``shards`` is the per-job caching-server routing vector of the
        trace (``None`` with one global pool) and ``lane_capacities``
        the per-lane capacity layout — unequal under a heterogeneous
        split.  Shard-aware policies (e.g. per-shard adaptive
        thresholds) hook in here; the default ignores the topology.
        """

    @abstractmethod
    def decide_one(
        self, job_index: int, time: float, free_ssd: float, capacity: float
    ) -> tuple[bool, float | None]:
        """Place job ``job_index`` arriving at ``time``.

        ``free_ssd`` and ``capacity`` are *lane-local*: in sharded runs
        they describe the job's own caching server, and with one global
        pool they are the global counters.  Returns ``(want_ssd,
        ssd_ttl)``; ``ssd_ttl`` optionally bounds the job's SSD
        residency — the space is released (and remaining I/O falls
        back to HDD) after this many seconds, implementing the ML
        baseline's mu+sigma eviction.  ``None`` means resident until
        the job ends.
        """

    def observe_one(
        self,
        job_index: int,
        time: float,
        requested_ssd: bool,
        ssd_space_fraction: float,
        spill_time: float | None,
        shard: int = 0,
    ) -> None:
        """Receive job ``job_index``'s applied outcome (default: ignore).

        ``requested_ssd`` is whether the policy asked for SSD (``x.DEV``
        in the paper); ``ssd_space_fraction`` the fraction of the job's
        footprint that fit on SSD (1.0 = fully placed, 0.0 = fully
        spilled or HDD-placed); ``spill_time`` the time spillover began
        (the arrival, in this admit-at-arrival model), or ``None`` if
        nothing spilled; ``shard`` the caching server the job was
        routed to (0 in unsharded runs).
        """

    def observe_batch(self, outcomes: BatchOutcomes) -> None:
        """Receive one chunk of outcomes from the chunked engine.

        The default fans the chunk's columns out to :meth:`observe_one`
        (skipped entirely when the policy never overrode it);
        feedback-driven policies should override this with a vectorized
        ingest.
        """
        if type(self).observe_one is PlacementPolicy.observe_one:
            return
        shards = outcomes.shards
        for k in range(len(outcomes)):
            st = float(outcomes.spill_time[k])
            self.observe_one(
                outcomes.first + k,
                float(outcomes.times[k]),
                bool(outcomes.requested_ssd[k]),
                float(outcomes.ssd_space_fraction[k]),
                None if np.isnan(st) else st,
                0 if shards is None else int(shards[k]),
            )


class FixedPolicy(PlacementPolicy):
    """Replays a precomputed 0/1 placement vector (oracle output)."""

    name = "fixed"

    def __init__(self, decisions: np.ndarray, name: str = "fixed"):
        self.decisions = np.asarray(decisions).astype(bool)
        self.name = name

    def decide_one(
        self, job_index: int, time: float, free_ssd: float, capacity: float
    ) -> tuple[bool, float | None]:
        return bool(self.decisions[job_index]), None

    def decide_batch(self, first: int, ctx: PlacementContext) -> BatchDecision:
        """The whole remaining replay in one chunk (rule never changes)."""
        mask = self.decisions[first:]
        return BatchDecision(count=len(mask), want_ssd=mask)
