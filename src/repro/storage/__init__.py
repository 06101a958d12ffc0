"""Storage-layer substrate: one shard-aware placement runtime.

A single engine (:mod:`repro.storage.engine`) drives every placement
scenario: :func:`simulate` is the one-global-pool (``n_shards=1``) case
and :func:`simulate_sharded` splits the same capacity across caching
servers, modelled as lanes of a multi-lane capacity accountant.  Both
run either the reference per-job ``legacy`` loop or the vectorized
``chunked`` engine.  Policies (:mod:`repro.storage.policy`) speak two
protocols: the scalar ``decide_one``/``observe_one`` pair, one job at a
time, which every policy implements and the ``legacy`` loop drives; and
the ``decide_batch``/``observe_batch`` batch protocol the ``chunked``
engine drives.
"""

from .policy import (
    BatchDecision,
    BatchOutcomes,
    FixedPolicy,
    PlacementContext,
    PlacementPolicy,
)
from .devices import HddFleet, SsdFleet, SsdSpec, wearout_rate_from_spec
from .engine import run_placement
from .sharded import assign_shards, simulate_sharded
from .simulator import SimResult, analytic_result, simulate

__all__ = [
    "PlacementPolicy",
    "PlacementContext",
    "BatchDecision",
    "BatchOutcomes",
    "FixedPolicy",
    "SimResult",
    "simulate",
    "analytic_result",
    "run_placement",
    "SsdSpec",
    "SsdFleet",
    "HddFleet",
    "wearout_rate_from_spec",
    "assign_shards",
    "simulate_sharded",
]
