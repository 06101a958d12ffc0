"""Sharded caching-server simulation."""

import numpy as np
import pytest

from repro.storage import (
    PlacementPolicy,
    assign_shards,
    simulate,
    simulate_sharded,
)
from repro.units import GIB
from repro.workloads import Trace

from helpers import make_job


class AlwaysSSD(PlacementPolicy):
    name = "always-ssd"

    def decide_one(self, job_index, time, free_ssd, capacity):
        return True, None


class TestAssignShards:
    def test_pipeline_locality(self, small_trace):
        shards = assign_shards(small_trace, 4)
        by_pipe = {}
        for s, p in zip(shards, small_trace.pipelines):
            by_pipe.setdefault(p, set()).add(int(s))
        assert all(len(v) == 1 for v in by_pipe.values())

    def test_range(self, small_trace):
        shards = assign_shards(small_trace, 4)
        assert shards.min() >= 0 and shards.max() < 4

    def test_rejects_zero_shards(self, small_trace):
        with pytest.raises(ValueError):
            assign_shards(small_trace, 0)


class TestSimulateSharded:
    def test_single_shard_matches_global(self, small_trace):
        cap = 0.05 * small_trace.peak_ssd_usage()
        a = simulate(small_trace, AlwaysSSD(), cap)
        b = simulate_sharded(small_trace, AlwaysSSD(), cap, n_shards=1)
        assert b.realized_tco == pytest.approx(a.realized_tco)
        assert b.n_spilled == a.n_spilled

    def test_fragmentation_hurts(self, small_trace):
        """Splitting the same capacity across shards can only lose."""
        cap = 0.05 * small_trace.peak_ssd_usage()
        whole = simulate_sharded(small_trace, AlwaysSSD(), cap, n_shards=1)
        split = simulate_sharded(small_trace, AlwaysSSD(), cap, n_shards=8)
        assert split.tcio_savings_pct <= whole.tcio_savings_pct + 1e-9

    def test_shard_capacity_is_local(self):
        # Two pipelines hashing to different shards; each shard holds
        # exactly one of the two 5 GiB jobs under a 10 GiB total.
        jobs = [
            make_job(0, arrival=0.0, duration=100.0, size=6 * GIB, pipeline="pa"),
            make_job(1, arrival=1.0, duration=100.0, size=6 * GIB, pipeline="pb"),
        ]
        trace = Trace(jobs)
        shards = assign_shards(trace, 2)
        res = simulate_sharded(trace, AlwaysSSD(), capacity=12 * GIB, n_shards=2)
        if shards[0] != shards[1]:
            # Different shards: each job fits in its 6 GiB slice.
            assert res.n_spilled == 0
        else:
            # Same shard: the second job spills even though the other
            # shard is idle — the fragmentation effect.
            assert res.n_spilled == 1

    def test_capacity_validation(self, small_trace):
        with pytest.raises(ValueError):
            simulate_sharded(small_trace, AlwaysSSD(), -1.0, n_shards=2)

    def test_adaptive_policy_works_sharded(self, small_trace):
        from repro.core import AdaptiveCategoryPolicy, hash_categories

        cap = 0.02 * small_trace.peak_ssd_usage()
        policy = AdaptiveCategoryPolicy(hash_categories(small_trace, 8), 8)
        res = simulate_sharded(small_trace, policy, cap, n_shards=4)
        assert res.n_jobs == len(small_trace)
        assert len(policy.trajectory) > 0
