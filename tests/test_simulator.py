"""Event-driven placement simulator: capacity, spillover, eviction, costs."""

import numpy as np
import pytest

from repro.storage import FixedPolicy, PlacementPolicy, simulate
from repro.units import GIB
from repro.workloads import Trace

from helpers import make_job


class AlwaysSSD(PlacementPolicy):
    name = "always-ssd"

    def decide_one(self, job_index, time, free_ssd, capacity):
        return True, None


class AlwaysHDD(PlacementPolicy):
    name = "always-hdd"

    def decide_one(self, job_index, time, free_ssd, capacity):
        return False, None


class TTLPolicy(PlacementPolicy):
    name = "ttl"

    def __init__(self, ttl):
        self.ttl = ttl

    def decide_one(self, job_index, time, free_ssd, capacity):
        return True, self.ttl


class TestBasics:
    def test_all_hdd_zero_savings(self, handmade_trace):
        res = simulate(handmade_trace, AlwaysHDD(), capacity=100 * GIB)
        assert res.tco_savings_pct == 0.0
        assert res.tcio_savings_pct == 0.0
        assert (res.ssd_fraction == 0).all()

    def test_infinite_ssd_full_savings(self, handmade_trace):
        res = simulate(handmade_trace, AlwaysSSD(), capacity=1e18)
        assert (res.ssd_fraction == 1.0).all()
        assert res.realized_hdd_tcio == 0.0
        assert res.tcio_savings_pct == pytest.approx(100.0)
        expected = handmade_trace.costs()
        assert res.realized_tco == pytest.approx(expected.c_ssd.sum())

    def test_negative_capacity_raises(self, handmade_trace):
        with pytest.raises(ValueError):
            simulate(handmade_trace, AlwaysSSD(), capacity=-1.0)

    def test_zero_capacity_all_spill(self, handmade_trace):
        res = simulate(handmade_trace, AlwaysSSD(), capacity=0.0)
        assert (res.ssd_fraction == 0.0).all()
        assert res.n_spilled == len(handmade_trace)


class TestCapacityAccounting:
    def test_partial_fit_spills_remainder(self):
        trace = Trace([make_job(0, size=10 * GIB)])
        res = simulate(trace, AlwaysSSD(), capacity=4 * GIB)
        assert res.ssd_fraction[0] == pytest.approx(0.4)
        assert res.n_spilled == 1

    def test_capacity_freed_at_job_end(self):
        # Two 10 GiB jobs, disjoint in time, 10 GiB capacity: both fit.
        jobs = [
            make_job(0, arrival=0.0, duration=50.0, size=10 * GIB),
            make_job(1, arrival=100.0, duration=50.0, size=10 * GIB),
        ]
        res = simulate(Trace(jobs), AlwaysSSD(), capacity=10 * GIB)
        assert (res.ssd_fraction == 1.0).all()

    def test_concurrent_jobs_compete(self):
        jobs = [
            make_job(0, arrival=0.0, duration=100.0, size=10 * GIB),
            make_job(1, arrival=10.0, duration=100.0, size=10 * GIB),
        ]
        res = simulate(Trace(jobs), AlwaysSSD(), capacity=10 * GIB)
        assert res.ssd_fraction[0] == 1.0
        assert res.ssd_fraction[1] == 0.0

    def test_peak_usage_tracked(self, handmade_trace):
        res = simulate(handmade_trace, AlwaysSSD(), capacity=1e18)
        assert res.peak_ssd_used == pytest.approx(handmade_trace.peak_ssd_usage())


class TestEviction:
    def test_ttl_frees_capacity_early(self):
        # Job 0 occupies SSD but is evicted at t=10; job 1 arrives at
        # t=20 and must find the space free.
        jobs = [
            make_job(0, arrival=0.0, duration=1000.0, size=10 * GIB),
            make_job(1, arrival=20.0, duration=100.0, size=10 * GIB),
        ]
        res = simulate(Trace(jobs), TTLPolicy(10.0), capacity=10 * GIB)
        assert res.ssd_fraction[1] > 0.0

    def test_ttl_reduces_ssd_time_fraction(self):
        trace = Trace([make_job(0, arrival=0.0, duration=100.0, size=1 * GIB)])
        res = simulate(trace, TTLPolicy(25.0), capacity=10 * GIB)
        assert res.ssd_fraction[0] == pytest.approx(0.25)

    def test_ttl_longer_than_duration_is_full_residency(self):
        trace = Trace([make_job(0, duration=100.0)])
        res = simulate(trace, TTLPolicy(1e9), capacity=1e18)
        assert res.ssd_fraction[0] == 1.0


class TestRealizedCosts:
    def test_cost_interpolation(self):
        trace = Trace([make_job(0, size=10 * GIB)])
        costs = trace.costs()
        res = simulate(trace, AlwaysSSD(), capacity=5 * GIB)
        f = res.ssd_fraction[0]
        expected = f * costs.c_ssd[0] + (1 - f) * costs.c_hdd[0]
        assert res.realized_tco == pytest.approx(expected)

    def test_savings_sign_consistency(self, small_trace):
        res = simulate(small_trace, AlwaysSSD(), capacity=1e18)
        agg = small_trace.costs()
        expected_pct = 100 * agg.savings.sum() / agg.c_hdd.sum()
        assert res.tco_savings_pct == pytest.approx(expected_pct)


class TestFixedPolicy:
    def test_replays_decisions(self, handmade_trace):
        decisions = np.array([True, False, True, False])
        res = simulate(handmade_trace, FixedPolicy(decisions), capacity=1e18)
        assert (res.ssd_fraction > 0) == pytest.approx(decisions)
        assert res.n_ssd_requested == 2
