"""Simulator edge cases: ties, zero-size jobs, release ordering."""

import numpy as np
import pytest

from repro.storage import PlacementPolicy, simulate
from repro.units import GIB
from repro.workloads import Trace

from helpers import make_job


class AlwaysSSD(PlacementPolicy):
    name = "always"

    def decide_one(self, job_index, time, free_ssd, capacity):
        return True, None


class TestArrivalTies:
    def test_simultaneous_arrivals_processed_in_id_order(self):
        jobs = [
            make_job(1, arrival=100.0, duration=50.0, size=8 * GIB),
            make_job(0, arrival=100.0, duration=50.0, size=8 * GIB),
        ]
        trace = Trace(jobs)
        # Trace sorts by (arrival, job_id): job 0 first.
        assert trace[0].job_id == 0
        res = simulate(trace, AlwaysSSD(), capacity=8 * GIB)
        assert res.ssd_fraction[0] == 1.0
        assert res.ssd_fraction[1] == 0.0

    def test_release_exactly_at_arrival_frees_first(self):
        # Job 0 ends at t=100; job 1 arrives at t=100 and must fit.
        jobs = [
            make_job(0, arrival=0.0, duration=100.0, size=10 * GIB),
            make_job(1, arrival=100.0, duration=10.0, size=10 * GIB),
        ]
        res = simulate(Trace(jobs), AlwaysSSD(), capacity=10 * GIB)
        assert res.ssd_fraction[1] == 1.0


class TestDegenerateJobs:
    def test_tiny_job_handled(self):
        trace = Trace([make_job(0, size=1.0, read_bytes=0.0, write_bytes=0.0,
                                read_ops=1.0)])
        res = simulate(trace, AlwaysSSD(), capacity=1e18)
        assert res.ssd_fraction[0] == 1.0

    def test_many_concurrent_small_jobs(self):
        jobs = [
            make_job(i, arrival=0.0, duration=1000.0, size=1 * GIB)
            for i in range(20)
        ]
        res = simulate(Trace(jobs), AlwaysSSD(), capacity=10 * GIB)
        # Exactly 10 fit fully; the rest spill entirely.
        assert int((res.ssd_fraction == 1.0).sum()) == 10
        assert res.n_spilled == 10

    def test_peak_usage_never_exceeds_capacity(self):
        rng = np.random.default_rng(5)
        jobs = [
            make_job(
                i,
                arrival=float(rng.uniform(0, 1000)),
                duration=float(rng.uniform(10, 500)),
                size=float(rng.uniform(0.1, 5) * GIB),
            )
            for i in range(200)
        ]
        cap = 3 * GIB
        res = simulate(Trace(jobs), AlwaysSSD(), capacity=cap)
        assert res.peak_ssd_used <= cap + 1e-6
