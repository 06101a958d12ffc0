"""Adaptive Category Selection (Algorithm 1) behaviour."""

import numpy as np
import pytest

from repro.config import AdaptiveParams
from repro.core import AdaptiveCategoryPolicy, hash_categories
from repro.cost import DEFAULT_RATES
from repro.storage import BatchOutcomes, simulate
from repro.units import GIB
from repro.workloads import Trace

from helpers import make_job


def uniform_jobs(n, size=1 * GIB, spacing=100.0, duration=90.0, **kw):
    return Trace([
        make_job(i, arrival=i * spacing, duration=duration, size=size, **kw)
        for i in range(n)
    ])


def policy_for(trace, categories=None, n_cat=5, **params_kw):
    cats = categories if categories is not None else np.full(len(trace), n_cat - 1)
    params = AdaptiveParams(**params_kw) if params_kw else AdaptiveParams()
    return AdaptiveCategoryPolicy(np.asarray(cats), n_cat, params)


class TestValidation:
    def test_categories_out_of_range(self):
        with pytest.raises(ValueError):
            AdaptiveCategoryPolicy(np.array([5]), n_categories=5)

    def test_length_mismatch_detected(self):
        trace = uniform_jobs(3)
        policy = AdaptiveCategoryPolicy(np.array([1]), 5)
        with pytest.raises(ValueError):
            simulate(trace, policy, capacity=1e18)


class TestThresholdDynamics:
    def test_act_decreases_when_no_spillover(self):
        trace = uniform_jobs(50)
        policy = policy_for(
            trace, n_cat=8, initial_act=7, decision_interval=50.0, lookback_window=500.0
        )
        simulate(trace, policy, capacity=1e18)
        # Plenty of SSD: threshold must fall to its floor of 1.
        assert policy.act == 1
        assert len(policy.trajectory) > 1

    def test_act_increases_under_pressure(self):
        # Tiny SSD: everything spills, ACT must climb.
        trace = uniform_jobs(80, size=10 * GIB, spacing=50.0, duration=5000.0)
        policy = policy_for(
            trace, n_cat=8, decision_interval=50.0, lookback_window=5000.0,
            spillover_low=0.01, spillover_high=0.1,
        )
        simulate(trace, policy, capacity=1 * GIB)
        assert policy.act > 1

    def test_act_clamped_to_valid_range(self):
        trace = uniform_jobs(100, size=10 * GIB, duration=1e6, spacing=10.0)
        policy = policy_for(trace, n_cat=4, decision_interval=0.0, lookback_window=1e5)
        simulate(trace, policy, capacity=1.0)
        assert 1 <= policy.act <= 3

    def test_category_zero_never_admitted(self):
        trace = uniform_jobs(20)
        cats = np.zeros(20, dtype=int)
        policy = policy_for(trace, categories=cats, n_cat=5)
        res = simulate(trace, policy, capacity=1e18)
        assert res.n_ssd_requested == 0

    def test_high_category_admitted_low_rejected_under_pressure(self):
        # Alternating important/unimportant jobs under scarce SSD.
        trace = uniform_jobs(200, size=5 * GIB, spacing=30.0, duration=2000.0)
        cats = np.tile([1, 4], 100)
        policy = policy_for(
            trace, categories=cats, n_cat=5,
            decision_interval=30.0, lookback_window=2000.0,
            spillover_low=0.005, spillover_high=0.05,
        )
        res = simulate(trace, policy, capacity=10 * GIB)
        admitted_cats = cats[res.ssd_fraction > 0]
        if len(admitted_cats) > 10:
            # Important jobs must dominate admissions.
            assert (admitted_cats == 4).mean() > 0.5


class TestDecisionInterval:
    def test_updates_respect_interval(self):
        trace = uniform_jobs(100, spacing=10.0)
        policy = policy_for(trace, decision_interval=500.0, lookback_window=600.0)
        simulate(trace, policy, capacity=1e18)
        times = [e.time for e in policy.trajectory]
        assert all(b - a >= 500.0 for a, b in zip(times, times[1:]))

    def test_zero_interval_updates_every_arrival(self):
        trace = uniform_jobs(30, spacing=10.0)
        policy = policy_for(trace, decision_interval=0.0, lookback_window=100.0)
        simulate(trace, policy, capacity=1e18)
        assert len(policy.trajectory) == 30


class TestToleranceBand:
    def test_act_stable_inside_band(self):
        # Spillover stays at 0 but the low bound is 0.0, so 0 is never
        # strictly below it: ACT must not move.
        trace = uniform_jobs(50)
        policy = policy_for(
            trace, n_cat=8, initial_act=4,
            spillover_low=0.0, spillover_high=0.9, decision_interval=0.0,
        )
        simulate(trace, policy, capacity=1e18)
        assert policy.act == 4


class TestShardCounterConsistency:
    """Scalar ``observe_one`` and ``observe_batch`` must accumulate the
    same per-shard admission/spill counters, in any interleaving (the
    scalar path grows them via ``shard + 1``, the batch path via the
    chunk maximum with a bincount ``minlength``)."""

    def _stream(self, n=120, seed=3):
        trace = uniform_jobs(n)
        rng = np.random.default_rng(seed)
        shards = rng.integers(0, 4, n)
        requested = rng.random(n) < 0.7
        spilled = requested & (rng.random(n) < 0.3)
        return trace, shards, requested, spilled

    def _fresh(self, trace):
        policy = AdaptiveCategoryPolicy(np.full(len(trace), 3), 5)
        policy.on_simulation_start(trace, 1 * GIB, DEFAULT_RATES)
        return policy

    def _feed_scalar(self, policy, trace, shards, requested, spilled, idx):
        for i in idx:
            t = float(trace.arrivals[i])
            policy.observe_one(
                job_index=int(i),
                time=t,
                requested_ssd=bool(requested[i]),
                ssd_space_fraction=0.5 if spilled[i] else float(requested[i]),
                spill_time=t if spilled[i] else None,
                shard=int(shards[i]),
            )

    def _feed_batch(self, policy, trace, shards, requested, spilled, first, stop):
        times = trace.arrivals[first:stop]
        sp = spilled[first:stop]
        policy.observe_batch(
            BatchOutcomes(
                first=int(first),
                times=times,
                requested_ssd=requested[first:stop],
                ssd_space_fraction=np.where(
                    sp, 0.5, requested[first:stop].astype(float)
                ),
                spill_time=np.where(sp, times, np.nan),
                shards=shards[first:stop].astype(np.intp),
            )
        )

    def test_scalar_batch_and_interleaved_agree(self):
        trace, shards, requested, spilled = self._stream()
        n = len(trace)

        p_scalar = self._fresh(trace)
        self._feed_scalar(p_scalar, trace, shards, requested, spilled, range(n))

        p_batch = self._fresh(trace)
        for first in range(0, n, 7):
            self._feed_batch(
                p_batch, trace, shards, requested, spilled, first, min(first + 7, n)
            )

        p_mixed = self._fresh(trace)
        for k, first in enumerate(range(0, n, 7)):
            stop = min(first + 7, n)
            if k % 2 == 0:
                self._feed_batch(
                    p_mixed, trace, shards, requested, spilled, first, stop
                )
            else:
                self._feed_scalar(
                    p_mixed, trace, shards, requested, spilled, range(first, stop)
                )

        for other in (p_batch, p_mixed):
            assert np.array_equal(
                p_scalar.shard_ssd_requested, other.shard_ssd_requested
            )
            assert np.array_equal(p_scalar.shard_spills, other.shard_spills)
        assert int(p_scalar.shard_ssd_requested.sum()) == int(requested.sum())
        assert int(p_scalar.shard_spills.sum()) == int(spilled.sum())

    def test_topology_presizing_keeps_shapes_stable(self):
        """After on_shard_topology the counter shape never changes, even
        when later chunks only touch low shards."""
        trace, shards, requested, spilled = self._stream()
        policy = self._fresh(trace)
        policy.on_shard_topology(shards.astype(np.intp), np.full(6, GIB / 6))
        assert policy.shard_ssd_requested.size == 6
        self._feed_batch(policy, trace, shards, requested, spilled, 0, 40)
        self._feed_scalar(policy, trace, shards, requested, spilled, range(40, 80))
        assert policy.shard_ssd_requested.size == 6
        assert policy.shard_spills.size == 6


class TestHashCategories:
    def test_range_and_determinism(self, small_trace):
        cats = hash_categories(small_trace, 15)
        assert cats.min() >= 1
        assert cats.max() <= 14
        assert np.array_equal(cats, hash_categories(small_trace, 15))

    def test_same_pipeline_same_category(self, small_trace):
        cats = hash_categories(small_trace, 15)
        by_pipe = {}
        for c, p in zip(cats, small_trace.pipelines):
            by_pipe.setdefault(p, set()).add(int(c))
        assert all(len(v) == 1 for v in by_pipe.values())

    def test_seed_changes_assignment(self, small_trace):
        a = hash_categories(small_trace, 15, seed=0)
        b = hash_categories(small_trace, 15, seed=1)
        assert not np.array_equal(a, b)

    def test_rejects_small_n(self, small_trace):
        with pytest.raises(ValueError):
            hash_categories(small_trace, 1)
