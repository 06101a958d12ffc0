"""Fault injection: every scripted fault fires, none escapes the service.

The graceful-degradation contract: a ``FaultInjector`` can throw lane
losses, quota changes, categorizer outages, lost/duplicated completion
events, transient submit errors, and crash points at a
``PlacementService``, and the only exceptions that ever surface are the
two *deliberate* ones (:class:`TransientSubmitError`, which callers
retry, and :class:`InjectedCrash`, which models a process death).
Everything else is absorbed: admission falls back to the heuristic
categorizer, shocks keep accounting exact, and completes stay
idempotent.  A seeded random-plan property test sweeps the space.
"""

import json

import numpy as np
import pytest

from repro.baselines import FirstFitPolicy
from repro.serve import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    LoadGenerator,
    OnlineAdaptivePolicy,
    PlacementService,
    TransientSubmitError,
)
from repro.units import GIB
from repro.workloads import Trace
from repro.workloads.metadata import stable_hash

from helpers import make_job
from test_serve_service import random_trace


def _categorizer(n_cat=8):
    return lambda jobs: [1 + stable_hash(j.pipeline, seed=1) % (n_cat - 1)
                         for j in jobs]


def _adaptive_service(cap=10 * GIB, n_shards=4, n_cat=8):
    svc = PlacementService(
        OnlineAdaptivePolicy(n_cat, per_shard_act=True), cap, n_shards,
        mode="batch", categorizer=_categorizer(n_cat),
    )
    return svc


class TestPlan:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(at=0, kind="martian")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(at=0, kind="worker_kill", lane=0)
        with pytest.raises(ValueError, match="at"):
            FaultEvent(at=-1, kind="quota", scale=0.5)
        with pytest.raises(ValueError, match="count"):
            FaultEvent(at=0, kind="drop_complete", count=0)
        with pytest.raises(ValueError, match="lane"):
            FaultEvent(at=0, kind="lane_loss")  # lane kinds need lane=

    def test_json_round_trip(self):
        plan = FaultPlan((
            FaultEvent(at=10, kind="lane_loss", lane=1),
            FaultEvent(at=20, kind="lane_shrink", lane=0, scale=0.25),
            FaultEvent(at=30, kind="quota", capacity=5 * GIB),
            FaultEvent(at=40, kind="drop_complete", count=3),
        ))
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert len(again) == 4
        # The wire format is plain JSON with an "events" list.
        assert [e["kind"] for e in json.loads(plan.to_json())["events"]] == [
            "lane_loss", "lane_shrink", "quota", "drop_complete",
        ]

    def test_from_file(self, tmp_path):
        p = tmp_path / "plan.json"
        p.write_text('{"events": [{"at": 5, "kind": "cat_fail"}]}')
        plan = FaultPlan.from_file(p)
        assert plan.events == (FaultEvent(at=5, kind="cat_fail"),)


class TestInjectorFires:
    def test_fires_at_submission_counts_in_plan_order(self):
        svc = _adaptive_service()
        plan = FaultPlan((
            FaultEvent(at=30, kind="cat_recover"),
            FaultEvent(at=10, kind="cat_fail"),
            FaultEvent(at=10, kind="drop_complete", count=1),
        ))
        inj = FaultInjector(svc, plan)
        jobs = [make_job(i, arrival=float(i)) for i in range(40)]
        for lo in range(0, 40, 5):
            inj.submit_jobs(jobs[lo:lo + 5])
        inj.drain()
        assert [(e.at, e.kind) for e in inj.fired] == [
            (10, "cat_fail"), (10, "drop_complete"), (30, "cat_recover"),
        ]
        assert inj.n_submitted_through == 40

    def test_every_kind_fires(self):
        """One plan touching all ten kinds runs to completion (the
        crash kind, last, surfaces as InjectedCrash — the one deliberate
        process-death signal)."""
        svc = _adaptive_service()
        events = [
            FaultEvent(at=5, kind="lane_loss", lane=1),
            FaultEvent(at=10, kind="lane_shrink", lane=0, scale=0.5),
            FaultEvent(at=15, kind="lane_restore", lane=1),
            FaultEvent(at=20, kind="quota", scale=0.5),
            FaultEvent(at=25, kind="cat_fail"),
            FaultEvent(at=30, kind="cat_recover"),
            FaultEvent(at=35, kind="drop_complete", count=1),
            FaultEvent(at=35, kind="dup_complete", count=1),
            FaultEvent(at=40, kind="submit_error", count=1),
            FaultEvent(at=50, kind="crash"),
        ]
        inj = FaultInjector(svc, FaultPlan(tuple(events)))
        jobs = [make_job(i, arrival=float(i), size=0.5 * GIB) for i in range(60)]
        crashed = False
        for lo in range(0, 60, 5):
            try:
                inj.submit_jobs(jobs[lo:lo + 5])
            except TransientSubmitError:
                inj.submit_jobs(jobs[lo:lo + 5])  # retry succeeds
            except InjectedCrash:
                crashed = True
                break
            inj.complete(lo)
        assert crashed
        assert {e.kind for e in inj.fired} == set(FAULT_KINDS)

    def test_lane_restore_returns_original_capacity(self):
        svc = _adaptive_service(cap=8 * GIB, n_shards=4)
        orig = np.asarray(svc.lane_capacities).copy()
        plan = FaultPlan((
            FaultEvent(at=2, kind="lane_loss", lane=1),
            FaultEvent(at=4, kind="lane_shrink", lane=1, scale=0.25),
            FaultEvent(at=6, kind="lane_restore", lane=1),
        ))
        inj = FaultInjector(svc, plan)
        for i in range(10):
            inj.submit_jobs([make_job(i, arrival=float(i))])
        # lane_shrink after lane_loss keeps the ORIGINAL capacity
        # remembered (setdefault), so restore is exact.
        np.testing.assert_array_equal(np.asarray(svc.lane_capacities), orig)
        assert svc.stats.n_shocks == 3

    def test_crash_hook_called_before_raise(self):
        svc = _adaptive_service()
        called = []
        inj = FaultInjector(
            svc, FaultPlan((FaultEvent(at=0, kind="crash"),)),
            crash=lambda: called.append(True),
        )
        with pytest.raises(InjectedCrash):
            inj.submit_jobs([make_job(0)])
        assert called == [True]

    def test_proxy_delegates_everything_else(self):
        svc = _adaptive_service()
        inj = FaultInjector(svc, FaultPlan())
        inj.submit_jobs([make_job(0)])
        assert inj.stats is svc.stats
        assert inj.pending == svc.pending
        assert inj.result().n_jobs == 1


class TestCategorizerOutage:
    def test_degrades_and_recovers_without_raising(self):
        svc = _adaptive_service()
        plan = FaultPlan((
            FaultEvent(at=20, kind="cat_fail"),
            FaultEvent(at=60, kind="cat_recover"),
        ))
        inj = FaultInjector(svc, plan)
        jobs = [make_job(i, arrival=float(i), pipeline=f"p{i % 5}")
                for i in range(100)]
        for lo in range(0, 100, 10):
            inj.submit_jobs(jobs[lo:lo + 10])
        inj.drain()
        st = svc.stats
        assert st.degraded_jobs == 40  # submissions 20..59 inclusive
        assert st.categorizer_failures == 4  # one per degraded batch
        # The outage closed: exactly one recorded interval, spanning the
        # degraded arrivals, and no outage is still open.
        assert len(st.degraded_intervals) == 1
        t0, t1 = st.degraded_intervals[0]
        assert (t0, t1) == (20.0, 60.0)
        assert svc.degraded_since is None
        assert svc.result().n_jobs == 100

    def test_unrecovered_outage_stays_open(self):
        svc = _adaptive_service()
        inj = FaultInjector(
            svc, FaultPlan((FaultEvent(at=5, kind="cat_fail"),))
        )
        for i in range(10):
            inj.submit_jobs([make_job(i, arrival=float(i))])
        assert svc.stats.degraded_intervals == []
        assert svc.degraded_since == 5.0
        assert svc.stats.degraded_jobs == 5

    def test_cat_fail_without_categorizer_is_noop(self):
        svc = PlacementService(FirstFitPolicy(), 10 * GIB, 2, mode="batch")
        trace = Trace([make_job(i, arrival=float(i)) for i in range(10)],
                      name="nocat")
        svc.open(trace)
        inj = FaultInjector(
            svc, FaultPlan((FaultEvent(at=2, kind="cat_fail"),))
        )
        inj.submit_jobs(list(trace.jobs))
        inj.drain()
        assert svc.stats.degraded_jobs == 0
        assert svc.result().n_jobs == 10


class TestCompleteChaos:
    def _decided_service(self):
        svc = _adaptive_service()
        inj_jobs = [make_job(i, arrival=float(i), size=0.5 * GIB,
                             duration=10_000.0) for i in range(20)]
        svc.submit_jobs(inj_jobs)
        svc.drain()
        return svc

    def test_dropped_complete_never_reaches_service(self):
        svc = self._decided_service()
        inj = FaultInjector(
            svc, FaultPlan((FaultEvent(at=0, kind="drop_complete", count=2),))
        )
        inj.submit_jobs([make_job(100, arrival=30.0)])  # fires the event
        before = svc.stats.n_completions
        assert inj.complete(0) is False
        assert inj.complete(1) is False
        assert inj.complete(2) is True  # budget spent: back to normal
        assert inj.n_dropped_completes == 2
        assert svc.stats.n_completions == before + 1

    def test_duplicated_complete_is_idempotent(self):
        svc = self._decided_service()
        inj = FaultInjector(
            svc, FaultPlan((FaultEvent(at=0, kind="dup_complete", count=1),))
        )
        inj.submit_jobs([make_job(100, arrival=30.0)])
        free_before = float(np.asarray(svc.kernel.free).sum())
        assert inj.complete(3) is True
        assert inj.n_duplicated_completes == 1
        # The double-send is a counted no-op on the service: space freed
        # exactly once, never twice.
        assert svc.stats.duplicate_completes >= 1
        freed = float(np.asarray(svc.kernel.free).sum()) - free_before
        assert freed <= 0.5 * GIB + 1e-6


class TestSubmitErrorRetry:
    def _gen(self, trace, **kw):
        naps = []
        gen = LoadGenerator(
            trace, batch_jobs=10, clock=lambda: 0.0,
            sleep=naps.append, **kw,
        )
        return gen, naps

    def test_loadgen_retries_transient_errors(self):
        trace = random_trace(21, n=60)
        svc = _adaptive_service(cap=20 * GIB)
        inj = FaultInjector(
            svc, FaultPlan((FaultEvent(at=20, kind="submit_error", count=2),))
        )
        gen, naps = self._gen(trace)
        report = gen.run(inj)
        assert report.n_retries == 2
        assert report.n_jobs == 60  # nothing lost
        # Exponential backoff: first retry 0.05s, second 0.05s again
        # (each submission's attempt counter starts fresh).
        assert naps.count(0.05) >= 1
        assert svc.result().n_jobs == 60

    def test_loadgen_exhausts_retries_and_raises(self):
        trace = random_trace(22, n=30)
        svc = _adaptive_service(cap=20 * GIB)
        inj = FaultInjector(
            svc, FaultPlan((FaultEvent(at=0, kind="submit_error", count=9),))
        )
        gen, _ = self._gen(trace, max_retries=1)
        with pytest.raises(TransientSubmitError):
            gen.run(inj)

    def test_zero_retries_raises_immediately(self):
        trace = random_trace(23, n=20)
        svc = _adaptive_service(cap=20 * GIB)
        inj = FaultInjector(
            svc, FaultPlan((FaultEvent(at=0, kind="submit_error", count=1),))
        )
        gen, naps = self._gen(trace, max_retries=0)
        with pytest.raises(TransientSubmitError):
            gen.run(inj)
        assert naps == []  # no backoff naps on an immediate give-up


class TestRandomPlansProperty:
    """Seeded random fault plans: nothing escapes, accounting stays exact."""

    KINDS = tuple(k for k in FAULT_KINDS if k != "crash")

    def _random_plan(self, rng, n_events, n_jobs, n_shards):
        events = []
        for _ in range(n_events):
            kind = self.KINDS[rng.integers(0, len(self.KINDS))]
            kw = {"at": int(rng.integers(0, n_jobs)), "kind": kind}
            if kind in ("lane_loss", "lane_shrink", "lane_restore"):
                kw["lane"] = int(rng.integers(0, n_shards))
                if kind == "lane_shrink":
                    kw["scale"] = float(rng.uniform(0.1, 0.9))
            elif kind == "quota":
                kw["scale"] = float(2.0 ** rng.integers(-2, 2))
            elif kind in ("drop_complete", "dup_complete", "submit_error"):
                kw["count"] = int(rng.integers(1, 4))
            events.append(FaultEvent(**kw))
        return FaultPlan(tuple(events))

    @pytest.mark.parametrize("seed", range(6))
    def test_no_fault_escapes(self, seed):
        rng = np.random.default_rng(seed)
        n_shards = int(rng.integers(1, 5))
        trace = random_trace(seed + 40, n=150)
        plan = self._random_plan(rng, n_events=12, n_jobs=150,
                                 n_shards=n_shards)
        svc = PlacementService(
            OnlineAdaptivePolicy(8, per_shard_act=n_shards > 1),
            4 * GIB, n_shards, mode="batch", categorizer=_categorizer(),
        )
        inj = FaultInjector(svc, plan)
        jobs = list(trace.jobs)
        done = 0
        while done < len(jobs):
            hi = min(done + 10, len(jobs))
            try:
                decisions = inj.submit_jobs(jobs[done:hi])
            except TransientSubmitError:
                continue  # retry the same batch — the only allowed escape
            done = hi
            for d in decisions:
                if done % 3 == 0:
                    inj.complete(d.job_id)
            assert (np.asarray(svc.kernel.free) >= 0.0).all(), seed
            assert np.isclose(
                float(np.asarray(svc.lane_capacities).sum()), svc.capacity
            ), seed
        inj.drain()
        res = svc.result()
        assert res.n_jobs == 150
        assert len(inj.fired) == 12
        assert res.n_spilled >= svc.stats.n_evicted
