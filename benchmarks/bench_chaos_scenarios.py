"""Chaos scenario suite: adaptive vs baseline under injected faults.

Runs every named scenario in :data:`repro.serve.scenarios.SCENARIOS` —
clean reference, lane loss + restore, lane shrink, fleet quota cut,
categorizer outage, completion chaos — against both contenders
(serve-native adaptive with an online categorizer, and first-fit) over
one generated cluster trace with fixed seeds.  Every contender sees the
identical stream: same micro-batch slicing, same fault plan, same
deterministic completion lottery.

The assertions pin the robustness contract rather than a performance
number: every scenario finishes (no injected fault escapes as an
unhandled exception), shocks fire and evictions are accounted, the
categorizer outage degrades exactly the scripted span of the stream,
completion chaos is absorbed, and kernel capacity accounting stays
exact (no negative free space) at the end of every run.  Every run
also carries the standard alert rules (``alerts=True``): each row must
fire exactly the scripted alert set for its scenario and the clean
rows must emit zero alert transition events — the no-false-positives
bar, visible in the committed table's ``alerts`` column.

``BENCH_CHAOS_JOBS`` overrides the trace size, as in CI.  The committed
baseline table lives in ``benchmarks/results/chaos_scenarios.txt``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.serve.scenarios import (
    SCENARIOS,
    expected_alerts,
    format_rows,
    run_scenario,
)
from repro.workloads import Trace, default_cluster_specs, generate_cluster_trace
from repro.units import WEEK

from bench_utils import emit

N_JOBS = int(os.environ.get("BENCH_CHAOS_JOBS", "3000"))
N_SHARDS = 4
BATCH_JOBS = 64
QUOTA = 0.05
SEED = 0


def _trace() -> Trace:
    spec = default_cluster_specs(10)[0]
    full = generate_cluster_trace(spec, duration=WEEK, seed=SEED)
    return Trace(full.jobs[:N_JOBS], name=f"{full.name}[:{N_JOBS}]")


@pytest.mark.benchmark(group="chaos")
def test_chaos_scenarios(benchmark):
    trace = _trace()
    capacity = QUOTA * trace.peak_ssd_usage()

    def run():
        rows = []
        for sc in SCENARIOS:
            rows.extend(run_scenario(
                sc, trace, capacity=capacity, n_shards=N_SHARDS,
                batch_jobs=BATCH_JOBS, seed=SEED, alerts=True,
            ))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "chaos_scenarios",
        f"Chaos suite: {len(trace)} jobs, quota {QUOTA:.0%}, "
        f"{N_SHARDS} caching servers, batches of {BATCH_JOBS}\n"
        + format_rows(rows),
    )

    by = {(r.scenario, r.policy): r for r in rows}
    policies = ("adaptive", "baseline")
    # Every (scenario, policy) pair completed and produced finite numbers.
    assert len(rows) == len(SCENARIOS) * len(policies)
    assert all(np.isfinite(r.tco_savings_pct) for r in rows)
    for p in policies:
        # Topology scenarios: the scripted shocks all fired.
        assert by[("nofault", p)].n_shocks == 0
        assert by[("lane_loss", p)].n_shocks == 2
        assert by[("lane_shrink", p)].n_shocks == 4
        assert by[("quota_cut", p)].n_shocks == 2
        # Evictions are nonnegative; whether a lane loss actually evicts
        # depends on what is resident at the shock (the completion
        # lottery can empty the lane first at small sizes) — the
        # deterministic eviction claim lives in
        # ``test_chaos_accounting_exact``.
        assert by[("lane_loss", p)].n_evicted >= 0
        # Completion chaos: drops recorded, transient errors retried.
        assert by[("complete_chaos", p)].dropped_completes > 0
        assert by[("complete_chaos", p)].n_retries == 2
    # The categorizer outage degrades the adaptive contender only (the
    # baseline has no categorizer to lose) and covers the scripted 40%
    # of the stream.
    assert by[("cat_outage", "baseline")].degraded_jobs == 0
    degraded = by[("cat_outage", "adaptive")].degraded_jobs
    assert abs(degraded - 0.4 * len(trace)) <= 2 * BATCH_JOBS
    # degraded_intervals is read from the metrics surface
    # (serve_degraded_intervals_total), so this pins scrape == roll-up:
    # exactly one closed outage interval where jobs degraded, zero
    # everywhere else.
    for r in rows:
        assert (r.degraded_intervals > 0) == (r.degraded_jobs > 0), r
    assert by[("cat_outage", "adaptive")].degraded_intervals == 1
    assert by[("cat_outage", "baseline")].degraded_intervals == 0
    # Alerting rides the same determinism contract as the roll-ups:
    # every row fires exactly the scripted alert set (the baseline has
    # no categorizer, so cat_outage expects nothing from it), and the
    # clean rows emit zero transition events — no false positives.
    for r in rows:
        assert set(r.alerts_fired) == expected_alerts(
            r.scenario, categorizer=(r.policy == "adaptive")
        ), (r.scenario, r.policy, r.alerts_fired)
    for p in policies:
        assert by[("nofault", p)].alert_events == 0
        assert by[("complete_chaos", p)].alert_events == 0


@pytest.mark.benchmark(group="chaos")
def test_chaos_accounting_exact(benchmark):
    """Shock-heavy run keeps kernel accounting exact, both modes."""
    from repro.core import AdaptiveCategoryPolicy, hash_categories
    from repro.serve import FaultEvent, FaultInjector, FaultPlan, PlacementService

    trace = _trace()
    capacity = QUOTA * trace.peak_ssd_usage()
    n = len(trace)
    plan = FaultPlan(tuple(
        FaultEvent(at=int(f * n), kind=k, lane=L, scale=s)
        for f, k, L, s in (
            (0.1, "lane_loss", 1, None),
            (0.2, "lane_shrink", 0, 0.25),
            (0.3, "quota", None, 0.5),
            (0.4, "lane_restore", 1, None),
            (0.5, "lane_restore", 0, None),
            (0.6, "quota", None, 2.0),
            (0.7, "lane_loss", 2, None),
            (0.8, "lane_restore", 2, None),
        )
    ))

    def run():
        out = {}
        for mode in ("batch", "scalar"):
            policy = AdaptiveCategoryPolicy(
                hash_categories(trace, 15), 15, per_shard_act=True
            )
            svc = PlacementService(policy, capacity, N_SHARDS, mode=mode)
            svc.open(trace)
            inj = FaultInjector(svc, plan)
            step = BATCH_JOBS if mode == "batch" else 1
            for lo in range(0, n, step):
                hi = min(lo + step, n)
                inj.submit_batch(
                    trace.arrivals[lo:hi], trace.durations[lo:hi],
                    trace.sizes[lo:hi], trace.read_bytes[lo:hi],
                    trace.write_bytes[lo:hi], trace.read_ops[lo:hi],
                    pipelines=trace.pipelines[lo:hi],
                )
                assert (svc.kernel.free >= 0.0).all()
                assert np.isclose(
                    float(np.asarray(svc.lane_capacities).sum()), svc.capacity
                )
            inj.drain()
            out[mode] = (svc.result(), svc.stats)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    for mode, (res, stats) in out.items():
        assert stats.n_shocks == 8, mode
        assert stats.n_evicted > 0, mode
        # Every eviction was also counted as a spill.
        assert res.n_spilled >= stats.n_evicted, mode
