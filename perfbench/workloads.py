"""The benchmark's three workloads, each with its own correctness gates.

Every workload serves the cluster of ``examples/online_service.py``,
starting at a point in its trace that the seed picks.  It drives the
program through its public API from one single-threaded process, checks
its outputs, and returns a :class:`RunResult`.  The program sees only the
generated jobs.

- ``serve-request``: the durable request-at-a-time controller
  (``PlacementService(mode="scalar")``, model-driven categorizer, a
  ``WriteAheadLog`` at its default ``fsync=False``) driven by one
  closed-loop caller, one job per ``submit``, then
  ``PlacementService.recover``.
- ``serve-batch``: ``PlacementService(mode="batch")`` with alerts and a
  1/256 ``Tracer``, one closed-loop client submitting 64-job
  micro-batches through ``submit_jobs``.
- ``byom-offline``: the weekly BYOM cycle, ``ByomPipeline.train`` on one
  week, then a ``deploy`` quota sweep over the next.

Timings are taken on the host's noisy clock and reported in nominal-host
seconds (see the host-speed notes in ``harness``); the raw figures are
printed beside them.
"""

from __future__ import annotations

import functools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.config import ModelParams
from repro.core import ByomPipeline
from repro.serve import (
    AlertManager,
    OnlineAdaptivePolicy,
    OnlineCategorizer,
    PlacementService,
    Tracer,
    WriteAheadLog,
    default_alert_rules,
)
from repro.units import HOUR, WEEK
from repro.workloads import ClusterSpec, extract_features, generate_cluster_trace
from repro.workloads.job import Trace

from harness import IDLE, HostSpeed, SpanRecorder, layer_metrics, median, percentile

ARCHETYPES = {"dbquery": 2, "logproc": 2, "streaming": 1, "mltrain": 1}
N_PIPELINES = 12
N_USERS = 8
CLUSTER_SEED = 11  # examples/online_service.py's cluster
START_HOURS = 10 * 24
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5
SERVE_QUOTA = 0.05

#: The serve workloads cut their measured seconds into this many passes
#: over the same jobs, each on a fresh service, and time every request or
#: batch by its fastest pass: a host stall that covers some passes of a
#: run does not reach the reported value.  Every pass must decide exactly
#: as the first.
PASSES = 5

REQUEST_JOBS_PER_SECOND = 1000  # served jobs per pass: this x --seconds / PASSES
REQUEST_SLO_S = 1e-3  # request_slo_share: raw submit() time within this
COMPLETE_MODULUS = 97  # admitted jobs with job_id % 97 == 0 complete at once
#: Requests per host-speed block on serve-request (about 15 ms of work).
REQUEST_BLOCK = 50
#: Reference-loop sample taken before and after each block, batch or
#: deploy call (see the host-speed notes in ``harness``).
REF_SAMPLE_S = 1e-3

BATCH_JOBS = 64
BATCHES_PER_SECOND = 200  # 400 batches a pass at --seconds 10
TRACER_SAMPLE = 1 / 256

SWEEP_QUOTAS = (0.01, 0.05, 0.20)
SWEEP_LANES = (1, 8)
#: The sweep runs this many times; each point's time is the median, not
#: the fastest: a deploy is long enough that the host-speed scaling's own
#: noise, not stalls, dominates, and the fastest of several noisy scaled
#: times is biased by that noise.
SWEEP_REPEATS = 8
SECONDS_PER_WEEK_CYCLE = 10  # one train/replay cycle per 10 s of --seconds


class GateFailure(AssertionError):
    """A workload's outputs disagree with their reference."""


@dataclass
class RunResult:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    #: Gated end-to-end metrics, name -> (value, unit).
    end_to_end: dict = field(default_factory=dict)
    #: The workload's own named metrics (printed, not gated).
    detail: dict = field(default_factory=dict)
    #: Per-layer metrics from the traced pass.
    layers: dict = field(default_factory=dict)
    #: The traced pass's spans (``None`` untraced).
    recorder: SpanRecorder | None = None


#: One cluster for every seed; the seed picks where in its trace a run
#: starts.  Different cluster seeds differ in archetype mix and churn so
#: much that seed-to-seed spread in throughput reached 0.34 of the median.
CLUSTER = ClusterSpec(
    name="C0", archetype_weights=ARCHETYPES,
    n_pipelines=N_PIPELINES, n_users=N_USERS, seed=CLUSTER_SEED,
)


def window_start(seed: int) -> float:
    """The seed's start: an hour within the trace's first ten days."""
    return float((seed * 7919) % START_HOURS) * HOUR


def cluster_trace(seed: int, weeks: int) -> tuple[Trace, float]:
    """The cluster's trace through ``weeks`` weeks past the seed's start,
    from the start on, and the start."""
    start = window_start(seed)
    trace = generate_cluster_trace(CLUSTER, duration=start + weeks * WEEK)
    first = int(np.searchsorted(trace.arrivals, start))
    return Trace(trace.jobs[first:], name=CLUSTER.name), start


@dataclass
class ServeInput:
    """The training week and the jobs a serve workload submits after it."""

    train: Trace
    served: Trace

    @property
    def full(self) -> Trace:
        return Trace(self.train.jobs + self.served.jobs, name="full")


def serve_input(seed: int, n_jobs: int) -> ServeInput:
    """The seed's training week plus the ``n_jobs`` jobs that follow it."""
    weeks = 2
    while True:
        trace, start = cluster_trace(seed, weeks)
        n_train = int(np.searchsorted(trace.arrivals, start + WEEK))
        have = len(trace) - n_train
        if have >= n_jobs:
            return ServeInput(
                train=Trace(trace.jobs[:n_train], name="train"),
                served=Trace(trace.jobs[n_train:n_train + n_jobs], name="served"),
            )
        per_week = max(have / (weeks - 1), 1.0)
        weeks = max(weeks + 1, 1 + math.ceil(1.1 * n_jobs / per_week))


def offline_features(inp: ServeInput, features_train):
    """The served jobs' rows of one offline ``extract_features`` pass over
    the training week and the served jobs (untimed, for the gates), after
    checking the set-up trained on the rows that pass gives."""
    features = extract_features(inp.full)
    n_train = len(inp.train)
    check(np.array_equal(features.X[:n_train], features_train.X),
          "training-week features differ from the offline extraction's")
    return features.take(np.arange(n_train, len(features)))


def check(cond: bool, what: str) -> None:
    if not cond:
        raise GateFailure(what)


# -- correctness gates -------------------------------------------------------


def gate_categories(online: np.ndarray, offline: np.ndarray) -> None:
    """Online categories equal the offline model's, exactly."""
    online = np.asarray(online)
    check(online.shape == offline.shape, f"{online.shape} online categories "
          f"for {offline.shape} offline")
    bad = np.flatnonzero(online != offline)
    check(bad.size == 0, f"{bad.size} online categories differ from "
          f"model.predict (first at job {bad[:1].tolist()})")


def gate_bit_identical(a, b, what: str) -> None:
    """Two results agree bit for bit in the fields recovery must keep."""
    check(np.array_equal(a.ssd_fraction, b.ssd_fraction),
          f"{what}: ssd_fraction differs")
    check(a.realized_tco == b.realized_tco, f"{what}: realized_tco differs")
    check(a.n_spilled == b.n_spilled, f"{what}: n_spilled differs")


def gate_roundoff(online, offline, what: str) -> None:
    """The micro-batch invariants of ``tests/test_serve_online.py``
    (``test_micro_batch_matches_chunked_to_roundoff``)."""
    check(np.allclose(online.ssd_fraction, offline.ssd_fraction,
                      atol=1e-9, rtol=1e-9), f"{what}: ssd_fraction differs")
    check(online.n_ssd_requested == offline.n_ssd_requested,
          f"{what}: n_ssd_requested differs")
    check(online.n_spilled == offline.n_spilled, f"{what}: n_spilled differs")
    check(math.isclose(online.realized_tco, offline.realized_tco, rel_tol=1e-12),
          f"{what}: realized_tco differs")


def gate_engines(fast, legacy, capacity: float, what: str) -> None:
    """The engine invariants of ``tests/test_chunked_simulator.py``
    (``assert_equivalent``)."""
    check(np.allclose(fast.ssd_fraction, legacy.ssd_fraction,
                      atol=1e-9, rtol=1e-9), f"{what}: ssd_fraction differs")
    check(fast.n_ssd_requested == legacy.n_ssd_requested,
          f"{what}: n_ssd_requested differs")
    check(fast.n_spilled == legacy.n_spilled, f"{what}: n_spilled differs")
    check(math.isclose(fast.realized_tco, legacy.realized_tco, rel_tol=1e-9),
          f"{what}: realized_tco differs")
    check(math.isclose(fast.realized_hdd_tcio, legacy.realized_hdd_tcio,
                       rel_tol=1e-9), f"{what}: realized_hdd_tcio differs")
    check(abs(fast.peak_ssd_used - legacy.peak_ssd_used)
          <= max(1e-6, 1e-9 * max(capacity, 1.0)), f"{what}: peak_ssd_used differs")


# -- shared steps --------------------------------------------------------------


def host_sample(rec: SpanRecorder | None = None) -> HostSpeed:
    """A reference sample next to the work it scales, recorded as idle
    time when traced."""
    span = rec.open(IDLE) if rec is not None and rec.active else None
    speed = HostSpeed().sample(REF_SAMPLE_S)
    if span is not None:
        rec.close(span)
    return speed


def timed(fn):
    """``fn()`` and its time in nominal-host seconds, scaled by reference
    samples just before and after it."""
    before = host_sample()
    t0 = perf_counter()
    out = fn()
    took = perf_counter() - t0
    return out, took * (before + host_sample()).scale()


def timed_setups(build):
    """Run ``build()`` :data:`SETUP_REPEATS` times; keep the last result."""
    times, out = [], None
    for _ in range(SETUP_REPEATS):
        out = None  # let the previous build go before timing the next
        out, took = timed(build)
        times.append(took)
    return out, times


@contextmanager
def tree_samples(rec: SpanRecorder | None):
    """While open, a reference sample runs before every
    ``HistogramTree.fit``, so a fit of hundreds of trees is scaled
    stretch by stretch.  Yields the ``(start, end, speed)`` samples."""
    from repro.ml.tree import HistogramTree

    raw = vars(HistogramTree)["fit"]  # a classmethod
    samples = []

    @functools.wraps(raw.__func__)
    def fit(*args, **kwargs):
        t0 = perf_counter()
        speed = host_sample(rec)
        samples.append((t0, perf_counter(), speed))
        return raw.__func__(*args, **kwargs)

    HistogramTree.fit = classmethod(fit)
    try:
        yield samples
    finally:
        HistogramTree.fit = raw


def timed_fit(fit, rec: SpanRecorder | None = None):
    """``fit()`` with a reference sample before it, before each tree and
    after it.  Returns its result, its time outside the samples in
    nominal-host seconds, and that time raw."""
    first = host_sample(rec)
    with tree_samples(rec) as samples:
        t0 = perf_counter()
        out = fit()
        t1 = perf_counter()
    speeds = [first] + [speed for _, _, speed in samples] + [host_sample(rec)]
    starts = [t0] + [end for _, end, _ in samples]
    stops = [start for start, _, _ in samples] + [t1]
    raw = scaled = 0.0
    for k, (begin, stop) in enumerate(zip(starts, stops)):
        raw += stop - begin
        scaled += (stop - begin) * (speeds[k] + speeds[k + 1]).scale()
    return out, scaled, raw


def timed_train(model_params, train, features):
    return timed_fit(lambda: ByomPipeline(model_params).train(train, features))


def traced_passes(run_pass, rec: SpanRecorder | None, passes: int = 1):
    """``passes`` untraced passes, then (with ``rec``) one pass traced.

    ``run_pass(rec)`` returns ``(decisions, work_wall, pass_info)``; every
    pass must decide exactly as the first.  Returns the untraced passes'
    infos, plus layer metrics when traced.
    """
    runs = [run_pass(None) for _ in range(passes)]
    first = runs[0][0]
    for decisions, _, _ in runs[1:]:
        for a, b in zip(first, decisions, strict=True):
            gate_bit_identical(b, a, "repeated pass")
    infos = [info for _, _, info in runs]
    if rec is None:
        return infos, {}
    with rec:
        traced, work1, traced_info = run_pass(rec)
    for a, b in zip(first, traced, strict=True):
        gate_bit_identical(b, a, "traced run")
    layers = layer_metrics(rec, traced_info["traced_wall"])
    work0 = median([work for _, work, _ in runs])
    layers["trace.overhead_share"] = (work1 - work0) / work0
    return infos, layers


def fastest(infos, key: str) -> np.ndarray:
    """Each element's fastest time over the passes' ``info[key]`` arrays."""
    return np.min([info[key] for info in infos], axis=0)


def kernel_ratios(results) -> dict:
    requested = sum(r.n_ssd_requested for r in results)
    spilled = sum(r.n_spilled for r in results)
    jobs = sum(r.n_jobs for r in results)
    fallback = sum(r.scalar_fallback_jobs for r in results)
    return {
        "kernel.spill_ratio": spilled / requested if requested else 0.0,
        "kernel.vector_share": 1.0 - fallback / jobs if jobs else 0.0,
    }


def finish_layers(layers: dict, **ratios) -> dict:
    """Per-layer output: every layer metric plus the workload's ratios,
    with zeros for ratios this workload has no layer for."""
    out = dict(layers)
    for name in RATIO_METRICS:
        out[name] = float(ratios.get(name, 0.0))
    return out


RATIO_METRICS = (
    "wal.bytes_per_job",
    "wal.recover_jobs_per_s",
    "kernel.spill_ratio",
    "kernel.vector_share",
    "queue.pending_p99_jobs",
    "chunk.jobs_p50",
    "categorize.degraded_share",
)


def chunk_p50(rec: SpanRecorder | None) -> float:
    sizes = [] if rec is None else rec.counts.get("chunk.jobs", [])
    return median(sizes) if sizes else 0.0


# -- serve-request ---------------------------------------------------------------


def serve_request(seed: int, seconds: int, trace: bool, out_dir: Path,
                  model_params: ModelParams | None = None) -> RunResult:
    n_jobs = max(1, REQUEST_JOBS_PER_SECOND * seconds // PASSES)
    inp = serve_input(seed, n_jobs)
    out_dir.mkdir(parents=True, exist_ok=True)
    wal_path = out_dir / f"serve-request-{seed}.wal"

    features_train, prep_times = timed_setups(lambda: extract_features(inp.train))
    pipe, train_s, raw_train_s = timed_train(model_params, inp.train, features_train)
    jobs = list(inp.served)
    capacity = SERVE_QUOTA * inp.served.peak_ssd_usage()
    expected_cats = pipe.model.predict(offline_features(inp, features_train))

    def build():
        if wal_path.exists():
            wal_path.unlink()
        wal = WriteAheadLog(wal_path)
        categorizer = OnlineCategorizer(pipe.model, pipe.rates).warm_start(inp.train)
        svc = PlacementService(
            OnlineAdaptivePolicy(pipe.model_params.n_categories, pipe.adaptive_params),
            capacity, mode="scalar", rates=pipe.rates,
            categorizer=categorizer, wal=wal,
        ).open()
        return svc, svc.snapshot()

    def run_pass(rec):
        (svc, snap), build_s = timed(build)
        lat = np.empty(n_jobs)  # time inside submit()
        service = np.empty(n_jobs)  # time inside submit() and complete()
        failed = np.zeros(n_jobs, dtype=bool)
        speeds = []  # a sample before each block and after the last
        if rec is not None:
            rec.active = True
        t_start = perf_counter()
        for i, job in enumerate(jobs):
            if rec is not None:
                rec.request_id = job.job_id
            if i % REQUEST_BLOCK == 0:
                speeds.append(host_sample(rec))
            degraded = svc.stats.degraded_jobs
            t0 = perf_counter()
            try:
                decision = svc.submit(job)[0]
                returned = perf_counter()
                if decision.requested_ssd and job.job_id % COMPLETE_MODULUS == 0:
                    svc.complete(decision.job_id, time=job.arrival + 1.0)
            except Exception:
                returned = perf_counter()
                failed[i] = True
            done = perf_counter()
            failed[i] |= svc.stats.degraded_jobs != degraded
            lat[i] = returned - t0
            service[i] = done - t0
        speeds.append(host_sample(rec))
        loop_wall = perf_counter() - t_start
        if rec is not None:
            rec.active = False
            rec.request_id = None
        scale = np.repeat(
            [(a + b).scale() for a, b in zip(speeds, speeds[1:])], REQUEST_BLOCK
        )[:n_jobs]
        live = svc.result()
        wal_bytes = os.path.getsize(wal_path)
        if rec is not None:
            rec.active = True
            rec.request_id = "recover"
        t0 = perf_counter()
        recovered = PlacementService.recover(snap, svc.wal)
        recover_s = perf_counter() - t0
        if rec is not None:
            rec.active = False
            rec.request_id = None
        gate_categories(svc.policy.categories, expected_cats)
        gate_bit_identical(recovered.result(), live, "recover()")
        svc.wal.close()
        info = {
            "build_s": build_s, "lat": lat * scale, "raw_lat": lat,
            "failed": failed, "service": service * scale, "raw_service": service,
            "live": live,
            "recover_s": recover_s, "wal_bytes": wal_bytes,
            "degraded": svc.stats.degraded_jobs, "submitted": svc.stats.n_submitted,
            "traced_wall": loop_wall + recover_s,
        }
        return [live], loop_wall + recover_s, info

    rec = SpanRecorder() if trace else None
    infos, layers = traced_passes(run_pass, rec, PASSES)
    wal_path.unlink()

    lat = fastest(infos, "lat")
    lat_us = lat * 1e6
    failed = np.any([info["failed"] for info in infos], axis=0)
    info = infos[0]
    live = info["live"]
    recover_s = min(i["recover_s"] for i in infos)
    setup_s = median(prep_times) + median([i["build_s"] for i in infos])
    raw_lat = fastest(infos, "raw_lat")
    ok = (raw_lat <= REQUEST_SLO_S) & ~failed
    p50, p90, p99 = (percentile(lat_us, q) for q in (50, 90, 99))
    capacity_per_s = n_jobs / fastest(infos, "service").sum()
    raw_capacity_per_s = n_jobs / fastest(infos, "raw_service").sum()
    n_failed = int(sum(i["failed"].sum() for i in infos))
    res = RunResult(attempted=PASSES * n_jobs, failed=n_failed, recorder=rec)
    res.end_to_end = {
        "setup_s": (setup_s, "s"),
        "train_rows_per_s": (len(inp.train) / train_s, "1/s"),
        "decisions_per_s": (capacity_per_s, "1/s"),
        "latency_p50_us": (p50, "us"),
        "tco_savings_pct": (live.tco_savings_pct, "%"),
    }
    res.detail = {
        "request_p50_us": (p50, "us"),
        "request_p90_us": (p90, "us"),
        "request_p99_us": (p99, "us"),
        "request_samples": (n_jobs, "count"),
        "request_passes": (PASSES, "count"),
        "request_slo_share": (float(ok.mean()), "fraction"),
        "request_capacity_per_s": (capacity_per_s, "1/s"),
        "raw_request_p50_us": (percentile(raw_lat * 1e6, 50), "us"),
        "raw_request_capacity_per_s": (raw_capacity_per_s, "1/s"),
        "recover_jobs_per_s": (n_jobs / recover_s, "1/s"),
        "train_rows": (len(inp.train), "count"),
        "train_s": (train_s, "s"),
        "raw_train_s": (raw_train_s, "s"),
    }
    res.layers = finish_layers(
        layers,
        **{
            "wal.bytes_per_job": info["wal_bytes"] / n_jobs,
            "wal.recover_jobs_per_s": n_jobs / recover_s,
            "categorize.degraded_share": info["degraded"] / info["submitted"],
            "kernel.spill_ratio": kernel_ratios([live])["kernel.spill_ratio"],
        },
    ) if trace else {}
    return res


# -- serve-batch -------------------------------------------------------------------


def serve_batch(seed: int, seconds: int, trace: bool, out_dir: Path,
                model_params: ModelParams | None = None) -> RunResult:
    n_batches = max(1, BATCHES_PER_SECOND * seconds // PASSES)
    n_jobs = BATCH_JOBS * n_batches
    inp = serve_input(seed, n_jobs)

    features_train, prep_times = timed_setups(lambda: extract_features(inp.train))
    pipe, train_s, raw_train_s = timed_train(model_params, inp.train, features_train)
    jobs = list(inp.served)
    peak = inp.served.peak_ssd_usage()
    capacity = SERVE_QUOTA * peak

    def build():
        categorizer = OnlineCategorizer(pipe.model, pipe.rates).warm_start(inp.train)
        return PlacementService(
            OnlineAdaptivePolicy(pipe.model_params.n_categories, pipe.adaptive_params),
            capacity, mode="batch", rates=pipe.rates, categorizer=categorizer,
            alerts=AlertManager(default_alert_rules()),
            tracer=Tracer(sample=TRACER_SAMPLE),
        ).open()

    def run_pass(rec):
        svc, build_s = timed(build)
        lat = np.empty(n_batches)
        pending = np.empty(n_batches)
        failed = np.zeros(n_batches, dtype=bool)
        speeds = []  # a sample before each batch and after the last
        if rec is not None:
            rec.active = True
        t_start = perf_counter()
        for b in range(n_batches):
            if rec is not None:
                rec.request_id = b
            speeds.append(host_sample(rec))
            degraded = svc.stats.degraded_jobs
            t0 = perf_counter()
            try:
                svc.submit_jobs(jobs[b * BATCH_JOBS:(b + 1) * BATCH_JOBS])
                svc.evaluate_alerts()
            except Exception:
                failed[b] = True
            lat[b] = perf_counter() - t0
            failed[b] |= svc.stats.degraded_jobs != degraded
            pending[b] = svc.pending
        if rec is not None:
            rec.request_id = n_batches
        speeds.append(host_sample(rec))
        t0 = perf_counter()
        svc.drain()
        drain_s = perf_counter() - t0
        wall = perf_counter() - t_start
        if rec is not None:
            rec.active = False
            rec.request_id = None
        live = svc.result()
        scale = np.array([(a + b).scale() for a, b in zip(speeds, speeds[1:])])
        info = {
            "build_s": build_s, "lat": lat * scale, "raw_lat": lat, "pending": pending,
            "failed": failed, "drain_s": drain_s * scale[-1], "live": live,
            "degraded": svc.stats.degraded_jobs, "submitted": svc.stats.n_submitted,
            "traced_wall": wall,
        }
        return [live], wall, info

    rec = SpanRecorder() if trace else None
    infos, layers = traced_passes(run_pass, rec, PASSES)
    info = infos[0]
    live = info["live"]
    offline = pipe.deploy(inp.served, offline_features(inp, features_train),
                          SERVE_QUOTA, peak, engine="chunked")
    gate_roundoff(live, offline, "serve-batch vs deploy(engine='chunked')")

    lat = fastest(infos, "lat")
    lat_us = lat * 1e6
    setup_s = median(prep_times) + median([i["build_s"] for i in infos])
    rate = n_jobs / (lat.sum() + min(i["drain_s"] for i in infos))
    raw_lat = fastest(infos, "raw_lat")
    n_failed = int(sum(i["failed"].sum() for i in infos))
    res = RunResult(attempted=PASSES * n_batches, failed=n_failed, recorder=rec)
    res.end_to_end = {
        "setup_s": (setup_s, "s"),
        "train_rows_per_s": (len(inp.train) / train_s, "1/s"),
        "decisions_per_s": (rate, "1/s"),
        "latency_p50_us": (percentile(lat_us, 50), "us"),
        "tco_savings_pct": (live.tco_savings_pct, "%"),
    }
    res.detail = {
        "batch_decisions_per_s": (rate, "1/s"),
        "batch_p50_ms": (percentile(lat_us, 50) / 1e3, "ms"),
        "batch_p90_ms": (percentile(lat_us, 90) / 1e3, "ms"),
        "batch_p99_ms": (percentile(lat_us, 99) / 1e3, "ms"),
        "raw_batch_p50_ms": (percentile(raw_lat, 50) * 1e3, "ms"),
        "raw_batch_decisions_per_s": (n_jobs / raw_lat.sum(), "1/s"),
        "batch_samples": (n_batches, "count"),
        "batch_passes": (PASSES, "count"),
        "train_rows": (len(inp.train), "count"),
        "train_s": (train_s, "s"),
        "raw_train_s": (raw_train_s, "s"),
    }
    res.layers = finish_layers(
        layers,
        **kernel_ratios([live]),
        **{
            "queue.pending_p99_jobs": percentile(info["pending"], 99),
            "chunk.jobs_p50": chunk_p50(rec),
            "categorize.degraded_share": info["degraded"] / info["submitted"],
        },
    ) if trace else {}
    return res


# -- byom-offline --------------------------------------------------------------------


def byom_offline(seed: int, seconds: int, trace: bool, out_dir: Path,
                 model_params: ModelParams | None = None) -> RunResult:
    cycles = max(1, seconds // SECONDS_PER_WEEK_CYCLE)
    jobs, start = cluster_trace(seed, cycles + 1)
    bounds = np.searchsorted(jobs.arrivals, start + WEEK * np.arange(cycles + 2))

    def build():
        features = extract_features(jobs)
        return [
            (Trace(jobs.jobs[lo:hi], name=f"week{w}"), features.take(np.arange(lo, hi)))
            for w, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
        ]

    weeks, setups = timed_setups(build)
    points = [(q, lanes) for q in SWEEP_QUOTAS for lanes in SWEEP_LANES]
    peaks = [week.peak_ssd_usage() for week, _ in weeks]

    def run_pass(rec):
        train_s = raw_train_s = deploy_s = raw_deploy_s = 0.0
        train_rows = 0
        per_job_us, results, pipes = [], [], []
        if rec is not None:
            rec.active = True
        t_start = perf_counter()
        for w in range(cycles):
            if rec is not None:
                rec.request_id = w
            (train, f_train), (test, f_test) = weeks[w], weeks[w + 1]
            pipe, scaled, raw = timed_fit(
                lambda: ByomPipeline(model_params).train(train, f_train), rec)
            train_s += scaled
            raw_train_s += raw
            train_rows += len(train)
            pipes.append(pipe)
            times = [[] for _ in points]
            raw_times = [[] for _ in points]
            before = host_sample(rec)
            for repeat in range(SWEEP_REPEATS):
                for k, (quota, lanes) in enumerate(points):
                    t0 = perf_counter()
                    r = pipe.deploy(test, f_test, quota, peaks[w + 1], engine="auto",
                                    n_shards=lanes, per_shard_act=lanes > 1)
                    took = perf_counter() - t0
                    after = host_sample(rec)
                    times[k].append(took * (before + after).scale())
                    raw_times[k].append(took)
                    before = after
                    if repeat == 0:
                        results.append(r)
                    else:
                        gate_bit_identical(r, results[k - len(points)], "repeated deploy")
            for point_times, point_raw in zip(times, raw_times):
                deploy_s += median(point_times)
                raw_deploy_s += median(point_raw)
                per_job_us.append(median(point_times) / len(test) * 1e6)
        wall = perf_counter() - t_start
        if rec is not None:
            rec.active = False
            rec.request_id = None
        info = {
            "train_s": train_s, "raw_train_s": raw_train_s,
            "deploy_s": deploy_s, "raw_deploy_s": raw_deploy_s,
            "train_rows": train_rows,
            "per_job_us": per_job_us, "results": results, "pipes": pipes,
            "traced_wall": wall,
        }
        return results, wall, info

    rec = SpanRecorder() if trace else None
    (info,), layers = traced_passes(run_pass, rec)

    results = info["results"]
    it = iter(results)
    for w, pipe in enumerate(info["pipes"]):
        test, f_test = weeks[w + 1]
        for quota, lanes in points:
            legacy = pipe.deploy(test, f_test, quota, peaks[w + 1], engine="legacy",
                                 n_shards=lanes, per_shard_act=lanes > 1)
            gate_engines(next(it), legacy, quota * peaks[w + 1],
                         f"week {w + 1} quota {quota} x{lanes} vs legacy")

    replayed = sum(r.n_jobs for r in results)
    per_job = info["per_job_us"]
    res = RunResult(attempted=len(results), failed=0, recorder=rec)
    res.end_to_end = {
        "setup_s": (median(setups), "s"),
        "train_rows_per_s": (info["train_rows"] / info["train_s"], "1/s"),
        "decisions_per_s": (replayed / info["deploy_s"], "1/s"),
        "latency_p50_us": (percentile(per_job, 50), "us"),
        "tco_savings_pct": (float(np.mean([r.tco_savings_pct for r in results])), "%"),
    }
    res.detail = {
        "train_rows_per_s": (info["train_rows"] / info["train_s"], "1/s"),
        "replay_jobs_per_s": (replayed / info["deploy_s"], "1/s"),
        "raw_replay_jobs_per_s": (replayed / info["raw_deploy_s"], "1/s"),
        "sweep_max_us_per_job": (max(per_job), "us"),
        "sweep_points": (len(results), "count"),
        "train_rows": (info["train_rows"], "count"),
        "train_s": (info["train_s"], "s"),
        "raw_train_s": (info["raw_train_s"], "s"),
    }
    res.layers = finish_layers(
        layers, **kernel_ratios(results), **{"chunk.jobs_p50": chunk_p50(rec)},
    ) if trace else {}
    return res


WORKLOADS = {
    "serve-request": serve_request,
    "serve-batch": serve_batch,
    "byom-offline": byom_offline,
}
