"""Smoke-size checks of the benchmark itself.

Run:  python -m pytest perfbench/tests -q
"""

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import run
import workloads
from repro.config import ModelParams
from repro.core.adaptive import AdaptiveCategoryPolicy
from repro.storage import simulate
from repro.units import WEEK
from repro.workloads import ClusterSpec, generate_cluster_trace

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_MODEL = ModelParams(n_rounds=2)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def smoke_run(request, tmp_path_factory):
    """One traced smoke-size run per workload (its gates run inside)."""
    workload = workloads.WORKLOADS[request.param]
    return workload(3, 1, True, tmp_path_factory.mktemp("out"), model_params=SMOKE_MODEL)


def test_workload_reports_every_benchmark_metric(smoke_run):
    e2e = {name: unit for name, (_value, unit) in smoke_run.end_to_end.items()}
    e2e["peak_rss_mib"] = "MiB"
    assert e2e == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {name: run.layer_unit(name) for name in smoke_run.layers}
    assert layers == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert smoke_run.attempted >= 1 and smoke_run.failed == 0
    for value, _unit in smoke_run.end_to_end.values():
        assert value > 0


def test_layer_self_times_add_up_to_the_wall(smoke_run):
    layers = smoke_run.layers
    shares = sum(layers[f"{name}.self_share"] for name in harness.layer_names())
    assert shares + layers["unattributed_share"] == pytest.approx(1.0, abs=1e-9)
    assert layers["service.calls"] + layers["engine.calls"] > 0
    assert smoke_run.recorder is not None and smoke_run.recorder.names


def test_span_records_carry_request_ids(smoke_run):
    rec = smoke_run.recorder
    outer = [r for r, p in zip(rec.requests, rec.parents) if p < 0]
    assert outer and all(r is not None for r in outer)


def test_layer_metrics_subtract_child_spans():
    rec = harness.SpanRecorder()
    rec.active = True
    rec.starts, rec.ends = [0.0, 1.0, 2.0, 5.0], [4.0, 3.0, 2.5, 6.0]
    rec.names = ["service", "features", "features", "forest"]
    rec.parents = [-1, 0, 1, -1]
    rec.requests = [7, 7, 7, 8]
    out = harness.layer_metrics(rec, wall=10.0)
    assert out["service.self_share"] == pytest.approx(0.2)
    assert out["features.self_share"] == pytest.approx(0.2)  # 1.5 + 0.5
    assert out["features.busy_s"] == pytest.approx(2.0)  # re-entry counted once
    assert out["features.calls"] == 2
    assert out["forest.self_share"] == pytest.approx(0.1)
    assert out["unattributed_share"] == pytest.approx(0.5)


def test_host_speed_scales_to_the_nominal_host():
    half = harness.HostSpeed(int(harness.REFERENCE_RATE), 2.0,
                             int(harness.REFERENCE_NUMPY_RATE), 2.0)
    assert half.scale() == pytest.approx(0.5)
    both = half + harness.HostSpeed(int(harness.REFERENCE_RATE), 0.5,
                                    int(harness.REFERENCE_NUMPY_RATE), 0.5)
    assert both.scale() == pytest.approx(0.8)


def test_tree_samples_restore_the_fit():
    from repro.ml.tree import HistogramTree

    raw = vars(HistogramTree)["fit"]
    with workloads.tree_samples(None):
        assert vars(HistogramTree)["fit"] is not raw
    assert vars(HistogramTree)["fit"] is raw


def _originals():
    out = {}
    for targets in harness.LAYERS.values():
        for module_name, owner_name, funcs in targets:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            for fname in funcs:
                out[(module_name, owner_name, fname)] = vars(owner)[fname]
    return out


@pytest.fixture(scope="module")
def small_case():
    spec = ClusterSpec("T", {"dbquery": 1, "logproc": 1}, n_pipelines=3, n_users=2, seed=5)
    trace = generate_cluster_trace(spec, duration=WEEK / 7)
    cats = np.random.default_rng(0).integers(0, 8, len(trace))
    capacity = 0.05 * trace.peak_ssd_usage()

    def replay():
        return simulate(trace, AdaptiveCategoryPolicy(cats, 8), capacity, engine="chunked")

    return replay, capacity


def test_wrappers_keep_decisions_and_restore_originals(small_case):
    replay, _ = small_case
    before = _originals()
    plain = replay()
    rec = harness.SpanRecorder()
    with rec:
        assert _originals() != before
        rec.active = True
        traced = replay()
        rec.active = False
    assert _originals() == before
    assert "kernel" in rec.names and "policy" in rec.names
    workloads.gate_bit_identical(traced, plain, "traced")


def test_perturbed_outputs_fail_their_gates(small_case):
    replay, capacity = small_case
    res = replay()
    shifted = dataclasses.replace(res, ssd_fraction=np.roll(res.ssd_fraction, 1))
    assert not np.array_equal(shifted.ssd_fraction, res.ssd_fraction)
    with pytest.raises(workloads.GateFailure):
        workloads.gate_bit_identical(shifted, res, "shifted")
    with pytest.raises(workloads.GateFailure):
        workloads.gate_roundoff(shifted, res, "shifted")
    with pytest.raises(workloads.GateFailure):
        workloads.gate_engines(shifted, res, capacity, "shifted")
    cats = np.arange(20) % 7
    workloads.gate_categories(cats, cats.copy())
    with pytest.raises(workloads.GateFailure):
        workloads.gate_categories(np.roll(cats, 1), cats)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "serve-request",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
