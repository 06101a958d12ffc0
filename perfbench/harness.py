"""Measurement plumbing shared by the benchmark's workloads.

- :class:`SpanRecorder` wraps public functions of the program's layers
  from outside the program, keeps one span per call in memory
  (name, start, end, parent span, request id) and restores the
  originals afterwards.
- :data:`LAYERS` names the layer boundaries the traced run wraps.
- :func:`layer_metrics` turns recorded spans into per-layer calls,
  busy time and self time over a timed wall.
- :class:`HostSpeed` samples a fixed reference next to timed work, so
  the timings can be reported in nominal-host seconds.
- :func:`host_fingerprint` and :func:`reference_loop_s` describe the
  host, so host noise can be told apart from a program change.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import platform
import resource
import statistics
import types
from pathlib import Path
from time import perf_counter

import numpy as np

# Layer name -> [(module, owner attribute or None for a module function,
# function names)].  Module functions are patched in the module that calls
# them (``repro.core.pipeline`` imports ``simulate`` by name).
LAYERS: dict[str, list[tuple[str, str | None, tuple[str, ...]]]] = {
    "service": [
        ("repro.serve.service", "PlacementService",
         ("submit", "submit_jobs", "complete", "drain", "recover")),
    ],
    "alerts": [("repro.serve.service", "PlacementService", ("evaluate_alerts",))],
    "log": [("repro.serve.log", "JobLog", ("append_job", "append_block"))],
    "features": [("repro.workloads.features", "OnlineFeatureExtractor", ("push",))],
    "binning": [("repro.ml.encoding", "QuantileBinner", ("transform", "transform_one"))],
    "forest": [
        ("repro.ml.packed", "PackedForest",
         ("decision_scores", "decision_scores_one", "predict")),
    ],
    "policy": [
        ("repro.core.adaptive", "AdaptiveCategoryPolicy",
         ("decide_one", "observe_one", "decide_batch", "observe_batch")),
        ("repro.serve.policy", "OnlineAdaptivePolicy", ("extend_categories",)),
    ],
    "kernel": [
        ("repro.storage.engine", "ScalarKernel", ("admit", "release_until")),
        ("repro.storage.engine", "ChunkKernel", ("open_chunk", "run_chunk")),
    ],
    "engine": [("repro.core.pipeline", None, ("simulate", "simulate_sharded"))],
    "train": [("repro.core.category_model", "CategoryModel", ("fit",))],
    "tree": [("repro.ml.tree", "HistogramTree", ("fit",))],
    "wal": [("repro.serve.wal", "WriteAheadLog", ("append", "records"))],
    "tracing": [
        ("repro.serve.tracing", "Tracer",
         ("sampled", "begin", "add", "event", "spans", "export_jsonl")),
    ],
}

#: The benchmark's own reference-loop samples of the host's speed.
IDLE = "idle"

#: Per-layer counts recorded at the wrapped boundary: (layer, function)
#: -> counter name and how to read the count from the call's arguments.
COUNTS = {
    ("kernel", "run_chunk"): ("chunk.jobs", lambda a, k: a[3] - a[2]),
}


def layer_names() -> list[str]:
    return list(LAYERS) + [IDLE]


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it.

    ``request_id`` is set by the workload's driving loop before each
    request; every span opened while it is set carries it.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list = []
        self.counts: dict[str, list[int]] = {}
        self.request_id = None
        #: Wrappers record only while this is set (the timed regions).
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(perf_counter())
        self.ends.append(np.nan)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request_id)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, count=None):
        """``fn`` wrapped so each call (and each step of a returned
        generator) records one span named ``name``."""
        rec = self

        def timed_steps(gen):
            while True:
                idx = rec.open(name) if rec.active else None
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if idx is not None:
                        rec.close(idx)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            if count is not None:
                key, read = count
                rec.counts.setdefault(key, []).append(int(read(args, kwargs)))
            idx = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if isinstance(out, types.GeneratorType):
                return timed_steps(out)
            return out

        return wrapper

    # -- installing wrappers ---------------------------------------------

    def install(self) -> None:
        """Wrap every boundary in :data:`LAYERS`."""
        if self._saved:
            raise RuntimeError("wrappers already installed")
        for layer, targets in LAYERS.items():
            for module_name, owner_name, funcs in targets:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                for fname in funcs:
                    self._patch(owner, fname, layer, COUNTS.get((layer, fname)))

    def _patch(self, owner, fname: str, layer: str, count) -> None:
        raw = vars(owner)[fname] if fname in vars(owner) else None
        if raw is None:
            raise AttributeError(f"{owner!r} defines no {fname!r} to trace")
        if isinstance(raw, classmethod):
            new = classmethod(self.span(layer, raw.__func__, count))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.span(layer, raw.__func__, count))
        else:
            new = self.span(layer, raw, count)
        self._saved.append((owner, fname, raw))
        setattr(owner, fname, new)

    def restore(self) -> None:
        """Put every original function back, in reverse patch order."""
        while self._saved:
            owner, fname, raw = self._saved.pop()
            setattr(owner, fname, raw)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- output ----------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        """Write every span, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "request": self.requests[i],
                }, default=int) + "\n")


def layer_metrics(rec: SpanRecorder, wall: float) -> dict[str, float]:
    """``<layer>.calls``, ``<layer>.busy_s`` and ``<layer>.self_share`` for
    every layer, plus ``unattributed_share``.

    Busy time sums a layer's outermost spans (a layer re-entering itself
    is not counted twice); self time subtracts the child spans a span
    covers.  All self times plus the unattributed time equal ``wall``.
    """
    starts = np.asarray(rec.starts, dtype=float)
    ends = np.asarray(rec.ends, dtype=float)
    parents = np.asarray(rec.parents, dtype=np.int64)
    if np.isnan(ends).any():
        raise RuntimeError("a span was left open")
    dur = ends - starts
    child = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_t = dur - child
    names = np.asarray(rec.names, dtype=object)
    parent_names = np.where(has_parent, names[np.maximum(parents, 0)], None)
    out: dict[str, float] = {}
    total_self = 0.0
    for layer in layer_names():
        mine = names == layer
        outer = mine & (parent_names != layer)
        s = float(self_t[mine].sum())
        total_self += s
        out[f"{layer}.calls"] = int(mine.sum())
        out[f"{layer}.busy_s"] = float(dur[outer].sum())
        out[f"{layer}.self_share"] = s / wall
    # Nested spans: the self times add up to the outermost spans, which
    # must fit inside the timed wall.
    outermost = float(dur[~has_parent].sum())
    if abs(total_self - outermost) > 1e-9 * wall or outermost > wall * (1 + 1e-9):
        raise RuntimeError("spans do not nest inside the timed wall")
    out["unattributed_share"] = (wall - total_self) / wall
    return out


# -- small statistics ----------------------------------------------------


def percentile(values, q: float) -> float:
    v = np.asarray(values, dtype=float)
    return float(np.percentile(v, q)) if v.size else 0.0


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mib() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- host speed ------------------------------------------------------------
#
# On a shared host (measured: a 2-CPU VM) the CPU's speed swings by up to
# 2x within seconds, with the load the neighbours put on it.  The timed metrics therefore scale every timed
# interval by the speed of a fixed reference run next to it:
# ``reported = measured * (reference speed then) / (nominal speed)``, the
# time the interval would have taken on the nominal host.  A faster
# program lowers the measured time and leaves the reference alone, so the
# reported value moves with the program and not with the neighbours.
#
# The reference has two parts, because the neighbours slow pure-Python
# code more than numpy code: a pure-Python loop (which tracks the
# request-at-a-time path) and a few small numpy calls (which, with the
# loop, track the offline engine).  The scale is the geometric mean of
# the two parts' speeds over their nominal speeds.

#: Nominal speeds: Python-loop iterations and numpy steps per second.
REFERENCE_RATE = 20e6
REFERENCE_NUMPY_RATE = 40e3
REFERENCE_CHUNK = 500  # loop iterations per timed chunk, about 25 us
_REF_VALUES = np.random.default_rng(0).random(4096)
_REF_KEYS = np.sort(_REF_VALUES)


def reference_chunk() -> float:
    """Seconds for :data:`REFERENCE_CHUNK` iterations of the reference loop."""
    t0 = perf_counter()
    acc = 0
    for i in range(REFERENCE_CHUNK):
        acc += i & 7
    return perf_counter() - t0


def reference_numpy_step() -> float:
    """Seconds for one numpy step: a cumulative sum and a sorted search."""
    t0 = perf_counter()
    np.cumsum(_REF_VALUES).argmax()
    np.searchsorted(_REF_KEYS, _REF_VALUES[:256])
    return perf_counter() - t0


class HostSpeed:
    """Reference work done, and the seconds it took, next to some work."""

    __slots__ = ("iterations", "seconds", "steps", "step_seconds")

    def __init__(self, iterations=0, seconds=0.0, steps=0, step_seconds=0.0):
        self.iterations = iterations
        self.seconds = seconds
        self.steps = steps
        self.step_seconds = step_seconds

    def chunk(self) -> None:
        self.seconds += reference_chunk()
        self.iterations += REFERENCE_CHUNK
        self.step_seconds += reference_numpy_step()
        self.steps += 1

    def sample(self, budget_s: float) -> "HostSpeed":
        """Run whole chunks for about ``budget_s`` seconds."""
        end = perf_counter() + budget_s
        while perf_counter() < end:
            self.chunk()
        return self

    def __add__(self, other: "HostSpeed") -> "HostSpeed":
        return HostSpeed(
            self.iterations + other.iterations, self.seconds + other.seconds,
            self.steps + other.steps, self.step_seconds + other.step_seconds,
        )

    def scale(self) -> float:
        """Factor taking a time measured now to nominal-host seconds."""
        loop = self.iterations / self.seconds / REFERENCE_RATE
        numpy_ = self.steps / self.step_seconds / REFERENCE_NUMPY_RATE
        return float(np.sqrt(loop * numpy_))


# -- host fingerprint ------------------------------------------------------

REFERENCE_LOOP_ITERATIONS = 2_000_000


def reference_loop_s() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic."""
    return sum(reference_chunk() for _ in range(REFERENCE_LOOP_ITERATIONS // REFERENCE_CHUNK))


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint(root: Path, seed: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "seed": seed,
    }
