"""Feature extraction: Table 2 of the paper.

Turns a :class:`~repro.workloads.job.Trace` into a numeric feature
matrix for the gradient-boosted-trees models.  Features span four
groups, mirroring Figure 9c's analysis:

- **A — historical system metrics** (4 columns): per-pipeline running
  averages of TCIO / size / lifetime / I/O density over previously
  completed executions.
- **B — execution metadata** (hashed token indicators): the five string
  fields are tokenized on non-alphanumeric separators and feature-hashed
  into a fixed number of binary columns per field.
- **C — allocated resources** (8 columns): bucket/shard/worker counts
  and records written, known before execution.
- **T — job timestamp** (3 columns): hour-of-day, second-of-day,
  weekday of the job's start time.

Hashing keeps the encoder stateless: a model trained on one cluster can
score jobs of another cluster (Figure 8) and unseen users/pipelines
(Figure 10) without vocabulary alignment.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from ..cost import CostRates, DEFAULT_RATES, tcio_rate, tcio_rate_scalar
from ..units import DAY, GIB, HOUR
from .history import HISTORY_FEATURES, compute_history
from .job import Trace
from .metadata import METADATA_FIELDS, stable_hash, tokenize

__all__ = [
    "FEATURE_GROUPS",
    "RESOURCE_FEATURES",
    "TIME_FEATURES",
    "FeatureMatrix",
    "extract_features",
    "finite_resources",
    "MetadataHasher",
    "OnlineFeatureExtractor",
]

#: Allocated-resource columns (group C), Table 2 order.
RESOURCE_FEATURES = (
    "bucket_sizing_initial_num_stripes",
    "bucket_sizing_num_shards",
    "bucket_sizing_num_worker_threads",
    "bucket_sizing_num_workers",
    "initial_num_buckets",
    "num_buckets",
    "records_written",
    "requested_num_shards",
)

#: Timestamp columns (group T).
TIME_FEATURES = ("open_time_day_hour", "open_time_seconds", "open_time_weekday")

#: Feature-group codes as used in Figure 9c.
FEATURE_GROUPS = ("A", "B", "C", "T")

#: Hash buckets per metadata field (group B width = 5 * this).
DEFAULT_HASH_BUCKETS = 16


@dataclass(frozen=True)
class FeatureMatrix:
    """A dense feature matrix with column names and group labels.

    Attributes
    ----------
    X:
        (n_jobs, n_features) float64 matrix.
    names:
        Column names, length n_features.
    groups:
        Group code per column ("A", "B", "C" or "T").
    """

    X: np.ndarray
    names: tuple[str, ...]
    groups: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.X.ndim != 2:
            raise ValueError("X must be 2-D")
        if self.X.shape[1] != len(self.names) or len(self.names) != len(self.groups):
            raise ValueError("names/groups must match X's column count")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def take(self, idx: np.ndarray) -> "FeatureMatrix":
        """Row subset (e.g. train/test split aligned with a trace split)."""
        return FeatureMatrix(X=self.X[idx], names=self.names, groups=self.groups)

    def group_columns(self, group: str) -> np.ndarray:
        """Column indices belonging to a feature group."""
        return np.array([i for i, g in enumerate(self.groups) if g == group], dtype=int)

    def drop_columns(self, cols: np.ndarray) -> "FeatureMatrix":
        """Return a copy with the given columns removed (for importance)."""
        keep = np.setdiff1d(np.arange(self.n_features), cols)
        return FeatureMatrix(
            X=self.X[:, keep],
            names=tuple(self.names[i] for i in keep),
            groups=tuple(self.groups[i] for i in keep),
        )


#: Distinct metadata 5-tuples a :class:`MetadataHasher` keeps before it
#: is cleared, so adversarially distinct strings cannot grow a
#: long-running service's memory (the table holds at most this many
#: group-B rows).
METADATA_MEMO_SIZE = 4096

#: Memo key of a job without metadata (every field empty).
_BLANK_METADATA = ("",) * len(METADATA_FIELDS)
#: Group-C values of a job without resources.
_NO_RESOURCES = (0.0,) * len(RESOURCE_FEATURES)
_METADATA_GETTER = itemgetter(*METADATA_FIELDS)
_RESOURCE_GETTER = itemgetter(*RESOURCE_FEATURES)
#: Group-A row of a job whose pipeline has no completed execution yet.
_NO_HISTORY = (0.0,) * len(HISTORY_FEATURES)


def _field_values(maps, getter, keys, blank) -> list[tuple]:
    """Per mapping, its values at ``keys`` (``blank``'s where missing)."""
    out = []
    for m in maps:
        if not m:
            out.append(blank)
            continue
        try:
            out.append(getter(m))
        except KeyError:
            out.append(tuple(map(m.get, keys, blank)))
    return out


class MetadataHasher:
    """The group-B encoder: each distinct metadata value hashed once.

    A job's group-B row depends only on its five metadata strings, and
    a cluster repeats a handful of them (pipelines, users and steps
    recur), so rows are memoized per 5-tuple of field values.  A miss
    tokenizes and feature-hashes the tuple into a new row of a table; a
    block's rows are then one gather from that table.  Rows are the
    same whether they come from the memo or not, so the memo is a pure
    cache: copies and snapshots start empty, and it is cleared before a
    block whose tuples could take it past :data:`METADATA_MEMO_SIZE`.
    """

    def __init__(self, n_buckets: int = DEFAULT_HASH_BUCKETS):
        self.n_buckets = n_buckets
        self._codes: dict[tuple, int] = {}
        # Grown on demand: a full-size table per extractor would cost
        # every service and snapshot copy megabytes it rarely uses.
        self._table = np.zeros((16, len(METADATA_FIELDS) * n_buckets))

    def __len__(self) -> int:
        return len(self._codes)

    def __getstate__(self) -> dict:
        return {"n_buckets": self.n_buckets}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["n_buckets"])

    @property
    def width(self) -> int:
        return self._table.shape[1]

    def _add(self, key: tuple) -> int:
        """Tokenize and hash one metadata 5-tuple into a new table row
        (rows past the memo's are all zero)."""
        code = len(self._codes)
        if code == len(self._table):
            self._table = np.vstack([self._table, np.zeros_like(self._table)])
        row = self._table[code]
        n_b = self.n_buckets
        for f_idx, value in enumerate(key):
            for token in tokenize(value):
                row[f_idx * n_b + stable_hash(token, seed=f_idx) % n_b] = 1.0
        self._codes[key] = code
        return code

    def encode(self, metadata, out: np.ndarray) -> np.ndarray:
        """Write the group-B rows of ``metadata`` into ``out``.

        ``metadata`` is a sequence of per-job field mappings (a missing
        field, an empty mapping or ``None`` hashes no token); ``out`` is
        ``(len(metadata), width)``.
        """
        keys = _field_values(
            metadata, _METADATA_GETTER, METADATA_FIELDS, _BLANK_METADATA
        )
        codes = self._codes
        for lo in range(0, len(keys), METADATA_MEMO_SIZE):
            part = keys[lo : lo + METADATA_MEMO_SIZE]
            if len(codes) + len(part) > METADATA_MEMO_SIZE:
                # Start afresh, so the part's new tuples all fit.
                self._table[: len(codes)] = 0.0
                codes.clear()
            found = list(map(codes.get, part))
            if None in found:
                found = [codes[key] if key in codes else self._add(key) for key in part]
            out[lo : lo + len(part)] = self._table.take(found, axis=0)
        return out


def finite_resources(resources) -> bool:
    """Whether a job's group-C resource values are all finite.

    Only the :data:`RESOURCE_FEATURES` keys are checked: other keys
    never reach the model.  Ingest and serving reject a job that fails
    this, since the scalar and batch binning paths would place a NaN in
    different bins.
    """
    if not resources:
        return True
    return all(map(math.isfinite, map(resources.get, RESOURCE_FEATURES, _NO_RESOURCES)))


def _resource_rows(resources) -> list[tuple]:
    """Group-C values of per-job resource mappings, Table-2 order."""
    return _field_values(resources, _RESOURCE_GETTER, RESOURCE_FEATURES, _NO_RESOURCES)


def _hash_metadata(trace: Trace, n_buckets: int) -> tuple[np.ndarray, list[str]]:
    """Feature-hash the five metadata string fields into binary columns."""
    hasher = MetadataHasher(n_buckets)
    X = np.empty((len(trace), hasher.width))
    hasher.encode([job.metadata for job in trace], X)
    names = [f"{field}_h{b}" for field in METADATA_FIELDS for b in range(n_buckets)]
    return X, names


def _block_metrics(
    durations: np.ndarray,
    sizes: np.ndarray,
    write_bytes: np.ndarray,
    read_ops: np.ndarray,
    rates: CostRates,
) -> list[list[float]]:
    """The group-A metrics completed jobs contribute, one list per job.

    ``[tcio, size, lifetime, io_density]`` with the elementwise
    arithmetic of :func:`~repro.workloads.history.compute_history`, so
    incremental sums stay bit-identical to the offline scan.
    """
    tcio = tcio_rate(read_ops, write_bytes, durations, rates)
    total_ops = tcio * np.maximum(durations, 1.0) * rates.hdd_ops_per_second
    metrics = np.empty((len(durations), 4))
    metrics[:, 0] = tcio
    metrics[:, 1] = sizes
    metrics[:, 2] = durations
    metrics[:, 3] = total_ops / np.maximum(sizes / GIB, 1e-9)
    return metrics.tolist()


class OnlineFeatureExtractor:
    """Incremental Table-2 feature extraction for arriving jobs.

    The offline :func:`extract_features` needs the whole trace up front
    (group A is a causal scan over completed same-pipeline jobs); a
    live placement service sees one arrival at a time.  This extractor
    carries the causal state — per-pipeline pending completions and
    running metric sums — across calls, and :meth:`push_block` produces,
    for each newly arrived job, exactly the feature row the offline
    extractor would have produced at the same position: fold
    same-pipeline completions with ``end <= arrival``, emit the running
    averages, then schedule the job's own completion.  Rows are
    bit-identical to the offline matrix
    (``tests/test_serve_online.py``).

    :meth:`push_block` is the one featurization path: group A is a
    per-job causal fold over block-vectorized metrics, group B a gather
    from the :class:`MetadataHasher` memo, group C one ``(k, 8)``
    array and group T vectorized.  :meth:`push` only turns job objects
    into its columns.

    :meth:`warm_start` seeds the state from an already-observed trace
    (e.g. the training week) without emitting rows, so a deployment
    week served online sees the same history a combined-trace offline
    extraction would give it.
    """

    def __init__(
        self,
        rates: CostRates = DEFAULT_RATES,
        n_hash_buckets: int = DEFAULT_HASH_BUCKETS,
    ):
        self.rates = rates
        self.n_hash_buckets = n_hash_buckets
        #: per-pipeline min-heap of (end, global_index, metrics[4])
        self._pending: dict[str, list[tuple[float, int, list[float]]]] = {}
        # Per-pipeline running metric sums and completion counts, in
        # python floats (IEEE doubles: the offline scan's additions).
        self._sums: dict[str, list[float]] = {}
        self._counts: dict[str, int] = {}
        self._index = 0
        self._hasher = MetadataHasher(n_hash_buckets)
        # Row scratch reused across push_block calls (grown on demand).
        self._rows: np.ndarray | None = None

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if "_hasher" not in state:  # pickled before the memo existed
            self._hasher = MetadataHasher(self.n_hash_buckets)

    @property
    def n_features(self) -> int:
        return (
            len(HISTORY_FEATURES)
            + len(METADATA_FIELDS) * self.n_hash_buckets
            + len(RESOURCE_FEATURES)
            + len(TIME_FEATURES)
        )

    def _history(self, pipeline: str, t: float):
        """Group-A row of a ``pipeline`` job arriving at ``t``.

        Folds the pipeline's completions with ``end <= t`` into its
        running sums first, then returns their averages.
        """
        heap = self._pending.get(pipeline)
        if heap and heap[0][0] <= t:
            sums = self._sums.get(pipeline)
            if sums is None:
                sums = self._sums[pipeline] = [0.0, 0.0, 0.0, 0.0]
                self._counts[pipeline] = 0
            count = self._counts[pipeline]
            while heap and heap[0][0] <= t:
                m = heapq.heappop(heap)[2]
                sums[0] += m[0]
                sums[1] += m[1]
                sums[2] += m[2]
                sums[3] += m[3]
                count += 1
            self._counts[pipeline] = count
        else:
            count = self._counts.get(pipeline, 0)
            if count == 0:
                return _NO_HISTORY
            sums = self._sums[pipeline]
        return [s / count for s in sums]

    def warm_start(self, trace: Trace) -> "OnlineFeatureExtractor":
        """Seed the causal state from already-observed jobs (no rows)."""
        metrics = _block_metrics(
            trace.durations, trace.sizes, trace.write_bytes, trace.read_ops,
            self.rates,
        )
        ends = trace.ends.tolist()
        pending = self._pending
        index = self._index
        for r, pipeline in enumerate(trace.pipelines):
            heapq.heappush(
                pending.setdefault(pipeline, []), (ends[r], index + r, metrics[r])
            )
        self._index = index + len(metrics)
        return self

    def push(self, jobs) -> np.ndarray:
        """Feature rows for newly arrived jobs, shape ``(len(jobs), p)``.

        Jobs must arrive in non-decreasing arrival order across all
        calls (the service's submission order).  Accepts any sequence
        of :class:`~repro.workloads.job.ShuffleJob`-shaped objects and
        hands their columns, metadata and resources to
        :meth:`push_block`; jobs synthesized from streamed columns
        (empty metadata/resources) produce zero group-B/C columns,
        exactly as the offline extractor would for the same
        materialized trace.  Returns a fresh array, not the scratch.
        """
        return self.push_block(
            [j.arrival for j in jobs],
            [j.duration for j in jobs],
            [j.size for j in jobs],
            [j.read_bytes for j in jobs],
            [j.write_bytes for j in jobs],
            [j.read_ops for j in jobs],
            [j.pipeline for j in jobs],
            metadata=[j.metadata for j in jobs],
            resources=[j.resources for j in jobs],
        ).copy()

    def push_block(
        self,
        arrivals,
        durations,
        sizes,
        read_bytes,
        write_bytes,
        read_ops,
        pipelines,
        metadata=None,
        resources=None,
    ) -> np.ndarray:
        """Feature rows for a micro-batch of arriving jobs, as columns.

        The numeric columns are arrays (or sequences) of length ``k``;
        ``metadata`` and ``resources`` are optional per-job mappings
        (groups B and C).  Without them — column submissions carry
        neither — groups B and C are zero, the rows :meth:`push` gives
        jobs with empty maps.  The rows land in one scratch matrix
        reused across calls: the returned view is overwritten by the
        next ``push_block``.
        """
        k = len(arrivals)
        n_feat = self.n_features
        rows = self._rows
        if rows is None or rows.shape[0] < k or rows.shape[1] != n_feat:
            rows = self._rows = np.zeros((max(k, 256), n_feat))
        rows = rows[:k]
        if k == 0:
            return rows
        meta_base = len(HISTORY_FEATURES)
        res_base = meta_base + self._hasher.width
        time_base = n_feat - len(TIME_FEATURES)
        # Groups B and C: written on every block, zeros when absent, so
        # no row of the previous block survives in the scratch.
        if metadata is None:
            rows[:, meta_base:res_base] = 0.0
        else:
            self._hasher.encode(metadata, rows[:, meta_base:res_base])
        if resources is None:
            rows[:, res_base:time_base] = 0.0
        else:
            rows[:, res_base:time_base] = _resource_rows(resources)
        if k == 1:
            # Request-at-a-time: all arithmetic in python floats (IEEE
            # doubles, identical to the elementwise block path below).
            arrival = float(arrivals[0])
            duration = float(durations[0])
            size = float(sizes[0])
            tcio = tcio_rate_scalar(
                float(read_ops[0]), float(write_bytes[0]), duration, self.rates
            )
            total_ops = (
                tcio
                * (duration if duration > 1.0 else 1.0)
                * self.rates.hdd_ops_per_second
            )
            size_gib = size / GIB
            density = total_ops / (size_gib if size_gib > 1e-9 else 1e-9)
            pipeline = pipelines[0]
            rows[0, :meta_base] = self._history(pipeline, arrival)
            heapq.heappush(
                self._pending.setdefault(pipeline, []),
                (arrival + duration, self._index, [tcio, size, duration, density]),
            )
            self._index += 1
            sod = arrival % DAY
            rows[0, time_base] = math.floor(sod / HOUR)
            rows[0, time_base + 1] = sod
            rows[0, time_base + 2] = math.floor(arrival / DAY) % 7
            return rows
        # Group A: each job folds its pipeline's completions up to its
        # arrival, then queues its own (metrics computed over the block).
        arrivals = np.asarray(arrivals, dtype=float)
        durations = np.asarray(durations, dtype=float)
        metrics = _block_metrics(
            durations,
            np.asarray(sizes, dtype=float),
            np.asarray(write_bytes, dtype=float),
            np.asarray(read_ops, dtype=float),
            self.rates,
        )
        times = arrivals.tolist()
        ends = (arrivals + durations).tolist()
        pending = self._pending
        index = self._index
        history = []
        for r, pipeline in enumerate(pipelines):
            history.append(self._history(pipeline, times[r]))
            heapq.heappush(
                pending.setdefault(pipeline, []), (ends[r], index + r, metrics[r])
            )
        self._index = index + k
        rows[:, :meta_base] = history
        # Group T, vectorized in place (elementwise-identical to the
        # scalar arithmetic of the k == 1 branch).
        sod = rows[:, time_base + 1]
        np.mod(arrivals, DAY, out=sod)
        hour = rows[:, time_base]
        np.divide(sod, HOUR, out=hour)
        np.floor(hour, out=hour)
        wday = rows[:, time_base + 2]
        np.divide(arrivals, DAY, out=wday)
        np.floor(wday, out=wday)
        np.mod(wday, 7, out=wday)
        return rows


def extract_features(
    trace: Trace,
    rates: CostRates = DEFAULT_RATES,
    n_hash_buckets: int = DEFAULT_HASH_BUCKETS,
) -> FeatureMatrix:
    """Build the Table-2 feature matrix for a trace.

    History (group A) is computed causally within ``trace``; to let test
    jobs see training-week history, extract features on the combined
    trace and :meth:`FeatureMatrix.take` the split indices.
    """
    n = len(trace)
    history = compute_history(trace, rates).as_matrix()  # group A

    resources = np.array(  # group C
        _resource_rows([job.resources for job in trace]), dtype=float
    ).reshape(n, len(RESOURCE_FEATURES))

    arrivals = trace.arrivals  # group T
    seconds_of_day = arrivals % DAY
    times = np.column_stack(
        [
            np.floor(seconds_of_day / HOUR),
            seconds_of_day,
            np.floor(arrivals / DAY) % 7,
        ]
    )

    meta_X, meta_names = _hash_metadata(trace, n_hash_buckets)  # group B

    X = np.hstack([history, meta_X, resources, times])
    names = (
        list(HISTORY_FEATURES)
        + meta_names
        + list(RESOURCE_FEATURES)
        + list(TIME_FEATURES)
    )
    groups = (
        ["A"] * len(HISTORY_FEATURES)
        + ["B"] * len(meta_names)
        + ["C"] * len(RESOURCE_FEATURES)
        + ["T"] * len(TIME_FEATURES)
    )
    return FeatureMatrix(X=X, names=tuple(names), groups=tuple(groups))
