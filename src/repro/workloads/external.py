"""External trace ingestion: replay any workload from CSV.

The BYOM design is not tied to our synthetic generator — any system that
can log per-job ``(arrival, duration, size, read/write volumes)`` plus
optional identity/metadata columns can be replayed through the
simulator and, with features, through the full pipeline.  This loader
accepts a documented CSV schema so public traces (or a user's own
production logs) can stand in for the generator.

CSV schema (header required; ``*`` columns mandatory)::

    job_id*, arrival*, duration*, size*, read_bytes*, write_bytes*,
    read_ops*, pipeline, user, cluster, archetype,
    meta.<field>...,   resource.<name>...

``meta.`` columns feed the execution-metadata features (group B);
``resource.`` columns feed the allocated-resource features (group C).
Missing optional columns fall back to sensible defaults.

Two consumption modes share one line-buffered reader
(:class:`CsvTraceSource`):

- :func:`stream_csv_trace` / :class:`CsvTraceSource` — the streaming
  path: rows are parsed directly into
  :class:`~repro.workloads.streaming.TraceBlock` columns, block by
  block, and can feed ``simulate``/``simulate_sharded`` without ever
  materializing per-job objects (see
  :mod:`repro.workloads.streaming`).  Requires the CSV to be
  arrival-ordered (an out-of-core reader cannot re-sort).
- :func:`load_csv_trace` — the materializing path: builds a full
  :class:`~repro.workloads.job.Trace` of :class:`ShuffleJob` objects
  (with metadata/resources, so features can be extracted), consuming
  the same reader row by row instead of buffering the file.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterator

import numpy as np

from .features import finite_resources
from .job import ShuffleJob, Trace
from .streaming import DEFAULT_BLOCK_SIZE, TraceBlock, TraceSource

__all__ = [
    "REQUIRED_COLUMNS",
    "CsvTraceSource",
    "stream_csv_trace",
    "load_csv_trace",
    "save_csv_trace",
]

REQUIRED_COLUMNS = (
    "job_id",
    "arrival",
    "duration",
    "size",
    "read_bytes",
    "write_bytes",
    "read_ops",
)

_NUMERIC_COLUMNS = tuple(c for c in REQUIRED_COLUMNS if c != "job_id")

_OPTIONAL_DEFAULTS = {
    "pipeline": "pipeline0",
    "user": "user0",
    "cluster": "external",
    "archetype": "external",
}


class CsvTraceSource(TraceSource):
    """Line-buffered block reader over the documented CSV schema.

    Each :meth:`blocks` iteration re-opens the file and yields
    arrival-ordered :class:`TraceBlock`s of at most ``block_size``
    rows; only one block of parsed columns (plus the ``csv`` module's
    single-row buffer) is resident at a time.  Malformed numeric
    fields, missing required columns, and out-of-order arrivals raise
    ``ValueError`` naming the offending row.

    :meth:`rows` is the underlying row iterator; with
    ``want_payload=True`` rows additionally carry ``meta.``/
    ``resource.`` dictionaries — the path :func:`load_csv_trace` uses
    to build full :class:`ShuffleJob` objects from the same reader,
    and which :meth:`blocks` skips (blocks never read the payload).
    """

    def __init__(
        self,
        path: str | Path,
        block_size: int = DEFAULT_BLOCK_SIZE,
        name: str | None = None,
    ):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.path = Path(path)
        self.block_size = block_size
        self.name = name or self.path.stem

    def rows(self, want_payload: bool = True) -> Iterator[dict]:
        """Yield one parsed row dict at a time (line-buffered).

        Each row carries the required numeric fields (parsed) and the
        identity defaults; with ``want_payload=True`` it additionally
        carries the ``metadata``/``resources`` dicts (skipped by the
        streaming block path, which never reads them).  Identity
        strings are deduplicated through a per-iteration pool —
        pipelines and users repeat heavily across a trace, so each
        unique value is kept once instead of one fresh ``str`` per
        row.  This is the single CSV parser in the codebase;
        :meth:`blocks` and :func:`load_csv_trace` both consume it.
        """
        path = self.path
        pool: dict[str, str] = {}
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ValueError(f"{path}: empty file")
            missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
            if missing:
                raise ValueError(f"{path}: missing required columns {missing}")
            meta_cols = [c for c in reader.fieldnames if c.startswith("meta.")]
            resource_cols = [c for c in reader.fieldnames if c.startswith("resource.")]
            for row_idx, row in enumerate(reader):
                try:
                    numeric = {c: float(row[c]) for c in _NUMERIC_COLUMNS}
                    job_id = int(float(row["job_id"]))
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"{path}: bad numeric value in row {row_idx}: {exc}"
                    ) from exc
                parsed = {}
                for key, default in _OPTIONAL_DEFAULTS.items():
                    value = row.get(key) or default
                    parsed[key] = pool.setdefault(value, value)
                parsed.update(numeric)
                parsed["job_id"] = job_id
                if want_payload:
                    parsed["metadata"] = {
                        c[len("meta."):]: row[c] for c in meta_cols if row.get(c)
                    }
                    resources = {}
                    for c in resource_cols:
                        if row.get(c):
                            try:
                                resources[c[len("resource."):]] = float(row[c])
                            except ValueError as exc:
                                raise ValueError(
                                    f"{path}: bad resource value in row {row_idx}: "
                                    f"{exc}"
                                ) from exc
                    if not finite_resources(resources):
                        raise ValueError(
                            f"{path}: row {row_idx}: job {job_id} has "
                            "non-finite resources values"
                        )
                    parsed["resources"] = resources
                yield parsed

    def blocks(self) -> Iterator[TraceBlock]:
        buf: list[dict] = []
        last_arrival = -np.inf
        row_base = 0
        for row in self.rows(want_payload=False):
            if row["arrival"] < last_arrival:
                raise ValueError(
                    f"{self.path}: row {row_base + len(buf)} arrives at "
                    f"t={row['arrival']:g}, before its predecessor "
                    f"(t={last_arrival:g}); streaming requires an "
                    "arrival-ordered CSV — sort it, or use load_csv_trace"
                )
            last_arrival = row["arrival"]
            buf.append(row)
            if len(buf) >= self.block_size:
                yield self._flush(buf)
                row_base += len(buf)
                buf = []
        if buf:
            yield self._flush(buf)

    @staticmethod
    def _flush(buf: list[dict]) -> TraceBlock:
        return TraceBlock(
            arrivals=np.array([r["arrival"] for r in buf], dtype=float),
            durations=np.array([r["duration"] for r in buf], dtype=float),
            sizes=np.array([r["size"] for r in buf], dtype=float),
            read_bytes=np.array([r["read_bytes"] for r in buf], dtype=float),
            write_bytes=np.array([r["write_bytes"] for r in buf], dtype=float),
            read_ops=np.array([r["read_ops"] for r in buf], dtype=float),
            pipelines=tuple(r["pipeline"] for r in buf),
            users=tuple(r["user"] for r in buf),
            job_ids=np.array([r["job_id"] for r in buf], dtype=np.int64),
        )


def stream_csv_trace(
    path: str | Path,
    block_size: int = DEFAULT_BLOCK_SIZE,
    name: str | None = None,
) -> CsvTraceSource:
    """Open a CSV trace as a streaming block source.

    The returned source plugs directly into
    :func:`repro.storage.simulate` /
    :func:`repro.storage.simulate_sharded` (and
    :func:`~repro.storage.engine.run_placement`), which drain it
    without building per-job objects::

        res = simulate(stream_csv_trace("trace.csv"), policy, capacity)

    Requires the CSV to be arrival-ordered; see :class:`CsvTraceSource`
    for the full contract.
    """
    return CsvTraceSource(path, block_size=block_size, name=name)


def load_csv_trace(path: str | Path, name: str | None = None) -> Trace:
    """Load a trace from the documented CSV schema.

    Streams the file row by row through the shared line-buffered reader
    (:meth:`CsvTraceSource.rows`) — jobs are built as rows arrive, the
    raw text is never buffered.  Raises ``ValueError`` with the
    offending row index on malformed numeric fields, non-finite group-C
    resource values or missing required columns.  Unlike the streaming path this materializes full
    :class:`ShuffleJob` objects (metadata and resources included) and
    re-sorts on construction, so unordered CSVs are accepted.
    """
    path = Path(path)
    source = CsvTraceSource(path, name=name)
    jobs = [
        ShuffleJob(
            job_id=row["job_id"],
            cluster=row["cluster"],
            user=row["user"],
            pipeline=row["pipeline"],
            archetype=row["archetype"],
            arrival=row["arrival"],
            duration=row["duration"],
            size=row["size"],
            read_bytes=row["read_bytes"],
            write_bytes=row["write_bytes"],
            read_ops=row["read_ops"],
            metadata=row["metadata"],
            resources=row["resources"],
        )
        for row in source.rows()
    ]
    return Trace(jobs, name=name or path.stem)


def save_csv_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace in the same CSV schema ``load_csv_trace`` reads."""
    path = Path(path)
    meta_fields = sorted({k for j in trace for k in j.metadata})
    resource_fields = sorted({k for j in trace for k in j.resources})
    header = (
        list(REQUIRED_COLUMNS)
        + ["pipeline", "user", "cluster", "archetype"]
        + [f"meta.{k}" for k in meta_fields]
        + [f"resource.{k}" for k in resource_fields]
    )
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for j in trace:
            writer.writerow(
                [
                    j.job_id,
                    j.arrival,
                    j.duration,
                    j.size,
                    j.read_bytes,
                    j.write_bytes,
                    j.read_ops,
                    j.pipeline,
                    j.user,
                    j.cluster,
                    j.archetype,
                ]
                + [j.metadata.get(k, "") for k in meta_fields]
                + [j.resources.get(k, "") for k in resource_fields]
            )
