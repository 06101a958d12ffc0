#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-request --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload untraced and then traced, and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the
host fingerprint, is also written to ``.perfbench/`` (and, when traced,
the spans).  Exits 1 if a correctness gate fails, 2 if the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("serve-request", "serve-batch", "byom-offline")


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "fraction"
    if name.endswith("_us"):
        return "us"
    if name == "wal.bytes_per_job":
        return "B/job"
    if name.endswith("_ratio"):
        return "fraction"
    return "jobs"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC.name}/repro); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness
    import workloads

    ref_before = harness.reference_loop_s()
    try:
        res = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), OUT
        )
    except workloads.GateFailure as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    ref_after = harness.reference_loop_s()

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res.layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res.end_to_end.items()}
        metrics["peak_rss_mib"] = {"value": harness.peak_rss_mib(), "unit": "MiB"}
    host = harness.host_fingerprint(ROOT, args.seed)
    host["reference_loop_s"] = {"before": ref_before, "after": ref_after}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for name, (value, unit) in res.detail.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    print(f"  ops attempted {res.attempted}  succeeded {res.attempted - res.failed}  "
          f"failed {res.failed}")
    print(f"  host {json.dumps(host)}")

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seconds": args.seconds, "host": host,
        "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in res.detail.items()},
    }, indent=1))
    if res.recorder is not None:
        res.recorder.write_jsonl(OUT / f"{stem}.spans.jsonl")

    print(json.dumps({
        "correct": True, "attempted": res.attempted, "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
