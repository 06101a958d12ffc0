"""Scripted fault injection for the online placement service.

Chaos harness of the fault-tolerance story: a :class:`FaultPlan` is a
deterministic script of :class:`FaultEvent`\\ s keyed by submission
count, and a :class:`FaultInjector` wraps a
:class:`~repro.serve.PlacementService` (transparent proxy — everything
it does not intercept delegates to the service) and fires each event at
the submission boundary where its trigger count is reached.  The same
plan against the same trace is exactly reproducible, which is what lets
the chaos suite pin adaptive-vs-baseline numbers per scenario.

Event kinds
-----------
- ``lane_loss``     — a caching server dies: its lane drops to zero
  capacity (residents evicted through the kernel); the pre-fault
  capacity is remembered for a later ``lane_restore``.
- ``lane_shrink``   — the lane shrinks to ``capacity`` bytes or by
  ``scale`` (default 0.5); also remembered for restore.
- ``lane_restore``  — the lane returns to its pre-loss/shrink capacity
  (no-op if it was never lost or shrunk).
- ``quota``         — fleet-wide quota change: ``scale`` multiplies the
  current layout, or ``capacity`` sets the new total.
- ``cat_fail``      — the categorizer starts failing: every call
  raises, the service degrades to heuristic admission (no-op when the
  service has no categorizer).
- ``cat_recover``   — the categorizer heals.
- ``drop_complete`` — the next ``count`` ``complete()`` calls are
  swallowed before they reach the service (a lost completion event).
- ``dup_complete``  — the next ``count`` ``complete()`` calls are
  delivered twice (an at-least-once delivery duplicate).
- ``submit_error``  — the next ``count`` submissions fail with
  :class:`TransientSubmitError` *before* touching the service (the
  :class:`~repro.serve.LoadGenerator` retries these with backoff).
- ``crash``         — the process dies at this boundary: the injector
  calls its ``crash`` hook (the CLI exits hard there) or raises
  :class:`InjectedCrash`.

None of these ever surfaces from the *service* as an unhandled
exception — ``submit_error`` and ``crash`` are raised by the injector
itself, by design, before any service state mutates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "TransientSubmitError",
    "InjectedCrash",
]

FAULT_KINDS = (
    "lane_loss",
    "lane_shrink",
    "lane_restore",
    "quota",
    "cat_fail",
    "cat_recover",
    "drop_complete",
    "dup_complete",
    "submit_error",
    "crash",
)


class TransientSubmitError(RuntimeError):
    """An injected transient submission failure (retryable)."""


class InjectedCrash(RuntimeError):
    """An injected process crash (not retryable — the run is over)."""


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault, fired when ``at`` jobs have been submitted.

    ``lane``/``capacity``/``scale`` parameterize the topology kinds;
    ``count`` is how many calls ``drop_complete``/``dup_complete``/
    ``submit_error`` affect.  Events with equal ``at`` fire in plan
    order.
    """

    at: int
    kind: str
    lane: int | None = None
    capacity: float | None = None
    scale: float | None = None
    count: int = 1

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError("at must be >= 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.kind in ("lane_loss", "lane_shrink", "lane_restore"):
            if self.lane is None:
                raise ValueError(f"{self.kind} needs lane=")

    def to_record(self) -> dict:
        rec = {"at": self.at, "kind": self.kind}
        if self.lane is not None:
            rec["lane"] = self.lane
        if self.capacity is not None:
            rec["capacity"] = self.capacity
        if self.scale is not None:
            rec["scale"] = self.scale
        if self.count != 1:
            rec["count"] = self.count
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "FaultEvent":
        return cls(
            at=int(rec["at"]), kind=rec["kind"],
            lane=rec.get("lane"), capacity=rec.get("capacity"),
            scale=rec.get("scale"), count=int(rec.get("count", 1)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, JSON-serializable script of fault events."""

    events: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def to_json(self) -> str:
        return json.dumps(
            {"events": [e.to_record() for e in self.events]}, indent=2
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        events = data["events"] if isinstance(data, dict) else data
        return cls(tuple(FaultEvent.from_record(r) for r in events))

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


class _FlakyCategorizer:
    """Wraps the service's categorizer with a switchable outage.

    While ``down``, every call raises *before* touching the wrapped
    model — no feature-extractor state mutates, so a WAL replay that
    skips the model on degraded records stays bit-exact.  The service's
    replay path reaches the healthy model through :attr:`inner`.
    """

    def __init__(self, inner):
        self.inner = inner
        self.down = False

    def __call__(self, jobs):
        if self.down:
            raise RuntimeError("injected categorizer outage")
        return self.inner(jobs)


class FaultInjector:
    """Fire a :class:`FaultPlan` against a service at submission boundaries.

    A transparent proxy: use it exactly like the service it wraps
    (``submit_block``/``submit_batch``/``submit_jobs``/``submit``/
    ``complete``/``drain`` are intercepted; everything else — ``result``,
    ``stats``, ``snapshot`` … — delegates).  Before each submission,
    every event whose ``at`` is at or below the number of jobs already
    submitted fires, in plan order; fired events land in :attr:`fired`.

    Parameters
    ----------
    service:
        The :class:`~repro.serve.PlacementService` to torment.
    plan:
        A :class:`FaultPlan` (or an iterable of events).
    crash:
        Optional zero-arg hook run on a ``crash`` event (the CLI passes
        a hard process exit); :class:`InjectedCrash` is raised if the
        hook returns.
    """

    def __init__(self, service, plan, *, crash=None):
        self.service = service
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan(tuple(plan))
        self.plan = plan
        self._queue = sorted(
            enumerate(plan.events), key=lambda kv: (kv[1].at, kv[0])
        )
        self._queue = [e for _, e in self._queue]
        self._crash = crash
        self._sent = 0
        self._orig_caps: dict[int, float] = {}
        self._drop_completes = 0
        self._dup_completes = 0
        self._pending_errors = 0
        self._flaky: _FlakyCategorizer | None = None
        self.fired: list[FaultEvent] = []
        self.n_dropped_completes = 0
        self.n_duplicated_completes = 0

    def __getattr__(self, name):
        return getattr(self.service, name)

    @property
    def n_submitted_through(self) -> int:
        """Jobs submitted through this injector (the trigger clock)."""
        return self._sent

    # -- event firing ---------------------------------------------------

    def _fire_due(self) -> None:
        while self._queue and self._queue[0].at <= self._sent:
            self._fire(self._queue.pop(0))

    def _fire(self, ev: FaultEvent) -> None:
        self.fired.append(ev)
        svc = self.service
        if ev.kind == "lane_loss":
            self._orig_caps.setdefault(ev.lane, float(svc.lane_capacities[ev.lane]))
            svc.apply_shock(0.0, lane=ev.lane)
        elif ev.kind == "lane_shrink":
            cur = float(svc.lane_capacities[ev.lane])
            self._orig_caps.setdefault(ev.lane, cur)
            new = ev.capacity if ev.capacity is not None else cur * (
                ev.scale if ev.scale is not None else 0.5
            )
            svc.apply_shock(float(new), lane=ev.lane)
        elif ev.kind == "lane_restore":
            orig = self._orig_caps.pop(ev.lane, None)
            if orig is not None:
                svc.apply_shock(orig, lane=ev.lane)
        elif ev.kind == "quota":
            if ev.scale is not None:
                svc.apply_shock(scale=ev.scale)
            elif ev.capacity is not None:
                svc.apply_shock(float(np.asarray(ev.capacity, dtype=float)))
            else:
                raise ValueError("quota event needs scale= or capacity=")
        elif ev.kind == "cat_fail":
            if svc.categorizer is not None:
                if self._flaky is None:
                    self._flaky = _FlakyCategorizer(svc.categorizer)
                    svc.categorizer = self._flaky
                self._flaky.down = True
        elif ev.kind == "cat_recover":
            if self._flaky is not None:
                self._flaky.down = False
        elif ev.kind == "drop_complete":
            self._drop_completes += ev.count
        elif ev.kind == "dup_complete":
            self._dup_completes += ev.count
        elif ev.kind == "submit_error":
            self._pending_errors += ev.count
        elif ev.kind == "crash":
            if self._crash is not None:
                self._crash()
            raise InjectedCrash(f"injected crash at submission {self._sent}")

    def _pre_submit(self, k: int) -> None:
        self._fire_due()
        if self._pending_errors:
            self._pending_errors -= 1
            raise TransientSubmitError(
                f"injected transient failure at submission {self._sent}"
            )
        self._sent += k

    # -- intercepted service API ----------------------------------------

    def submit(self, job=None, **kw):
        self._pre_submit(1)
        return self.service.submit(job, **kw)

    def submit_batch(self, arrivals, *args, **kw):
        self._pre_submit(int(np.asarray(arrivals).size))
        return self.service.submit_batch(arrivals, *args, **kw)

    def submit_jobs(self, jobs):
        jobs = list(jobs)
        self._pre_submit(len(jobs))
        return self.service.submit_jobs(jobs)

    def submit_block(self, block):
        self._pre_submit(len(block))
        return self.service.submit_block(block)

    def complete(self, job_id, time=None):
        if self._drop_completes:
            self._drop_completes -= 1
            self.n_dropped_completes += 1
            return False
        out = self.service.complete(job_id, time=time)
        if self._dup_completes:
            self._dup_completes -= 1
            self.n_duplicated_completes += 1
            self.service.complete(job_id, time=time)
        return out

    def drain(self):
        self._fire_due()
        return self.service.drain()
