"""The fabric coordinator: leases, expiry, re-issue, first-write-wins.

:class:`FabricCoordinator` turns a list of cache misses into
deterministic shards (same :func:`~repro.runner.engine._shard` partition
the local ``--jobs`` path uses, so the work split is a pure function of
the grid) and serves them to pull-based workers through two thread-safe
entry points the HTTP layer calls directly: :meth:`claim`
(``POST /leases``) and :meth:`submit_results` (``POST /results``).

Lease state machine, per shard::

    pending ──claim──> leased(worker, deadline) ──results──> done
       ^                    │
       │   deadline passes  │ (renewals push the deadline out)
       └────────────────────┘

plus one escape hatch: when a sweep has no pending shards left but an
idle worker is asking, the slowest still-leased shard is **re-issued**
(straggler mitigation) once its oldest lease has outlived
:data:`STRAGGLER_FACTOR` x the median shard turnaround — never to a worker
that holds a live lease on it.  Multiple live
leases on one shard are resolved by **first write wins**: the first
``POST /results`` to commit a point owns it, later copies count as
duplicates, and every point is stored into the shared
:class:`~repro.runner.cache.ResultCache` exactly once — which is what
makes a distributed sweep byte-identical to the local path by
construction (same cache keys, same deterministic per-point schedule).

Expiry is lazy: deadlines are evaluated inside :meth:`claim` /
:meth:`submit_results` and on the executor's wait ticks, so no timer
thread exists.  :meth:`execute` is signature-compatible with
:func:`~repro.runner.engine.execute_points` and plugs straight into
:func:`~repro.runner.engine.run_sweep` via its ``execute`` hook.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..obs.metrics import MetricsRegistry
from ..obs.trace import TRACER
from ..runner.cache import ResultCache, default_code_version
from ..runner.engine import PriorFor, _shard, checked_result, store_result, work_item
from ..runner.scenario import PAYLOAD_ERRORS, GridItem, PointResult, ScenarioPoint
from .protocol import (
    PROTOCOL_VERSION,
    FabricBadRequest,
    FabricConflict,
    FabricError,
    FabricGone,
    validate_claim,
    validate_results,
)

__all__ = ["FabricCoordinator"]

#: Without ``straggler_after_s``, a still-leased shard is re-issued once
#: its oldest live lease is this many times the sweep's median turnaround.
STRAGGLER_FACTOR = 4.0

#: Seconds an idle claim reply tells the worker to wait before claiming again.
IDLE_RETRY_S = 0.05


@dataclass
class _Lease:
    """One issuance of one shard to one worker."""

    id: str
    worker: str
    shard: "_Shard"
    issued_unix: float
    deadline_unix: float
    renewals: int = 0
    completed: bool = False
    expired: bool = False

    def active(self, now: float) -> bool:
        return not self.completed and not self.expired and now <= self.deadline_unix


@dataclass
class _Shard:
    """A deterministic slice of one sweep's misses."""

    index: int
    sweep: "_Sweep"
    keys: list[str]
    #: Times this shard has been leased out (>1 means re-issued).
    issues: int = 0
    done: bool = False
    leases: list[_Lease] = field(default_factory=list)


@dataclass
class _Sweep:
    """One in-flight distributed sweep (one ``execute`` call)."""

    id: str
    items: dict[str, GridItem]
    #: Pre-serialised work items, keyed like :attr:`items` (what goes
    #: over the wire; built by :func:`~repro.runner.engine.work_item`).
    item_docs: dict[str, dict[str, Any]]
    cache: ResultCache | None
    trace: dict[str, str] | None
    shards: list[_Shard] = field(default_factory=list)
    pending: deque = field(default_factory=deque)
    #: First-write-wins results (canonical key -> result).
    done: dict[str, PointResult] = field(default_factory=dict)
    meta: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Completed-lease turnarounds (drives the straggler threshold).
    turnarounds: list[float] = field(default_factory=list)
    event: threading.Event = field(default_factory=threading.Event)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


class FabricCoordinator:
    """Lease book-keeping for pull-based sweep workers.

    Parameters
    ----------
    cache:
        Default shared result cache; results posted by workers are
        persisted through :func:`~repro.runner.engine.store_result`
        exactly once per point.  ``execute`` callers may override it per
        sweep (the runner passes its own cache through).
    metrics:
        Optional registry to export the ``fabric_*`` counter/gauge/
        histogram families on (the service passes its own, so they show
        up on ``GET /metrics``).
    lease_ttl_s:
        Seconds a lease stays valid without a renewal; workers are told
        to heartbeat at a third of this, and ``execute`` checks for
        expired leases every quarter of it (between 0.01 and 0.25 s).
    shard_size:
        Target points per shard (the unit of lease/re-issue).
    straggler_after_s:
        Re-issue a still-leased shard to an idle worker once its oldest
        live lease is older than this (when set) or
        :data:`STRAGGLER_FACTOR` x the sweep's median shard turnaround.
    max_leases_per_shard:
        Live-lease cap per shard (bounds duplicated work).
    sweep_timeout_s:
        Optional hard deadline on one ``execute`` call.
    """

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        metrics: MetricsRegistry | None = None,
        lease_ttl_s: float = 30.0,
        shard_size: int = 8,
        straggler_after_s: float | None = None,
        max_leases_per_shard: int = 2,
        sweep_timeout_s: float | None = None,
    ):
        self.cache = cache
        #: The code version workers must match: the cache's, else the
        #: process default.  Matching versions guarantee worker and
        #: coordinator compute identical content keys — the
        #: byte-identity invariant.
        self.code_version = (
            cache.code_version if cache is not None else default_code_version()
        )
        self.lease_ttl_s = float(lease_ttl_s)
        self.heartbeat_s = self.lease_ttl_s / 3.0
        self.shard_size = max(1, int(shard_size))
        self.straggler_after_s = straggler_after_s
        self.max_leases_per_shard = max(1, int(max_leases_per_shard))
        self.sweep_timeout_s = sweep_timeout_s
        self.tick_s = min(max(self.lease_ttl_s / 4.0, 0.01), 0.25)

        self._lock = threading.Lock()
        self._sweeps: dict[str, _Sweep] = {}
        self._leases: dict[str, _Lease] = {}
        self._workers: dict[str, dict[str, Any]] = {}
        self._sweep_ids = itertools.count(1)
        self._lease_ids = itertools.count(1)
        self._closed = threading.Event()

        # Counters (under _lock); /stats and /metrics read the same ints.
        self._leases_issued = 0
        self._leases_renewed = 0
        self._leases_expired = 0
        self._shards_reissued = 0
        self._points_completed = 0
        self._results_duplicate = 0
        self._results_rejected = 0

        self._lease_seconds = None
        if metrics is not None:
            self._register_metrics(metrics)

    def _register_metrics(self, metrics: MetricsRegistry) -> None:
        metrics.counter(
            "fabric_leases_issued_total",
            "Shard leases issued to fabric workers",
            callback=lambda: self._leases_issued,
        )
        metrics.counter(
            "fabric_leases_renewed_total",
            "Lease heartbeat renewals accepted",
            callback=lambda: self._leases_renewed,
        )
        metrics.counter(
            "fabric_leases_expired_total",
            "Leases expired past their deadline (worker death or stall)",
            callback=lambda: self._leases_expired,
        )
        metrics.counter(
            "fabric_shards_reissued_total",
            "Shards leased more than once (expiry or straggler re-issue)",
            callback=lambda: self._shards_reissued,
        )
        metrics.counter(
            "fabric_points_completed_total",
            "Scenario points committed by fabric workers (first write per point)",
            callback=lambda: self._points_completed,
        )
        metrics.counter(
            "fabric_results_duplicate_total",
            "Posted point results discarded by first-write-wins",
            callback=lambda: self._results_duplicate,
        )
        metrics.counter(
            "fabric_results_rejected_total",
            "Result posts rejected "
            "(malformed, unverified, duplicate, expired, version)",
            callback=lambda: self._results_rejected,
        )
        metrics.gauge(
            "fabric_sweeps_active",
            "Distributed sweeps currently executing",
            callback=lambda: len(self._sweeps),
        )
        metrics.gauge(
            "fabric_workers_seen",
            "Distinct workers that have contacted this coordinator",
            callback=lambda: len(self._workers),
        )
        self._lease_seconds = metrics.histogram(
            "fabric_lease_latency_seconds",
            "Lease turnaround: issue to accepted results",
        )

    # ------------------------------------------------------------------
    # Worker-facing API (POST /leases)
    # ------------------------------------------------------------------
    def claim(self, data: dict[str, Any]) -> dict[str, Any]:
        """Handle one ``POST /leases`` body (claim or renew).

        Raises
        ------
        FabricBadRequest
            Malformed body (400).
        FabricConflict
            Worker code version differs from the coordinator's (409).
        FabricGone
            Renewal of an unknown, expired or settled lease (410).
        """
        doc = validate_claim(data)
        worker = doc["worker"]
        now = time.time()
        with self._lock:
            wstats = self._worker_locked(worker, now)
            if "renew" in doc:
                return self._renew_locked(doc["renew"], now, wstats)
            if doc["code_version"] != self.code_version:
                raise FabricConflict(
                    f"code version mismatch: worker runs "
                    f"{doc['code_version']!r}, coordinator runs "
                    f"{self.code_version!r} — results would not share "
                    f"cache keys"
                )
            self._expire_locked(now)
            shard = self._next_shard_locked(now, worker)
            if shard is None:
                return {
                    "protocol": PROTOCOL_VERSION,
                    "lease": None,
                    "idle": True,
                    "retry_s": IDLE_RETRY_S,
                }
            lease = _Lease(
                id=f"l{next(self._lease_ids):05d}",
                worker=worker,
                shard=shard,
                issued_unix=now,
                deadline_unix=now + self.lease_ttl_s,
            )
            shard.leases.append(lease)
            shard.issues += 1
            if shard.issues > 1:
                self._shards_reissued += 1
            self._leases[lease.id] = lease
            self._leases_issued += 1
            wstats["leases"] += 1
            sweep = shard.sweep
            return {
                "protocol": PROTOCOL_VERSION,
                "lease": lease.id,
                "sweep": sweep.id,
                "shard": [sweep.item_docs[key] for key in shard.keys],
                "deadline_unix": lease.deadline_unix,
                "heartbeat_s": self.heartbeat_s,
                "trace": sweep.trace,
            }

    def _renew_locked(
        self, lease_id: str, now: float, wstats: dict[str, Any]
    ) -> dict[str, Any]:
        lease = self._leases.get(lease_id)
        if lease is None:
            raise FabricGone(f"unknown lease {lease_id!r}")
        if lease.completed:
            raise FabricGone(f"lease {lease_id} already submitted its results")
        if lease.expired or now > lease.deadline_unix:
            self._expire_locked(now)
            raise FabricGone(f"lease {lease_id} expired; its shard may be re-issued")
        lease.deadline_unix = now + self.lease_ttl_s
        lease.renewals += 1
        self._leases_renewed += 1
        wstats["renewals"] += 1
        return {
            "protocol": PROTOCOL_VERSION,
            "lease": lease.id,
            "deadline_unix": lease.deadline_unix,
            "heartbeat_s": self.heartbeat_s,
        }

    # ------------------------------------------------------------------
    # Worker-facing API (POST /results)
    # ------------------------------------------------------------------
    def submit_results(self, data: dict[str, Any]) -> dict[str, Any]:
        """Handle one ``POST /results`` body.

        The whole post is validated **before** anything commits: a
        corrupt item, or one whose schedule fails verification against
        its point's own graph and machine, rejects the post atomically
        (400) and leaves the sweep and the cache untouched.  Committing
        is first-write-wins per point; the winning write also lands in
        the shared result cache, so every point is stored exactly once
        no matter how many leases raced.
        """
        doc = validate_results(data)
        now = time.time()
        with self._lock:
            wstats = self._worker_locked(doc["worker"], now)
            lease = self._check_lease_locked(doc, now, wstats)
            sweep = lease.shard.sweep
            shard_keys = set(lease.shard.keys)
            try:
                parsed = self._parse_results(doc["results"], lease, shard_keys)
            except FabricError:
                self._results_rejected += 1
                wstats["rejected"] += 1
                raise
            accepted = duplicates = 0
            spans: list[dict[str, Any]] = []
            for key, point, result, meta in parsed:
                if key in sweep.done:
                    duplicates += 1
                    continue
                sweep.done[key] = result
                sweep.meta[key] = {
                    "wall_s": meta.get("wall_s", 0.0),
                    "worker": doc["worker"],
                }
                if sweep.cache is not None:
                    store_result(sweep.cache, point, result)
                spans.extend(meta.get("spans") or [])
                accepted += 1
            lease.completed = True
            lease.shard.done = True
            turnaround = now - lease.issued_unix
            sweep.turnarounds.append(turnaround)
            self._points_completed += accepted
            self._results_duplicate += duplicates
            wstats["points"] += accepted
            wstats["duplicates"] += duplicates
            sweep_done = len(sweep.done) >= len(sweep.items)
            if sweep_done:
                sweep.event.set()
        if self._lease_seconds is not None:
            self._lease_seconds.observe(turnaround)
        for span in spans:
            TRACER.record(span)
        return {
            "protocol": PROTOCOL_VERSION,
            "accepted": accepted,
            "duplicates": duplicates,
            "sweep_done": sweep_done,
        }

    def _check_lease_locked(
        self, doc: dict[str, Any], now: float, wstats: dict[str, Any]
    ) -> _Lease:
        """Resolve the posting lease or reject the post (locked)."""

        def _reject(exc: FabricError) -> FabricError:
            self._results_rejected += 1
            wstats["rejected"] += 1
            return exc

        if doc["code_version"] != self.code_version:
            raise _reject(
                FabricConflict(
                    f"code version mismatch: worker runs "
                    f"{doc['code_version']!r}, coordinator runs "
                    f"{self.code_version!r}"
                )
            )
        lease = self._leases.get(doc["lease"])
        if lease is None:
            raise _reject(
                FabricGone(
                    f"unknown lease {doc['lease']!r} "
                    f"(never issued, or its sweep already finished)"
                )
            )
        if lease.worker != doc["worker"]:
            raise _reject(
                FabricConflict(
                    f"lease {lease.id} belongs to worker {lease.worker!r}, "
                    f"not {doc['worker']!r}"
                )
            )
        if lease.completed:
            raise _reject(
                FabricConflict(
                    f"duplicate post: lease {lease.id} already submitted "
                    f"its results"
                )
            )
        self._expire_locked(now)
        if lease.expired or now > lease.deadline_unix:
            raise _reject(
                FabricGone(
                    f"lease {lease.id} expired before its results arrived; "
                    f"its shard may have been re-issued"
                )
            )
        return lease

    @staticmethod
    def _parse_results(
        items: list[dict[str, Any]], lease: _Lease, shard_keys: set[str]
    ) -> list[tuple[str, ScenarioPoint, PointResult, dict[str, Any]]]:
        """Deserialise and verify every posted item (atomic: all or 400).

        Each result is decoded against the sweep's own ``(point, loop)``
        for its key and its schedule verified (see
        :func:`~repro.runner.engine.checked_result`).
        """
        sweep = lease.shard.sweep
        parsed = []
        for i, item in enumerate(items):
            try:
                point = ScenarioPoint(**item["point"])
                key = point.canonical()
            except TypeError as exc:
                raise FabricBadRequest(
                    f"results[{i}]: malformed scenario point: {exc}"
                ) from None
            if key not in shard_keys:
                raise FabricBadRequest(
                    f"results[{i}]: point is not part of lease {lease.id}"
                )
            point, loop = sweep.items[key]
            try:
                result = checked_result(item["result"], point, loop)
            except PAYLOAD_ERRORS as exc:
                raise FabricBadRequest(
                    f"results[{i}]: corrupt result payload: "
                    f"{type(exc).__name__}: {exc}"
                ) from None
            meta = item.get("meta") or {}
            wall = meta.get("wall_s", 0.0)
            if not isinstance(wall, (int, float)) or isinstance(wall, bool):
                wall = 0.0
            parsed.append(
                (key, point, result, {"wall_s": float(wall), "spans": meta.get("spans")})
            )
        return parsed

    # ------------------------------------------------------------------
    # Lease/shard selection (all locked)
    # ------------------------------------------------------------------
    def _worker_locked(self, worker: str, now: float) -> dict[str, Any]:
        wstats = self._workers.get(worker)
        if wstats is None:
            wstats = {
                "leases": 0,
                "renewals": 0,
                "points": 0,
                "duplicates": 0,
                "rejected": 0,
                "expired": 0,
                "last_seen_unix": now,
            }
            self._workers[worker] = wstats
        wstats["last_seen_unix"] = now
        return wstats

    def _expire_locked(self, now: float) -> None:
        """Expire overdue leases; orphaned shards go back to pending."""
        for lease in list(self._leases.values()):
            if lease.completed or lease.expired or now <= lease.deadline_unix:
                continue
            lease.expired = True
            self._leases_expired += 1
            wstats = self._workers.get(lease.worker)
            if wstats is not None:
                wstats["expired"] += 1
            shard = lease.shard
            if shard.done:
                continue
            others = [
                le for le in shard.leases if le is not lease and le.active(now)
            ]
            if not others and shard not in shard.sweep.pending:
                # Front of the queue: a shard that already cost a failed
                # lease should not also wait behind fresh work.
                shard.sweep.pending.appendleft(shard)

    def _next_shard_locked(self, now: float, worker: str) -> _Shard | None:
        for sweep in self._sweeps.values():
            while sweep.pending:
                shard = sweep.pending.popleft()
                if not shard.done:
                    return shard
            shard = self._straggler_locked(sweep, now, worker)
            if shard is not None:
                return shard
        return None

    def _straggler_locked(
        self, sweep: _Sweep, now: float, worker: str
    ) -> _Shard | None:
        """The slowest shard re-issuable to *worker*, or ``None``.

        Only reached when the sweep has no pending shards (so a worker
        is idle near completion) — the classic straggler window.  A
        shard is never re-issued to a worker holding a live lease on it:
        a worker claims its next shard before it posts its last one.
        """
        threshold = self.straggler_after_s
        if threshold is None:
            if not sweep.turnarounds:
                return None
            threshold = STRAGGLER_FACTOR * _median(sweep.turnarounds)
        candidates = []
        for shard in sweep.shards:
            if shard.done:
                continue
            live = [lease for lease in shard.leases if lease.active(now)]
            if not live or len(live) >= self.max_leases_per_shard:
                continue
            if any(lease.worker == worker for lease in live):
                continue
            age = now - min(lease.issued_unix for lease in live)
            if age >= threshold:
                # -index: deterministic tie-break to the lowest index.
                candidates.append((age, -shard.index, shard))
        if not candidates:
            return None
        return max(candidates)[2]

    # ------------------------------------------------------------------
    # The executor (the run_sweep `execute` hook)
    # ------------------------------------------------------------------
    def execute(
        self,
        misses: list[tuple[str, GridItem]],
        *,
        jobs: int = 1,
        cache: ResultCache | None = None,
        prior_for: PriorFor | None = None,
        meta_out: dict[str, dict[str, Any]] | None = None,
    ) -> dict[str, PointResult]:
        """Execute *misses* on the worker fleet; blocks until complete.

        Signature-compatible with
        :func:`~repro.runner.engine.execute_points` so it plugs into
        ``run_sweep(execute=...)`` unchanged.  ``jobs`` is ignored —
        parallelism is however many workers are pulling.

        Raises
        ------
        FabricError
            When ``sweep_timeout_s`` elapses or the coordinator is
            closed with the sweep incomplete.
        """
        del jobs
        if not misses:
            return {}
        sweep = self._register_sweep(misses, cache=cache, prior_for=prior_for)
        try:
            with TRACER.span(
                "fabric.sweep",
                sweep=sweep.id,
                points=len(sweep.items),
                shards=len(sweep.shards),
            ):
                self._await_sweep(sweep)
        finally:
            self._unregister_sweep(sweep)
        if meta_out is not None:
            meta_out.update(sweep.meta)
        return dict(sweep.done)

    def _register_sweep(
        self,
        misses: list[tuple[str, GridItem]],
        *,
        cache: ResultCache | None,
        prior_for: PriorFor | None = None,
    ) -> _Sweep:
        item_docs = {
            key: work_item(point, loop, prior_for) for key, (point, loop) in misses
        }
        sweep = _Sweep(
            id=f"s{next(self._sweep_ids):05d}",
            items=dict(misses),
            item_docs=item_docs,
            cache=cache if cache is not None else self.cache,
            trace=TRACER.carrier(),
        )
        nshards = max(1, math.ceil(len(misses) / self.shard_size))
        parts = _shard(list(misses), nshards)
        sweep.shards = [
            _Shard(index=i, sweep=sweep, keys=[key for key, _item in part])
            for i, part in enumerate(parts)
        ]
        sweep.pending = deque(sweep.shards)
        with self._lock:
            self._sweeps[sweep.id] = sweep
        return sweep

    def _await_sweep(self, sweep: _Sweep) -> None:
        deadline = (
            time.monotonic() + self.sweep_timeout_s
            if self.sweep_timeout_s is not None
            else None
        )
        while not sweep.event.wait(self.tick_s):
            if self._closed.is_set():
                raise FabricError(
                    f"coordinator closed with sweep {sweep.id} at "
                    f"{len(sweep.done)}/{len(sweep.items)} point(s)"
                )
            with self._lock:
                self._expire_locked(time.time())
            if deadline is not None and time.monotonic() >= deadline:
                raise FabricError(
                    f"distributed sweep {sweep.id} timed out after "
                    f"{self.sweep_timeout_s:g}s with "
                    f"{len(sweep.done)}/{len(sweep.items)} point(s) done"
                )

    def _unregister_sweep(self, sweep: _Sweep) -> None:
        with self._lock:
            self._sweeps.pop(sweep.id, None)
            # Late posts against this sweep's leases now answer 410.
            for shard in sweep.shards:
                for lease in shard.leases:
                    self._leases.pop(lease.id, None)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """The ``/stats`` fabric block (same ints ``/metrics`` exports)."""
        with self._lock:
            shards_open = sum(
                1
                for sweep in self._sweeps.values()
                for shard in sweep.shards
                if not shard.done
            )
            return {
                "protocol": PROTOCOL_VERSION,
                "code_version": self.code_version,
                "lease_ttl_s": self.lease_ttl_s,
                "shard_size": self.shard_size,
                "sweeps_active": len(self._sweeps),
                "shards_open": shards_open,
                "counters": {
                    "leases_issued": self._leases_issued,
                    "leases_renewed": self._leases_renewed,
                    "leases_expired": self._leases_expired,
                    "shards_reissued": self._shards_reissued,
                    "points_completed": self._points_completed,
                    "results_duplicate": self._results_duplicate,
                    "results_rejected": self._results_rejected,
                },
                "workers": {
                    worker: dict(wstats)
                    for worker, wstats in sorted(self._workers.items())
                },
            }

    def close(self) -> None:
        """Abort in-flight ``execute`` calls (they raise ``FabricError``)."""
        self._closed.set()
