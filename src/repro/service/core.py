"""The batch scheduling service: validated requests, jobs, and the queue.

This module is the process-local heart of ``repro-vliw serve`` — the
HTTP layer (:mod:`repro.service.server`) is a thin JSON adapter over it,
and it is equally usable embedded (tests, benchmarks, notebooks):

* :class:`ScheduleRequest` — one validated scheduling request: a named
  kernel on a machine shape under a scheduler/policy/rule, optionally
  simulated.  :meth:`ScheduleRequest.from_payload` is the single place
  untrusted input is checked; everything past it works with
  :class:`~repro.runner.scenario.ScenarioPoint` work units.
* :class:`Job` — one queued unit of client work (a single request, a
  batch of requests, or a named experiment grid) with a lifecycle of
  ``queued -> running -> done | failed | cancelled``.
* :class:`SchedulingService` — the long-lived engine.  A single
  dispatcher thread drains the job queue, **coalesces every queued job
  into one batch**, dedupes the batch's scenario points against an
  in-process memo of rendered payloads, and resolves the rest through
  :func:`repro.runner.engine.run_sweep` — the content-addressed on-disk
  :class:`~repro.runner.cache.ResultCache`, then one shared
  spawn-context ``ProcessPoolExecutor`` via
  :func:`repro.runner.engine.execute_points`.  Concurrent clients thus
  reuse warm workers and warm caches instead of paying pool start-up
  and re-scheduling per request.

Dedupe layers, fastest first: in-batch (identical points across queued
jobs execute once), in-process memo (bounded; serves repeat requests
without touching disk), on-disk cache (shared with the CLI sweeps — a
``repro-vliw fig8`` run pre-warms the service and vice versa).
"""

from __future__ import annotations

import enum
import itertools
import json
import queue
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from ..arch.configs import CLUSTER_COUNTS, clustered_config
from ..codegen.vliw import render_schedule
from ..core.selective import SelectiveRule, UnrollPolicy
from ..errors import ParseError, ServiceError, WorkloadError
from ..fabric.coordinator import FabricCoordinator
from ..obs.metrics import MetricsRegistry
from ..runner.cache import ResultCache
from ..runner.engine import (
    SCHEDULERS,
    execute_point,
    execute_points,
    make_worker_pool,
    run_sweep,
)
from ..runner.grids import GRIDS
from ..ir.frontend import parse_program
from ..ir.loop import Loop
from ..ir.serialize import schedule_to_dict
from ..runner.scenario import (
    GridItem,
    PointResult,
    ScenarioPoint,
    program_payload,
    scenario_for,
)
from ..workloads.kernels import kernel_loop, resolve_kernel

__all__ = [
    "Job",
    "RequestError",
    "ScheduleRequest",
    "SchedulingService",
    "ServiceClosed",
    "reference_payload",
]


class RequestError(ServiceError):
    """A request payload is malformed (the HTTP layer maps this to 400)."""


class ServiceClosed(ServiceError):
    """The service is shutting down and no longer accepts submissions."""


#: Friendly spellings accepted for :class:`UnrollPolicy` values.
POLICY_ALIASES = {
    "none": UnrollPolicy.NONE.value,
    "all": UnrollPolicy.ALL.value,
    "selective": UnrollPolicy.SELECTIVE.value,
}

#: Friendly spellings accepted for :class:`SelectiveRule` values.
RULE_ALIASES = {
    "mii": SelectiveRule.MII_UNROLLED.value,
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestError(message)


def _as_int(data: dict[str, Any], key: str, default: int) -> int:
    value = data.get(key, default)
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{key!r} must be an integer, got {value!r}",
    )
    return value


def _choice(
    data: dict[str, Any],
    key: str,
    default: str,
    members: type[enum.Enum],
    aliases: dict[str, str],
) -> str:
    """The value of the *members* entry that ``data[key]`` names (or aliases)."""
    value = data.get(key, default)
    if isinstance(value, str):
        try:
            return members(aliases.get(value, value)).value
        except ValueError:
            pass
    known = sorted([m.value for m in members] + list(aliases))
    raise RequestError(f"unknown {key} {value!r}; known: {known}")


@dataclass(frozen=True)
class ScheduleRequest:
    """One validated scheduling request (the unit clients submit).

    Attributes mirror the ``repro-vliw schedule`` / ``simulate`` CLI
    flags; :meth:`from_payload` maps the JSON body of ``POST /schedule``
    onto them with full validation, so a constructed instance is always
    executable.
    """

    kernel: str | None = None
    clusters: int = 4
    buses: int = 1
    latency: int = 1
    scheduler: str = "bsa"
    policy: str = UnrollPolicy.NONE.value
    rule: str = SelectiveRule.MII_UNROLLED.value
    simulate: bool = False
    niter: int = 100
    miss_rate: float = 0.0
    miss_penalty: int = 10
    seed: int = 0
    #: Inline textual loop-IR source (the workload front door): exactly
    #: one of ``kernel`` / ``program`` must be set.
    program: str | None = None
    #: The loop :meth:`from_payload` parsed from ``program``, handed over
    #: to the first :meth:`grid_item` call: a finished job keeps its
    #: requests, but not the scheduled graph with them.
    _parsed: list[Loop] | None = field(default=None, compare=False, repr=False)

    #: Payload keys accepted by :meth:`from_payload` (anything else is a
    #: typo worth rejecting loudly rather than silently ignoring).
    FIELDS = (
        "kernel",
        "program",
        "clusters",
        "buses",
        "latency",
        "scheduler",
        "policy",
        "rule",
        "simulate",
        "niter",
        "miss_rate",
        "miss_penalty",
        "seed",
    )

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "ScheduleRequest":
        """Validate one JSON request body into a :class:`ScheduleRequest`.

        Raises
        ------
        RequestError
            On any unknown key, missing kernel, unknown scheduler /
            policy / rule, out-of-range numeric field, or a cluster
            count no paper machine has.
        """
        _require(isinstance(data, dict), "request must be a JSON object")
        unknown = sorted(set(data) - set(cls.FIELDS))
        _require(not unknown, f"unknown request field(s): {unknown}")
        kernel = data.get("kernel")
        program = data.get("program")
        _require(
            (kernel is None) != (program is None),
            "exactly one of 'kernel' (a registered name) or 'program' "
            "(inline .loop source) is required",
        )
        canonical_kernel = graph = None
        if kernel is not None:
            _require(
                isinstance(kernel, str) and bool(kernel),
                "'kernel' (a kernel name or alias) is required",
            )
            try:
                canonical_kernel, _ = resolve_kernel(kernel)
            except WorkloadError as exc:
                raise RequestError(str(exc)) from None
            except KeyError as exc:
                raise RequestError(str(exc.args[0])) from None
        else:
            _require(
                isinstance(program, str) and bool(program.strip()),
                "'program' must be non-empty .loop source text",
            )
            try:
                graph = parse_program(
                    program, name="program", source="<request>"
                ).graph
            except ParseError as exc:
                raise RequestError(str(exc)) from None

        clusters = _as_int(data, "clusters", cls.clusters)
        buses = _as_int(data, "buses", cls.buses)
        latency = _as_int(data, "latency", cls.latency)
        _require(clusters >= 1, f"'clusters' must be >= 1, got {clusters}")
        _require(buses >= 1, f"'buses' must be >= 1, got {buses}")
        _require(latency >= 1, f"'latency' must be >= 1, got {latency}")
        _require(
            clusters in CLUSTER_COUNTS,
            f"paper configurations have 1, 2 or 4 clusters, not {clusters}",
        )

        scheduler = data.get("scheduler", cls.scheduler)
        _require(
            isinstance(scheduler, str) and scheduler in SCHEDULERS,
            f"unknown scheduler {scheduler!r}; known: {sorted(SCHEDULERS)}",
        )
        policy = _choice(data, "policy", cls.policy, UnrollPolicy, POLICY_ALIASES)
        rule = _choice(data, "rule", cls.rule, SelectiveRule, RULE_ALIASES)

        simulate = data.get("simulate", False)
        _require(
            isinstance(simulate, bool), "'simulate' must be true or false"
        )
        niter = _as_int(data, "niter", cls.niter)
        _require(niter >= 1, f"'niter' must be >= 1, got {niter}")
        miss_rate = data.get("miss_rate", cls.miss_rate)
        _require(
            isinstance(miss_rate, (int, float))
            and not isinstance(miss_rate, bool)
            and 0.0 <= float(miss_rate) < 1.0,
            f"'miss_rate' must be in [0, 1), got {miss_rate!r}",
        )
        miss_penalty = _as_int(data, "miss_penalty", cls.miss_penalty)
        _require(
            miss_penalty >= 0, f"'miss_penalty' must be >= 0, got {miss_penalty}"
        )
        seed = _as_int(data, "seed", cls.seed)
        return cls(
            kernel=canonical_kernel,
            program=program,
            _parsed=None if graph is None else [Loop(graph=graph, trip_count=niter)],
            clusters=clusters,
            buses=buses,
            latency=latency,
            scheduler=scheduler,
            policy=policy,
            rule=rule,
            simulate=simulate,
            niter=niter,
            miss_rate=float(miss_rate),
            miss_penalty=miss_penalty,
            seed=seed,
        )

    # ------------------------------------------------------------------
    def config(self):
        """The machine configuration this request targets."""
        return clustered_config(self.clusters, self.buses, self.latency)

    def grid_item(self, loop: Loop | None = None) -> GridItem:
        """The ``(ScenarioPoint, Loop)`` work unit for this request.

        Inline programs take the loop :meth:`from_payload` parsed (a
        later call parses again) and embed their full loop payload in the
        point, so they cache, dedupe and distribute like any catalogue
        kernel without ever entering a registry.  A catalogue request
        builds its loop unless the caller passes *loop*, one already
        built for the same kernel and ``niter``.
        """
        if self.program is not None:
            if self._parsed:
                loop = self._parsed.pop()
            else:
                parsed = parse_program(
                    self.program, name="program", source="<request>"
                )
                loop = Loop(graph=parsed.graph, trip_count=self.niter)
            payload = program_payload(loop)
        else:
            if loop is None:
                loop = kernel_loop(self.kernel, trip_count=self.niter)
            payload = ""
        point = scenario_for(
            loop,
            self.config(),
            self.scheduler,
            UnrollPolicy(self.policy),
            SelectiveRule(self.rule),
            simulate=self.simulate,
            niter=self.niter,
            miss_rate=self.miss_rate,
            miss_penalty=self.miss_penalty,
            seed=self.seed,
            program=payload,
        )
        return point, loop

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (what the client sends over the wire)."""
        return {name: getattr(self, name) for name in self.FIELDS}


# ---------------------------------------------------------------------------
# Result payloads
# ---------------------------------------------------------------------------
def result_payload(point: ScenarioPoint, result: PointResult) -> dict[str, Any]:
    """The JSON body describing one executed scenario point.

    ``rendered`` is byte-identical to the stdout of the direct
    ``repro-vliw schedule`` CLI path (``describe`` + blank line + VLIW
    listing) — the loadtest's byte-identity check and the ``submit``
    verb both rely on that.
    """
    loop_result = result.loop_result()
    sched = loop_result.schedule
    payload: dict[str, Any] = {
        "point": json.loads(point.canonical()),
        "kernel": point.loop,
        "ii": sched.ii,
        "stage_count": sched.stage_count,
        "unroll_factor": result.unroll_factor,
        "policy": result.policy,
        "fallback": result.fallback,
        "rendered": f"{sched.describe()}\n\n{render_schedule(sched)}",
        "schedule": schedule_to_dict(sched),
        "sim": result.sim.to_dict() if result.sim is not None else None,
    }
    return payload


def reference_payload(request: ScheduleRequest) -> dict[str, Any]:
    """Execute *request* directly (no service, no cache) for comparison.

    The loadtest's ``--verify`` mode uses this as the ground truth the
    service's responses must match byte-for-byte.
    """
    point, loop = request.grid_item()
    return result_payload(point, execute_point(point, loop))


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------
@dataclass
class Job:
    """One queued unit of client work and its lifecycle.

    ``kind`` is ``"schedule"`` (one request), ``"sweep"`` (a batch of
    requests) or ``"grid"`` (a named experiment grid).  Results appear
    on the job when it reaches ``done``: per-request payloads for point
    jobs, rendered tables for grid jobs.
    """

    id: str
    kind: str
    requests: list[ScheduleRequest] = field(default_factory=list)
    grid: str | None = None
    quick: bool = False
    jobs: int | None = None
    #: Grid jobs only: execute misses on the fabric's pull-based
    #: workers instead of the local pool (``sweep --distributed``).
    distributed: bool = False
    trace_id: str | None = None
    status: str = "queued"
    created_unix: float = field(default_factory=time.time)
    started_unix: float | None = None
    finished_unix: float | None = None
    results: list[dict[str, Any]] | None = None
    output: str | None = None
    error: str | None = None
    _done: threading.Event = field(default_factory=threading.Event, repr=False)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job leaves the queue/running states."""
        return self._done.wait(timeout)

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed", "cancelled")

    def snapshot(self, *, include_results: bool = True) -> dict[str, Any]:
        """JSON-ready view of the job (the ``GET /jobs/<id>`` body)."""
        doc: dict[str, Any] = {
            "job": self.id,
            "kind": self.kind,
            "status": self.status,
            "created_unix": self.created_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "requests": len(self.requests) if self.kind != "grid" else None,
            "grid": self.grid,
            "trace_id": self.trace_id,
            "error": self.error,
        }
        if self.kind == "grid":
            doc["distributed"] = self.distributed
        if include_results and self.status == "done":
            if self.kind == "grid":
                doc["output"] = self.output
            else:
                doc["results"] = self.results
        return doc

    # ------------------------------------------------------------------
    def _finish(self, status: str, *, error: str | None = None) -> None:
        self.status = status
        self.error = error
        self.finished_unix = time.time()
        self._done.set()


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------
class SchedulingService:
    """Long-lived batch scheduler over the cache-backed runner.

    Parameters
    ----------
    cache:
        Shared on-disk result cache (``None`` disables persistence; the
        in-process memo still dedupes repeat requests).
    workers:
        Worker processes in the shared pool.  ``0`` executes every miss
        in-process (no pool — the low-latency single-tenant setting and
        the test default); the pool is created lazily on the first batch
        that can use it and reused for every batch after.
    memo_limit:
        Bound on the in-process payload memo and on the memo of
        catalogue loops; when one is full, it is reset (the on-disk
        cache still serves those points).
    job_limit:
        Bound on retained jobs: when the registry exceeds it, the
        oldest *finished* jobs (and their result payloads) are evicted,
        so a long-lived service under sustained traffic does not grow
        without bound.  Evicted job ids answer 404 on ``GET /jobs/<id>``;
        in-flight jobs are never evicted.
    fabric_opts:
        Keyword arguments forwarded to the embedded
        :class:`~repro.fabric.coordinator.FabricCoordinator` (lease TTL,
        shard size, straggler policy...).  The coordinator shares this
        service's cache and metrics registry, so distributed grid jobs
        cross-pollinate the same cache local batches use and the
        ``fabric_*`` families appear on ``GET /metrics``.
    """

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        workers: int = 2,
        memo_limit: int = 4096,
        job_limit: int = 1024,
        fabric_opts: dict[str, Any] | None = None,
    ):
        self.cache = cache
        self.workers = max(0, workers)
        self.memo_limit = memo_limit
        self.job_limit = max(1, job_limit)
        self.started_unix = time.time()

        self._queue: queue.Queue[Job] = queue.Queue()
        self._jobs: dict[str, Job] = {}
        self._memo: dict[str, dict[str, Any]] = {}
        self._loops: dict[tuple[str, int], tuple[Any, Loop]] = {}
        self._pool = None
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stopping = False
        self._closed = threading.Event()

        # Counters (under _lock).  These plain ints are the single source
        # of truth; the metrics registry below exposes them through
        # callback-backed instruments, so ``/stats`` and ``/metrics``
        # read the same state and cannot drift.
        self._requests_total = 0
        self._points_executed = 0
        self._points_memo = 0
        self._points_disk = 0
        self._points_failed = 0
        self._points_deduped = 0
        self._batches = 0

        #: Per-service metrics registry (instance-owned, not process
        #: global, so embedded services and tests never share state).
        #: The HTTP layer adds its request counters/histograms here and
        #: renders it as ``GET /metrics``.
        self.metrics = MetricsRegistry()
        self._register_metrics()

        #: The distributed-sweep coordinator (``POST /leases`` and
        #: ``POST /results`` land here via :meth:`fabric_claim` /
        #: :meth:`fabric_results`).
        self.fabric = FabricCoordinator(
            cache=cache, metrics=self.metrics, **(fabric_opts or {})
        )

        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()

    def _register_metrics(self) -> None:
        """Declare the service's exported instruments.

        Counters and gauges are callback-backed views over the very
        fields :meth:`stats` reports; only the latency histograms (which
        have no ``/stats`` twin) hold registry-owned state.
        """
        self.metrics.counter(
            "repro_requests_total",
            "Client requests accepted (one per point request, one per grid)",
            callback=lambda: self._requests_total,
        )
        self.metrics.counter(
            "repro_batches_total",
            "Coalesced dispatcher batches executed",
            callback=lambda: self._batches,
        )
        self.metrics.counter(
            "repro_points_executed_total",
            "Scenario points actually scheduled/simulated",
            callback=lambda: self._points_executed,
        )
        self.metrics.counter(
            "repro_points_memo_hits_total",
            "Scenario points served from the in-process memo",
            callback=lambda: self._points_memo,
        )
        self.metrics.counter(
            "repro_points_disk_hits_total",
            "Scenario points served from the on-disk result cache",
            callback=lambda: self._points_disk,
        )
        self.metrics.counter(
            "repro_points_failed_total",
            "Scenario points that raised during execution",
            callback=lambda: self._points_failed,
        )
        self.metrics.counter(
            "repro_points_deduped_total",
            "Requested points collapsed by in-batch dedupe",
            callback=lambda: self._points_deduped,
        )
        self.metrics.gauge(
            "repro_queue_depth",
            "Jobs waiting for the dispatcher",
            callback=lambda: self._queue.qsize(),
        )
        self.metrics.gauge(
            "repro_jobs_inflight",
            "Jobs queued or running",
            callback=lambda: sum(
                not job.finished for job in list(self._jobs.values())
            ),
        )
        self.metrics.gauge(
            "repro_memo_entries",
            "Entries in the in-process payload memo",
            callback=lambda: len(self._memo),
        )
        self.metrics.gauge(
            "repro_pool_live",
            "Whether the shared worker pool has been created (0/1)",
            callback=lambda: float(self._pool is not None),
        )
        self._batch_seconds = self.metrics.histogram(
            "repro_batch_duration_seconds",
            "Wall time of one coalesced point batch",
        )
        if self.cache is not None:
            cache = self.cache
            self.metrics.counter(
                "repro_cache_hits_total",
                "On-disk cache hits (this process)",
                callback=lambda: cache.hits,
            )
            self.metrics.counter(
                "repro_cache_misses_total",
                "On-disk cache misses (this process)",
                callback=lambda: cache.misses,
            )
            self.metrics.counter(
                "repro_cache_writes_total",
                "On-disk cache writes (this process)",
                callback=lambda: cache.writes,
            )

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------
    def submit_schedule(
        self, request: ScheduleRequest, *, trace_id: str | None = None
    ) -> Job:
        """Queue one scheduling request; returns the (pending) job."""
        return self._enqueue(
            Job(self._next_id(), "schedule", [request], trace_id=trace_id)
        )

    def submit_sweep(
        self,
        requests: list[ScheduleRequest],
        *,
        trace_id: str | None = None,
    ) -> Job:
        """Queue a batch of scheduling requests as one job."""
        if not requests:
            raise RequestError("'requests' must be a non-empty list")
        return self._enqueue(
            Job(self._next_id(), "sweep", list(requests), trace_id=trace_id)
        )

    def submit_grid(
        self,
        grid: str,
        *,
        quick: bool = False,
        jobs: int | None = None,
        distributed: bool = False,
        trace_id: str | None = None,
    ) -> Job:
        """Queue a named experiment grid (``repro-vliw sweep`` as a job).

        ``distributed`` executes the grid's cache misses on the fabric's
        pull-based workers instead of the local pool; everything else
        (cache probing, reducers, rendering) is identical, so the output
        is byte-identical to a local run.
        """
        if not isinstance(grid, str) or grid not in GRIDS:
            raise RequestError(
                f"unknown grid {grid!r}; known: {sorted(GRIDS)}"
            )
        return self._enqueue(
            Job(
                self._next_id(),
                "grid",
                grid=grid,
                quick=quick,
                jobs=jobs,
                distributed=distributed,
                trace_id=trace_id,
            )
        )

    def job(self, job_id: str) -> Job | None:
        """Look up a job by id (``None`` when unknown)."""
        with self._lock:
            return self._jobs.get(job_id)

    # ------------------------------------------------------------------
    # Fabric API (``POST /leases`` and ``POST /results``)
    # ------------------------------------------------------------------
    def fabric_claim(self, data: dict[str, Any]) -> dict[str, Any]:
        """Delegate a worker's lease claim/renewal to the coordinator."""
        if self._stopping:
            raise ServiceClosed("service is shutting down")
        return self.fabric.claim(data)

    def fabric_results(self, data: dict[str, Any]) -> dict[str, Any]:
        """Delegate a worker's result post to the coordinator."""
        if self._stopping:
            raise ServiceClosed("service is shutting down")
        return self.fabric.submit_results(data)

    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        return f"j{next(self._ids):05d}"

    def _enqueue(self, job: Job) -> Job:
        with self._lock:
            if self._stopping:
                raise ServiceClosed("service is shutting down")
            self._jobs[job.id] = job
            self._requests_total += len(job.requests) if job.kind != "grid" else 1
            self._evict_finished_jobs()
        self._queue.put(job)
        return job

    def _evict_finished_jobs(self) -> None:
        """Drop the oldest finished jobs once past ``job_limit`` (locked).

        Dicts iterate in insertion order, so the oldest submissions are
        examined first; queued/running jobs are always retained.
        """
        excess = len(self._jobs) - self.job_limit
        if excess <= 0:
            return
        stale = [
            job_id
            for job_id, job in self._jobs.items()
            if job.finished
        ][:excess]
        for job_id in stale:
            del self._jobs[job_id]

    # ------------------------------------------------------------------
    # Stats / health
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """The ``GET /stats`` body: queue, dedupe and cache accounting.

        ``hit_rate`` is the ratio ``cached / (cached + executed)`` over
        distinct points; the ``counters`` block breaks the cached side
        into its explicit sources (memo vs disk) plus the failed and
        in-batch-deduped totals — the same fields ``/metrics`` exports.
        """
        with self._lock:
            by_status: dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            points_cached = self._points_memo + self._points_disk
            points_total = self._points_executed + points_cached
            doc = {
                "uptime_s": time.time() - self.started_unix,
                "workers": self.workers,
                "pool_live": self._pool is not None,
                "queue_depth": self._queue.qsize(),
                "jobs": by_status,
                "requests_total": self._requests_total,
                "batches": self._batches,
                "points_executed": self._points_executed,
                "points_cached": points_cached,
                "hit_rate": (
                    points_cached / points_total if points_total else 0.0
                ),
                "counters": {
                    "executed": self._points_executed,
                    "memo_hits": self._points_memo,
                    "disk_hits": self._points_disk,
                    "failed": self._points_failed,
                    "deduped": self._points_deduped,
                },
                "memo_entries": len(self._memo),
            }
        if self.cache is not None:
            cache_probes = self.cache.hits + self.cache.misses
            doc["cache"] = {
                "root": str(self.cache.root),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "writes": self.cache.writes,
                "hit_rate": (
                    self.cache.hits / cache_probes if cache_probes else 0.0
                ),
            }
        else:
            doc["cache"] = None
        doc["fabric"] = self.fabric.stats()
        return doc

    def healthz(self) -> dict[str, Any]:
        """The ``GET /healthz`` body."""
        status = "stopping" if self._stopping else "ok"
        return {
            "status": status,
            "uptime_s": time.time() - self.started_unix,
            "queue_depth": self._queue.qsize(),
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, *, timeout: float = 30.0) -> None:
        """Stop accepting work, cancel queued jobs, drain, shut the pool.

        The batch in flight (if any) is allowed to finish — its results
        land in the cache and its jobs complete normally; jobs still
        queued are marked ``cancelled`` and their waiters released.
        Idempotent and safe to call from any thread.
        """
        with self._lock:
            first_closer = not self._stopping
            if first_closer:
                self._stopping = True
                for job in self._jobs.values():
                    if job.status == "queued":
                        job._finish("cancelled", error="service shut down")
        # Never wait while holding the lock: the dispatcher needs it to
        # finish the batch in flight that this join is waiting on.
        if not first_closer:
            self._closed.wait(timeout)
            return
        # Abort any distributed sweep still waiting on workers — the
        # dispatcher is blocked inside fabric.execute and must unblock
        # (with a FabricError, failing that job) before it can drain.
        self.fabric.close()
        self._dispatcher.join(timeout)
        self._closed.set()
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            try:
                job = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._stopping:
                    return
                continue
            batch = [job]
            while True:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            live = [j for j in batch if j.status == "queued"]
            if not live:
                continue
            point_jobs = [j for j in live if j.kind in ("schedule", "sweep")]
            grid_jobs = [j for j in live if j.kind == "grid"]
            if point_jobs:
                try:
                    self._run_point_jobs(point_jobs)
                except Exception as exc:  # noqa: BLE001 - dispatcher must survive
                    for j in point_jobs:
                        if not j.finished:
                            j._finish("failed", error=f"{type(exc).__name__}: {exc}")
            for j in grid_jobs:
                try:
                    self._run_grid_job(j)
                except Exception as exc:  # noqa: BLE001 - dispatcher must survive
                    self._discard_pool_if_broken(exc)
                    if not j.finished:
                        j._finish("failed", error=f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self.workers <= 0:
            return None
        if self._pool is None:
            self._pool = make_worker_pool(self.workers)
        return self._pool

    def _discard_pool_if_broken(self, exc: Exception) -> None:
        """Replace a crashed executor on the next batch.

        A worker dying (OOM kill, segfault) leaves the executor
        permanently broken; keeping it would fail every future batch
        while ``/healthz`` still reports ok.  Discarding it makes the
        next batch lazily create a fresh pool.
        """
        from concurrent.futures import BrokenExecutor

        if isinstance(exc, BrokenExecutor) and self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=False)

    def _memo_put(self, key: str, payload: dict[str, Any]) -> None:
        if len(self._memo) >= self.memo_limit:
            self._memo.clear()
        self._memo[key] = payload

    def _catalogue_loop(self, request: ScheduleRequest) -> Loop | None:
        """The loop a catalogue request names, built once per (kernel, niter).

        An entry serves only while the name still resolves to the same
        registered factory and arguments, so a workload unregistered and
        registered again is built afresh.  Inline programs get ``None``:
        :meth:`ScheduleRequest.grid_item` parses them per request.
        """
        if request.kernel is None:
            return None
        _, factory = resolve_kernel(request.kernel)
        if isinstance(factory, partial):  # a parametrised instance
            source = (factory.func, factory.args, factory.keywords)
        else:
            source = factory
        key = (request.kernel, request.niter)
        entry = self._loops.get(key)
        if entry is None or entry[0] != source:
            if len(self._loops) >= self.memo_limit:
                self._loops.clear()
            loop = Loop(graph=factory(), trip_count=request.niter)
            entry = self._loops[key] = (source, loop)
        return entry[1]

    def _run_point_jobs(self, jobs: list[Job]) -> None:
        """Execute one coalesced batch of schedule/sweep jobs."""
        batch_t0 = time.perf_counter()
        now = time.time()
        for job in jobs:
            job.status = "running"
            job.started_unix = now

        # Dedupe the whole batch down to distinct scenario points.
        unique: dict[str, GridItem] = {}
        order: list[tuple[Job, list[str]]] = []
        requested = 0
        for job in jobs:
            keys = []
            for request in job.requests:
                point, loop = request.grid_item(self._catalogue_loop(request))
                key = point.canonical()
                unique.setdefault(key, (point, loop))
                keys.append(key)
                requested += 1
            order.append((job, keys))

        # Serve what we can from the payload memo; run_sweep resolves
        # the rest through the on-disk cache and the executor below.
        payloads: dict[str, dict[str, Any]] = {}
        pending: list[GridItem] = []
        for key, item in unique.items():
            hit = self._memo.get(key)
            if hit is not None:
                payloads[key] = hit
            else:
                pending.append(item)

        # A failure is isolated per point: one bad scenario must not
        # fail unrelated concurrent clients coalesced into the same batch.
        failed: dict[str, str] = {}
        executed: set[str] = set()

        def execute(misses, *, jobs, **kwargs):
            del jobs  # the batch width is the pool's, decided here
            pool = self._ensure_pool() if len(misses) > 1 else None
            width = min(self.workers, len(misses)) if pool is not None else 1
            try:
                done = execute_points(misses, jobs=width, pool=pool, **kwargs)
            except Exception as exc:  # noqa: BLE001 - degrade per point
                self._discard_pool_if_broken(exc)
                done = {}
                for item in misses:
                    try:
                        done.update(execute_points([item], **kwargs))
                    except Exception as point_exc:  # noqa: BLE001
                        failed[item[0]] = f"{type(point_exc).__name__}: {point_exc}"
            executed.update(done)
            return done

        resolved, sweep = run_sweep(pending, cache=self.cache, execute=execute)
        for key, result in resolved.items():
            payloads[key] = result_payload(unique[key][0], result)
            self._memo_put(key, payloads[key])

        with self._lock:
            self._batches += 1
            self._points_executed += sweep.executed
            self._points_memo += len(unique) - len(pending)
            self._points_disk += sweep.cached
            self._points_failed += len(failed)
            self._points_deduped += requested - len(unique)
        self._batch_seconds.observe(time.perf_counter() - batch_t0)

        # Hand every job its per-request results, in request order.
        seen: set[str] = set()
        for job, keys in order:
            broken = [key for key in keys if key in failed]
            if broken:
                job._finish("failed", error=failed[broken[0]])
                continue
            results = []
            for key in keys:
                cached = key not in executed or key in seen
                seen.add(key)
                results.append(dict(payloads[key], cached=cached))
            job.results = results
            job._finish("done")

    def _run_grid_job(self, job: Job) -> None:
        """Execute one named experiment grid through the shared pool."""
        from ..experiments.common import ExperimentContext

        job.status = "running"
        job.started_unix = time.time()
        width, executor = 1, None
        if job.distributed:
            # Misses go to the fabric's pull-based workers (parallelism =
            # however many workers pull).
            executor = self.fabric.execute
        elif self.workers > 0:
            # A workers=0 service executes in-process by contract: a
            # client asking for jobs>1 must not force a pool into being.
            width = job.jobs if job.jobs is not None else self.workers
            if width > 1:
                executor = partial(execute_points, pool=self._ensure_pool())
        ctx = ExperimentContext(cache=self.cache, jobs=width, executor=executor)
        job.output = GRIDS[job.grid].run(ctx, job.quick)
        with self._lock:
            self._batches += 1
            self._points_executed += ctx.stats.executed
            self._points_disk += ctx.stats.cached
        job._finish("done")
