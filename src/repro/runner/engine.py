"""Scenario execution and the parallel sweep engine.

:func:`execute_point` runs one :class:`ScenarioPoint` to a
:class:`PointResult` — schedule under the point's unrolling policy
(falling back to a one-iteration list schedule when modulo scheduling is
impossible), then optionally execute it on the cycle-accurate simulator
and diff against the analytic model.

:func:`run_sweep` is the one resolver from scenario points to results
that every front end goes through: it serves every point it can from the
on-disk cache, hands the misses to its ``execute`` hook, and accounts
for them.  The default hook, :func:`execute_points`, shards the misses
**deterministically** (by content hash, so the work distribution is a
pure function of the grid, not of timing) across a
``ProcessPoolExecutor`` — ephemeral, or an injected long-lived one — and
persists each result as it completes.  The distributed fabric's
coordinator is the other hook.  Because scheduling is deterministic per
point and results are keyed by content, a sweep's output is
byte-identical at ``--jobs 1`` and ``--jobs N``, and a killed sweep
resumes from whatever the cache already holds.

Misses run one *family* at a time: the points that schedule the same
loop on the same machine with the same scheduler, differing only in
unrolling policy, share one :class:`~repro.core.selective.ScheduleMemo`,
so each (graph, machine, scheduler, unroll factor) is scheduled once.
Shards keep families whole.

The scheduler registry (:data:`SCHEDULERS`, :func:`make_scheduler`) and
the list-schedule fallback live here so the engine's workers, the
service and the CLI dispatch through one table (import them from
:mod:`repro.runner`).
"""

from __future__ import annotations

import json
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from multiprocessing import get_context
from time import perf_counter
from typing import Any, Callable

from ..arch.cluster import MachineConfig
from ..core.base import SchedulerBase
from ..core.bsa import BsaScheduler
from ..core.exact import ExactScheduler
from ..core.list_schedule import list_schedule
from ..core.selective import (
    ScheduledLoopResult,
    ScheduleMemo,
    UnrollPolicy,
    schedule_with_policy,
)
from ..core.twophase import TwoPhaseScheduler
from ..core.unified import UnifiedScheduler
from ..core.verify import verify_schedule
from ..errors import SchedulingError, SimulationError, VerificationError
from ..ir.ddg import DependenceGraph
from ..ir.loop import Loop
from ..ir.serialize import loop_from_dict, loop_to_dict
from ..obs.report import RunRecorder
from ..obs.trace import TRACER
from ..sim.crosscheck import crosscheck_loop
from ..sim.memory import MemoryModel, RandomMissMemory
from .cache import ResultCache
from .scenario import GridItem, PointResult, ScenarioPoint

#: Scheduler factory signature: config -> scheduler.
SchedulerFactory = Callable[[MachineConfig], SchedulerBase]

#: ``prior_for`` hook signature: point -> its schedule-only twin's
#: schedule (fallback flag included), or None.
PriorFor = Callable[[ScenarioPoint], ScheduledLoopResult | None]

#: Registered schedulers, by the names used in scenario points,
#: experiment grids and ablation studies.  ``exact`` is the branch-and-bound
#: optimality oracle of :mod:`repro.core.exact`.
SCHEDULERS: dict[str, SchedulerFactory] = {
    "bsa": lambda cfg: BsaScheduler(cfg),
    "two-phase": lambda cfg: TwoPhaseScheduler(cfg),
    "bsa-topo": lambda cfg: BsaScheduler(cfg, order="topo"),
    "bsa-least-loaded": lambda cfg: BsaScheduler(
        cfg, default_cluster_policy="least-loaded"
    ),
    "exact": lambda cfg: ExactScheduler(cfg),
}


def make_scheduler(name: str, config: MachineConfig) -> SchedulerBase:
    """Instantiate a registered scheduler.

    Unified machines dispatch every *heuristic* name to the SMS scheduler
    (the paper's baseline has exactly one modulo scheduler); ``exact`` is
    honoured on any machine — its whole point is to be an oracle for the
    others, the unified baseline included.

    Raises
    ------
    KeyError
        If *name* is not in :data:`SCHEDULERS` (and the machine is
        clustered; the unified machine ignores heuristic names).
    """
    if config.n_clusters == 1 and name != "exact":
        return UnifiedScheduler(config)
    return SCHEDULERS[name](config)


def scheduler_table() -> list[dict]:
    """The scheduler registry as table rows (feeds ``schedule --list``)."""
    from ..arch.configs import two_cluster_config

    probe = two_cluster_config()
    rows = []
    for name in sorted(SCHEDULERS):
        cls = type(SCHEDULERS[name](probe))
        doc = (cls.__doc__ or "").strip().splitlines()
        rows.append(
            {
                "scheduler": name,
                "class": cls.__name__,
                "description": doc[0] if doc else "",
            }
        )
    return rows


def sequential_fallback(
    graph: DependenceGraph, config: MachineConfig
) -> ScheduledLoopResult:
    """A non-pipelined stand-in schedule for loops that defeat the
    modulo schedulers: classic list scheduling of one iteration, II =
    schedule length, SC = 1 — what a compiler emits when it skips
    software pipelining.  Deterministic, and flagged ``fallback``."""
    sched = list_schedule(graph, config)
    return ScheduledLoopResult(sched, 1, UnrollPolicy.NONE, fallback=True)


# ---------------------------------------------------------------------------
# Point execution
# ---------------------------------------------------------------------------
def execute_point(
    point: ScenarioPoint,
    loop: Loop,
    *,
    prior: ScheduledLoopResult | None = None,
    memo: ScheduleMemo | None = None,
) -> PointResult:
    """Run one scenario point to completion.

    Parameters
    ----------
    point:
        The work unit; its machine JSON is reconstructed here.
    loop:
        The live loop whose graph matches ``point.graph_hash``.
    prior:
        An already-computed schedule for the schedule-only twin of this
        point (cache cross-pollination), fallback flag included; skips
        rescheduling when given.
    memo:
        The :class:`~repro.core.selective.ScheduleMemo` of this point's
        family, shared with its other policy points (see
        :func:`execute_points`).

    Returns
    -------
    PointResult
        The serialisable outcome, including the simulator comparison
        when ``point.simulate`` is set.

    Raises
    ------
    SimulationError
        When the simulator rejects the schedule; the message starts with
        :meth:`ScenarioPoint.describe`, since it reaches the caller of a
        whole grid.
    """
    config = point.config()
    result = prior
    if result is None:
        scheduler = make_scheduler(point.scheduler, config)
        try:
            result = schedule_with_policy(
                loop.graph,
                scheduler,
                point.unroll_policy,
                rule=point.selective_rule,
                memo=memo,
            )
        except SchedulingError:
            result = sequential_fallback(loop.graph, config)

    sim = None
    if point.simulate:
        memory: MemoryModel | None = None
        if point.miss_rate > 0.0:
            memory = RandomMissMemory(
                point.miss_rate, point.miss_penalty, point.seed
            )
        sim_loop = Loop(
            graph=loop.graph, trip_count=point.niter, times_executed=1
        )
        try:
            sim = crosscheck_loop(sim_loop, result, memory=memory)
        except SimulationError as exc:  # a wrong schedule slipped through
            raise SimulationError(f"{point.describe()}: {exc}") from exc
    return PointResult.from_loop_result(result, sim=sim)


def store_result(
    cache: ResultCache, point: ScenarioPoint, result: PointResult
) -> None:
    """Persist a point result, cross-pollinating simulated points.

    A simulated point's result embeds the full schedule, so its
    schedule-only twin is written too (unless already present): a
    crossval sweep warms the cache for Figure 8 and vice versa.
    """
    cache.put(point, result)
    if result.sim is not None:
        twin = point.without_simulation()
        if twin not in cache:
            cache.put(twin, replace(result, sim=None))


def checked_result(
    payload: dict[str, Any], point: ScenarioPoint, loop: Loop
) -> PointResult:
    """Decode a result that crossed a process boundary and check it.

    The payload is decoded against *point*'s own graph and machine
    (:meth:`PointResult.from_dict`), then a modulo schedule must pass
    :func:`~repro.core.verify.verify_schedule`.  A list schedule need
    not fit the register file, so a result flagged ``fallback`` is
    checked by executing the point here: it must fall back too, to the
    same II, placements and transfers.  ``exact`` is taken at its word
    that it fell back, since whether its search times out depends on the
    host; its payload must still be the point's deterministic
    :func:`sequential_fallback`.  A pool worker's return or a fabric
    worker's post is believed only once it passes.

    Raises
    ------
    PAYLOAD_ERRORS
        When the payload does not decode, or its schedule fails the
        check (:class:`~repro.errors.VerificationError`).
    """
    result = PointResult.from_dict(payload, point, loop)
    got = result.loop_result().schedule
    if not result.fallback:
        verify_schedule(got)
        return result
    if point.scheduler == "exact":
        rerun = sequential_fallback(loop.graph, point.config())
    else:
        rerun = execute_point(point.without_simulation(), loop).loop_result()
    if not rerun.fallback:
        raise VerificationError(
            f"{point.describe()}: not the point's list-schedule fallback: "
            "flagged fallback, but the point schedules"
        )
    want = rerun.schedule
    if (got.ii, got.ops, got.comms) != (want.ii, want.ops, want.comms):
        raise VerificationError(
            f"{point.describe()}: not the point's list-schedule fallback"
        )
    return result


def _execute_and_store(
    point: ScenarioPoint,
    loop: Loop,
    cache: ResultCache | None,
    prior: ScheduledLoopResult | None = None,
    memo: ScheduleMemo | None = None,
) -> tuple[PointResult, dict[str, Any]]:
    """Execute one point, persist it, and time it.

    The one per-point step of the in-process path and of every pool or
    fabric worker (:func:`_run_batch`).  Returns the result and its
    ``{"wall_s": ...}`` meta (the execution time, excluding the cache
    write).
    """
    t0 = perf_counter()
    with TRACER.span("runner.execute_point", point=point.describe()):
        result = execute_point(point, loop, prior=prior, memo=memo)
    meta: dict[str, Any] = {"wall_s": perf_counter() - t0}
    if cache is not None:
        store_result(cache, point, result)
    return result, meta


def _family(point: ScenarioPoint) -> tuple[str, str, str]:
    """The family of *point*: its ``(graph_hash, machine, scheduler)``.

    The points of one family differ only in unrolling policy (or rule,
    or simulation), so one :class:`~repro.core.selective.ScheduleMemo`
    serves them all.
    """
    return point.graph_hash, point.machine, point.scheduler


def _families(points: list[ScenarioPoint]) -> list[list[int]]:
    """Indices of *points* grouped by :func:`_family`, in order of first
    appearance.  Indices ascend within a family."""
    families: dict[tuple[str, str, str], list[int]] = {}
    for i, point in enumerate(points):
        families.setdefault(_family(point), []).append(i)
    return list(families.values())


# ---------------------------------------------------------------------------
# Worker plumbing (must stay module-level: pickled across processes)
# ---------------------------------------------------------------------------
def work_item(
    point: ScenarioPoint, loop: Loop, prior_for: PriorFor | None = None
) -> dict[str, Any]:
    """Encode one miss as a :func:`_run_batch` work item.

    The item is ``{"point": <canonical dict>, "loop": <loop_to_dict>,
    "prior": <PointResult.to_dict() | None>}``; *prior* carries the
    schedule-only twin's result from *prior_for* so the worker skips
    rescheduling.  Pool shards and fabric leases ship the same schema.
    """
    prior = prior_for(point) if prior_for is not None else None
    return {
        "point": json.loads(point.canonical()),
        "loop": loop_to_dict(loop),
        "prior": (
            PointResult.from_loop_result(prior).to_dict() if prior is not None else None
        ),
    }


#: ``graph_hash -> (loop document, decoded loop)``: the loops a worker
#: has decoded (see :func:`_run_batch`).
LoopMap = dict[str, tuple[dict[str, Any], Loop]]


def _run_batch(
    batch: list[dict[str, Any]],
    cache_root: str | None,
    code_version: str | None,
    trace_carrier: dict[str, str] | None = None,
    memos: dict[tuple[str, str, str], ScheduleMemo] | None = None,
    loops: LoopMap | None = None,
) -> list[tuple[str, dict[str, Any], dict[str, Any]]]:
    """Execute one shard of :func:`work_item` items in a worker process.

    Items run one family at a time (see :func:`_families`), each family
    sharing one :class:`~repro.core.selective.ScheduleMemo`: fresh, or
    the one *memos* holds for the family (a fabric worker runs a lease
    one point per call and passes one *memos* for the whole lease).
    Each loop is decoded once per *loops* map: the batch's own, or the
    one a fabric worker keeps for a sweep.  A kept loop is reused only
    when its document is ``==`` the item's; reuse shares the graph
    object, and with it every memo derived from it (SCCs, recurrence
    sets, SMS order, RecMII, per-II timings, unrolled graphs).
    Results are written to the shared cache *as each point completes*
    (atomic, content-keyed), so a sweep killed mid-shard still resumes
    from every finished point.  Returns ``(canonical_key,
    result_payload, meta)`` triples in *batch* order; *meta* always
    carries the point's wall time, plus its finished spans when tracing
    is enabled (spawn workers inherit ``$REPRO_VLIW_TRACE``) —
    *trace_carrier* links those spans to the submitting trace.
    """
    cache = (
        ResultCache(cache_root, code_version=code_version)
        if cache_root is not None
        else None
    )
    points = [ScenarioPoint(**item["point"]) for item in batch]
    out: list[Any] = [None] * len(batch)
    memos = {} if memos is None else memos
    loops = {} if loops is None else loops
    with TRACER.adopt(trace_carrier):
        for family in _families(points):
            first, doc = points[family[0]], batch[family[0]]["loop"]
            kept = loops.get(first.graph_hash)
            if kept is None or kept[0] != doc:
                kept = loops[first.graph_hash] = doc, loop_from_dict(doc)
            loop = kept[1]
            memo = memos.setdefault(_family(first), ScheduleMemo())
            for i in family:
                point, item = points[i], batch[i]
                prior = item.get("prior")
                if prior is not None:
                    # The twin shares the point's graph hash and machine.
                    prior = PointResult.from_dict(prior, point, loop).loop_result()
                result, meta = _execute_and_store(point, loop, cache, prior, memo)
                if TRACER.enabled:
                    meta["spans"] = [span.to_dict() for span in TRACER.drain()]
                out[i] = (point.canonical(), result.to_dict(), meta)
    return out


def _shard(
    misses: list[tuple[str, GridItem]], jobs: int
) -> list[list[tuple[str, GridItem]]]:
    """Split cache misses into *jobs* deterministic shards of whole families.

    Families (see :func:`_families`) are ordered by their smallest
    canonical key and dealt round-robin, so the partition depends only
    on the grid contents — never on timing or dict order — shard loads
    stay balanced, and a family's points share their schedules in one
    worker.  When every family is a single point this is a round-robin
    over the sorted keys.
    """
    families = _families([point for _key, (point, _loop) in misses])
    families.sort(key=lambda family: min(misses[i][0] for i in family))
    shards: list[list[tuple[str, GridItem]]] = [[] for _ in range(jobs)]
    for n, family in enumerate(families):
        shards[n % jobs].extend(misses[i] for i in family)
    return [s for s in shards if s]


# ---------------------------------------------------------------------------
# The default executor (the run_sweep `execute` hook)
# ---------------------------------------------------------------------------
def make_worker_pool(workers: int) -> ProcessPoolExecutor:
    """A spawn-context process pool suitable for :func:`execute_points`.

    Spawn (not fork) keeps workers identical across platforms and free
    of inherited locks; long-lived callers (:mod:`repro.service`) create
    one of these once and bind it into their executor.
    """
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=get_context("spawn")
    )


def execute_points(
    misses: list[tuple[str, GridItem]],
    *,
    jobs: int = 1,
    pool: Executor | None = None,
    cache: ResultCache | None = None,
    prior_for: PriorFor | None = None,
    meta_out: dict[str, dict[str, Any]] | None = None,
) -> dict[str, PointResult]:
    """Execute already-deduplicated cache misses and return their results.

    The default ``execute`` hook of :func:`run_sweep`, which owns cache
    probing and stats.  Three execution strategies:

    * ``pool`` given — shard across the **injected** executor; the pool
      is *not* shut down, so a long-lived caller (bind it with
      ``functools.partial(execute_points, pool=...)``) reuses warm
      workers;
    * ``pool is None`` and ``jobs > 1`` — shard across an ephemeral
      spawn-context :class:`ProcessPoolExecutor` (the one-shot CLI path);
    * otherwise — execute serially in-process.

    Either way the points of one family (see :func:`_families`) run
    together and share one :class:`~repro.core.selective.ScheduleMemo`,
    dropped when the family is done.  A pooled result is decoded against
    its own ``(point, loop)`` and verified on return
    (:func:`checked_result`); one that fails raises.

    Parameters
    ----------
    misses:
        ``(canonical_key, (point, loop))`` pairs; callers pass distinct
        keys (duplicates would just be executed twice).
    jobs:
        Shard count.  With an injected *pool* this is the batch's
        parallel width (shards beyond the pool's workers simply queue).
    cache:
        When given, every result is persisted as it completes — in the
        worker for pooled execution, inline for serial execution — so an
        interrupted batch still resumes from every finished point.
    prior_for:
        Optional hook returning the schedule of a simulated point's
        schedule-only twin, or ``None`` (see :func:`run_sweep`).
    meta_out:
        When given, filled with ``canonical_key -> {"wall_s": ...}``
        execution metadata (observability only — never part of the
        result payload or the cache).

    Returns
    -------
    dict
        ``canonical_key -> PointResult`` for every miss, in *misses*
        order (and *meta_out* filled in that order).  Deterministic in
        content (scheduling is deterministic per point) regardless of
        strategy.

    Raises
    ------
    PAYLOAD_ERRORS
        When a pool worker returns a result that does not decode or
        fails verification (the worker has already stored it).
    """
    results: dict[str, PointResult] = {}
    if not misses:
        return results
    if meta_out is None:
        meta_out = {}

    done: dict[str, tuple[PointResult, dict[str, Any]]] = {}
    if pool is None and jobs <= 1:
        for family in _families([point for _key, (point, _loop) in misses]):
            memo = ScheduleMemo()
            for i in family:
                key, (point, loop) = misses[i]
                prior = prior_for(point) if prior_for is not None else None
                done[key] = _execute_and_store(point, loop, cache, prior, memo)
    else:
        shards = _shard(misses, max(1, jobs))
        payloads = [
            [work_item(point, loop, prior_for) for _key, (point, loop) in shard]
            for shard in shards
        ]
        cache_root = str(cache.root) if cache is not None else None
        code_version = cache.code_version if cache is not None else None
        owned = make_worker_pool(len(shards)) if pool is None else nullcontext(pool)
        carrier = TRACER.carrier()
        items = dict(misses)
        with owned as executor:
            futures = [
                executor.submit(_run_batch, batch, cache_root, code_version, carrier)
                for batch in payloads
            ]
            for future in futures:
                for key, payload, meta in future.result():
                    for span in meta.pop("spans", []):
                        TRACER.record(span)
                    done[key] = checked_result(payload, *items[key]), meta
    for key, _item in misses:
        results[key], meta_out[key] = done[key]
    return results


# ---------------------------------------------------------------------------
# The sweep driver
# ---------------------------------------------------------------------------
@dataclass
class SweepStats:
    """Accounting for one :func:`run_sweep` call."""

    #: Distinct scenario points in the grid (duplicates collapse).
    total: int = 0
    #: Points served from the on-disk cache.
    cached: int = 0
    #: Points actually scheduled/simulated this run.
    executed: int = 0
    #: Executed points that required the list-schedule fallback.
    fallbacks: int = 0
    #: Worker processes used (1 = in-process serial execution).
    jobs: int = 1

    def merge(self, other: "SweepStats") -> None:
        """Accumulate another run's counters into this one."""
        self.total += other.total
        self.cached += other.cached
        self.executed += other.executed
        self.fallbacks += other.fallbacks
        self.jobs = max(self.jobs, other.jobs)

    def render(self) -> str:
        """One-line summary for CLI output."""
        return (
            f"{self.total} point(s): {self.cached} from cache, "
            f"{self.executed} executed ({self.fallbacks} fallback(s)), "
            f"jobs={self.jobs}"
        )


def run_sweep(
    items: list[GridItem],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    fresh: bool = False,
    prior_lookup: Callable[[str], ScheduledLoopResult | None] | None = None,
    recorder: RunRecorder | None = None,
    execute: Callable[..., dict[str, PointResult]] | None = None,
) -> tuple[dict[str, PointResult], SweepStats]:
    """Resolve a grid of scenario points through the cache.

    The one path from a scenario point to a result: every front end —
    the experiment context, the scheduling service, the fabric — probes
    the cache, runs misses and stores results only through here.

    Parameters
    ----------
    items:
        The declared grid; duplicate points (same canonical identity)
        are executed once.
    jobs:
        Worker processes for the default executor.  ``1`` executes
        in-process (no pool, easier debugging, identical results).
    cache:
        Shared on-disk cache; ``None`` disables persistence.  The entries
        one call serves are decoded as they are probed, against their
        grid item's loop and machine.
    fresh:
        Ignore cached entries (results are still written back).
    prior_lookup:
        Optional hook called with the canonical key of a simulated
        point's schedule-only twin (see
        :meth:`ScenarioPoint.without_simulation`), returning its
        schedule (fallback flag included), or ``None`` when unknown;
        lets simulated sweeps reuse schedules the caller already holds
        in memory.
    recorder:
        Optional :class:`~repro.obs.report.RunRecorder`; when given, one
        :class:`~repro.obs.report.PointRecord` is recorded per distinct
        point (source ``disk`` or ``executed``, with executed wall
        times).  Recording is out-of-band: results, stats and cache
        contents are identical with or without it.
    execute:
        Where misses run: called as ``execute(misses, jobs=, cache=,
        prior_for=, meta_out=)`` and returning ``canonical_key ->
        PointResult`` for each point it executed (and stored), filling
        *meta_out* for each.  Defaults to :func:`execute_points`
        (in-process or an ephemeral pool); bind a long-lived pool with
        ``functools.partial(execute_points, pool=...)``, or pass the
        fabric coordinator's ``execute`` to farm misses out to
        pull-based workers.  Cache probing, dedupe, stats and recording
        stay here, so swapping the executor cannot change what a sweep
        returns — only where the work ran.

    Returns
    -------
    (results, stats):
        *results* maps ``point.canonical()`` to :class:`PointResult`;
        *stats* says how much work was actually done — ``stats.executed
        == 0`` means the whole grid was served from cache.
    """
    unique: dict[str, GridItem] = {}
    for point, loop in items:
        unique.setdefault(point.canonical(), (point, loop))

    results: dict[str, PointResult] = {}
    stats = SweepStats(total=len(unique), jobs=max(1, jobs))

    ctx = TRACER.current_context()
    trace_id = ctx.trace_id if ctx is not None else None

    misses: list[tuple[str, GridItem]] = []
    for key, (point, loop) in unique.items():
        cached = cache.get(point, loop) if (cache is not None and not fresh) else None
        if cached is not None:
            results[key] = cached
            stats.cached += 1
            if recorder is not None:
                recorder.record(
                    point, cached.loop_result(), source="disk", trace_id=trace_id
                )
        else:
            misses.append((key, (point, loop)))

    if not misses:
        return results, stats

    def _prior_for(point: ScenarioPoint) -> ScheduledLoopResult | None:
        """Schedule reuse for simulated points: memory first, then disk."""
        if not point.simulate:
            return None
        twin = point.without_simulation()
        if prior_lookup is not None:
            known = prior_lookup(twin.canonical())
            if known is not None:
                return known
        if cache is not None and not fresh:
            cached_twin = cache.get(twin, unique[point.canonical()][1])
            if cached_twin is not None:
                return cached_twin.loop_result()
        return None

    meta_out: dict[str, dict[str, Any]] = {}
    runner = execute if execute is not None else execute_points
    executed = runner(
        misses,
        jobs=jobs,
        cache=cache,
        prior_for=_prior_for,
        meta_out=meta_out,
    )
    for key, result in executed.items():
        results[key] = result
        stats.executed += 1
        stats.fallbacks += int(result.fallback)
        if recorder is not None:
            recorder.record(
                unique[key][0],
                result.loop_result(),
                source="executed",
                wall_s=meta_out.get(key, {}).get("wall_s", 0.0),
                trace_id=trace_id,
            )
    return results, stats
