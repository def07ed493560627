"""Shared experiment harness — a thin layer over :mod:`repro.runner`.

Runs (program suite) x (machine configuration) x (scheduler) x (unrolling
policy) grids.  Each data point is a hashable
:class:`~repro.runner.scenario.ScenarioPoint`; the context memoises the
materialised results in-process (so the many figures that share scenario
points never schedule the same loop twice in one process) and resolves
every memo miss through :func:`repro.runner.engine.run_sweep` — which,
given a :class:`~repro.runner.cache.ResultCache`, serves and persists
every point on disk so repeated figures — and interrupted sweeps — skip
scheduling entirely.

Whole grids go through :meth:`ExperimentContext.run_grid`, which shards
cache misses across worker processes (``jobs``) deterministically; the
figure harnesses declare their grids up front and then reduce from the
warm memo.  The point-at-a-time API is a memo lookup in front of a
one-point :meth:`~ExperimentContext.run_grid`.

Fallback: a loop that cannot be modulo-scheduled under a configuration
(e.g. register-pressure-impossible with no spill code) is charged a
classic *list schedule* of one iteration (II = schedule length, SC = 1) —
what a compiler emits when it skips software pipelining.  Fallbacks are
counted and reported; on the shipped workloads none trigger, but they keep
custom workloads from aborting a whole experiment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

from ..arch.cluster import MachineConfig
from ..arch.configs import clustered_config, unified_config
from ..core.selective import (
    ScheduledLoopResult,
    SelectiveRule,
    UnrollPolicy,
)
from ..ir.loop import Loop, Program
from ..obs.report import RunRecorder
from ..perf.model import ProgramPerformance, program_performance
from ..runner.cache import ResultCache
from ..runner.engine import (  # re-exported for backwards compatibility
    SCHEDULERS,
    SchedulerFactory,
    SweepStats,
    make_scheduler,
    run_sweep,
    sequential_fallback,
)
from ..runner.scenario import (
    GridItem,
    PointResult,
    ScenarioPoint,
    program_payload,
    scenario_for,
)
from ..sim.crosscheck import CrossCheck
from ..workloads.specfp import specfp95_suite

__all__ = [
    "SCHEDULERS",
    "SchedulerFactory",
    "ExperimentContext",
    "config_label",
    "geometric_mean",
    "make_scheduler",
    "paper_machine",
    "program_grid",
    "sequential_fallback",
    "suite_grid",
]


def config_label(config: MachineConfig) -> str:
    """Stable display label for a machine configuration."""
    if not config.is_clustered:
        return config.name
    return f"{config.name}/b{config.buses.count}/l{config.buses.latency}"


def suite_grid(
    suite: list[Program],
    config: MachineConfig,
    scheduler: str,
    policy: UnrollPolicy,
    rule: SelectiveRule = SelectiveRule.MII_UNROLLED,
    *,
    simulate: bool = False,
) -> list[GridItem]:
    """Scenario points for every eligible loop of *suite* on one machine.

    The building block of every figure grid: figures compose a few
    ``suite_grid`` calls (one per machine/policy scenario) instead of
    hand-rolling nested loops.
    """
    return [
        (scenario_for(loop, config, scheduler, policy, rule, simulate=simulate), loop)
        for program in suite
        for loop in program.eligible_loops()
    ]


def program_grid(
    loop: Loop,
    configs: list[MachineConfig],
    schedulers: tuple[str, ...] = ("bsa",),
    policies: tuple[UnrollPolicy, ...] = (UnrollPolicy.NONE,),
    rule: SelectiveRule = SelectiveRule.MII_UNROLLED,
    *,
    simulate: bool = False,
) -> list[GridItem]:
    """Scenario grid for one *user-supplied* loop over machines/algorithms.

    The front-door twin of :func:`suite_grid`: every point embeds the
    loop's full payload (:func:`repro.runner.scenario.program_payload`),
    so the grid sweeps, caches and distributes over the fabric exactly
    like a catalogue grid even though the loop exists in no registry.
    """
    payload = program_payload(loop)
    return [
        (
            scenario_for(
                loop,
                config,
                scheduler,
                policy,
                rule,
                simulate=simulate,
                program=payload,
            ),
            loop,
        )
        for config in configs
        for scheduler in schedulers
        for policy in policies
    ]


@dataclass
class ExperimentContext:
    """Scenario runner with memoisation, caching and fallback accounting.

    Attributes
    ----------
    suite:
        The programs under evaluation (default: the SPECfp95-like suite).
    cache:
        Optional shared on-disk :class:`ResultCache`; when set, every
        computed point is persisted and future contexts (or processes)
        reuse it.
    jobs:
        Default worker-process count for :meth:`run_grid`.
    fresh:
        When true, never *read* the on-disk cache (results are still
        written back) — the ``--fresh`` CLI semantic.
    executor:
        Where misses run: passed to ``run_sweep`` as its ``execute``
        hook (default :func:`repro.runner.engine.execute_points`).  The
        scheduling service binds its shared worker pool here so grid
        jobs reuse warm workers, and the distributed fabric injects its
        coordinator's ``execute`` so a ``sweep --distributed`` grid job
        runs on pull-based workers, while memoisation, caching and
        reducers stay unchanged.
    memo:
        In-process map from scenario identity to the materialised
        :class:`ScheduledLoopResult` (stable object identity per point).
    sim_memo:
        Same for simulated points, holding :class:`CrossCheck` records.
    fallbacks:
        Every scenario point that needed the list-schedule fallback.
    stats:
        Accumulated :class:`SweepStats` over all work this context ran.
    recorder:
        Optional :class:`~repro.obs.report.RunRecorder`; when set,
        :meth:`run_grid` records one point record per grid point
        (including in-process memo hits, as source ``memo``) for the
        ``--report-out`` run report.  Purely observational.
    """

    suite: list[Program] = field(default_factory=specfp95_suite)
    cache: ResultCache | None = None
    jobs: int = 1
    fresh: bool = False
    executor: Callable[..., dict[str, PointResult]] | None = None
    memo: dict[str, ScheduledLoopResult] = field(default_factory=dict)
    sim_memo: dict[str, CrossCheck] = field(default_factory=dict)
    fallbacks: list[ScenarioPoint] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)
    recorder: RunRecorder | None = None
    #: Canonical keys of the points in :attr:`fallbacks` (fast lookup).
    _fallback_keys: set[str] = field(default_factory=set)

    # ------------------------------------------------------------------
    # Point-at-a-time API (reducers)
    # ------------------------------------------------------------------
    def schedule_loop(
        self,
        loop: Loop,
        config: MachineConfig,
        scheduler_name: str,
        policy: UnrollPolicy,
        rule: SelectiveRule = SelectiveRule.MII_UNROLLED,
    ) -> ScheduledLoopResult:
        """Schedule one loop under one scenario (memo, else run_grid)."""
        point = scenario_for(loop, config, scheduler_name, policy, rule)
        return self._resolve(point, loop, self.memo)

    def crosscheck_loop(
        self,
        loop: Loop,
        config: MachineConfig,
        scheduler_name: str,
        policy: UnrollPolicy,
        rule: SelectiveRule = SelectiveRule.MII_UNROLLED,
    ) -> CrossCheck:
        """Schedule *and simulate* one loop, diffed against the model.

        Reuses an in-memory or cached schedule for the scenario when one
        exists (the simulation itself is what is being added).
        """
        point = scenario_for(
            loop, config, scheduler_name, policy, rule, simulate=True
        )
        return self._resolve(point, loop, self.sim_memo)

    def _resolve(self, point: ScenarioPoint, loop: Loop, memo: dict):
        """*memo*'s entry for *point*, resolved as a one-point grid.

        ``jobs=1``: a worker pool costs more to start than one point.
        """
        key = point.canonical()
        if key not in memo:
            self.run_grid([(point, loop)], jobs=1)
        return memo[key]

    # ------------------------------------------------------------------
    # Grid-at-a-time API (figures declare grids; misses run in parallel)
    # ------------------------------------------------------------------
    def run_grid(
        self, items: list[GridItem], jobs: int | None = None
    ) -> SweepStats:
        """Execute a declared grid, sharding misses over worker processes.

        Points already memoised in this context are skipped; the rest go
        through :func:`repro.runner.engine.run_sweep` (cache first, then
        deterministic parallel execution) and land in the memos, so the
        figure reducers that follow are pure lookups.
        """
        jobs = self.jobs if jobs is None else jobs
        by_key: dict[str, GridItem] = {}
        memo_hits: dict[str, GridItem] = {}
        for point, loop in items:
            memo = self.sim_memo if point.simulate else self.memo
            key = point.canonical()
            if key not in memo:
                by_key.setdefault(key, (point, loop))
            else:
                memo_hits.setdefault(key, (point, loop))
        if self.recorder is not None:
            for key, (point, _loop) in memo_hits.items():
                if point.simulate:
                    continue  # the schedule-only twin is what the memo holds
                self.recorder.record(
                    point,
                    PointResult.from_loop_result(
                        self.memo[key], fallback=key in self._fallback_keys
                    ),
                    source="memo",
                )
        pending = list(by_key.values())
        results, stats = run_sweep(
            pending,
            jobs=jobs,
            cache=self.cache,
            fresh=self.fresh,
            prior_lookup=self._known_schedule,
            recorder=self.recorder,
            execute=self.executor,
        )
        for key, result in results.items():
            point, _loop = by_key[key]
            if point.simulate:
                self._absorb_sim(point, result)
            else:
                self._absorb_schedule(point, result)
        self.stats.merge(stats)
        return stats

    # ------------------------------------------------------------------
    def _known_schedule(
        self, point: ScenarioPoint
    ) -> tuple[ScheduledLoopResult, bool] | None:
        """The memoised schedule (and its fallback flag) for a point."""
        key = point.canonical()
        known = self.memo.get(key)
        if known is None:
            return None
        return known, key in self._fallback_keys

    def _absorb_schedule(self, point: ScenarioPoint, result: PointResult) -> None:
        """Install a point result into the memo (once) with accounting."""
        key = point.canonical()
        if key in self.memo:
            return
        self.memo[key] = result.loop_result()
        if result.fallback:
            self.fallbacks.append(point)
            self._fallback_keys.add(key)

    def _absorb_sim(self, point: ScenarioPoint, result: PointResult) -> None:
        """Install a simulated point: CrossCheck plus the embedded schedule."""
        key = point.canonical()
        if key in self.sim_memo:
            return
        sim = result.sim
        if sim is None:  # pragma: no cover - defensive: malformed payload
            raise ValueError(f"point {point.describe()} has no sim outcome")
        self.sim_memo[key] = CrossCheck(
            loop_name=point.loop,
            config_name=json.loads(point.machine)["name"],
            analytic_cycles=sim.analytic_cycles,
            simulated_cycles=sim.simulated_cycles,
            analytic_ipc=sim.analytic_ipc,
            simulated_ipc=sim.simulated_ipc,
        )
        # The schedule rode along: warm the schedule memo for the twin.
        self._absorb_schedule(point.without_simulation(), result)

    # ------------------------------------------------------------------
    # Aggregations (unchanged public API)
    # ------------------------------------------------------------------
    def program_ipc(
        self,
        program: Program,
        config: MachineConfig,
        scheduler_name: str,
        policy: UnrollPolicy,
        rule: SelectiveRule = SelectiveRule.MII_UNROLLED,
    ) -> ProgramPerformance:
        """IPC of one program: every eligible loop scheduled and modelled."""
        results = {
            loop.name: self.schedule_loop(loop, config, scheduler_name, policy, rule)
            for loop in program.eligible_loops()
        }
        return program_performance(program, results)

    def suite_ipc(
        self,
        config: MachineConfig,
        scheduler_name: str,
        policy: UnrollPolicy,
        rule: SelectiveRule = SelectiveRule.MII_UNROLLED,
    ) -> dict[str, ProgramPerformance]:
        """Per-program performance over the whole suite."""
        return {
            program.name: self.program_ipc(
                program, config, scheduler_name, policy, rule
            )
            for program in self.suite
        }

    def average_relative_ipc(
        self,
        config: MachineConfig,
        scheduler_name: str,
        policy: UnrollPolicy,
        rule: SelectiveRule = SelectiveRule.MII_UNROLLED,
    ) -> float:
        """Mean over programs of IPC(clustered)/IPC(unified) (Figures 4, 8)."""
        unified = unified_config()
        ratios = []
        for program in self.suite:
            clustered_perf = self.program_ipc(
                program, config, scheduler_name, policy, rule
            )
            unified_perf = self.program_ipc(
                program, unified, "bsa", UnrollPolicy.NONE
            )
            ratios.append(clustered_perf.ipc / unified_perf.ipc)
        return sum(ratios) / len(ratios)


def geometric_mean(values: list[float]) -> float:
    """Geometric mean (the fair average of ratios); 0.0 for empty input."""
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def paper_machine(n_clusters: int, n_buses: int, latency: int) -> MachineConfig:
    """Shorthand for the paper's clustered machines with a chosen fabric."""
    return clustered_config(n_clusters, n_buses, latency)
