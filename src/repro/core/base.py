"""Scheduler driver: the II search loop shared by all algorithms.

Every modulo scheduler here follows the classic iterative discipline (Rau;
also the paper's Figure 5 step (5)): try II = MII; if any node cannot be
placed, abandon the attempt, increment II and restart from scratch.  The
:class:`SchedulerBase` owns that loop, the failure bookkeeping that feeds
the paper's ``LimitedByBus`` predicate, and a generous II budget that makes
non-termination a loud error instead of a hang.
"""

from __future__ import annotations

import abc

from ..arch.cluster import MachineConfig
from ..errors import SchedulingError
from ..ir.ddg import DependenceGraph
from .engine import PlacementEngine
from .mii import mii as compute_mii
from .schedule import FailureLog, ModuloSchedule


def default_ii_budget(graph: DependenceGraph, config: MachineConfig) -> int:
    """A ceiling on II beyond which something is definitely wrong.

    A fully sequential schedule (one operation per cycle, one communication
    per value) always fits within roughly the total latency plus the total
    communication time, so allow that plus slack.
    """
    total_latency = sum(op.latency for op in graph.operations())
    comm_slack = len(graph) * (config.buses.latency + 1) if config.is_clustered else 0
    return max(16, total_latency + comm_slack + len(graph) + 8)


class SchedulerBase(abc.ABC):
    """Common II-search loop; subclasses place nodes for one fixed II."""

    #: Human-readable algorithm name (reports, experiment tables, and the
    #: scheduler registry key in :data:`repro.runner.engine.SCHEDULERS`).
    name: str = "base"
    #: True when a failed attempt may skip probes that could not change
    #: its placements, so that its :class:`FailureLog` counts a subset of
    #: the failures trying every cluster would log.  The search re-runs
    #: such an attempt through :meth:`_full_log` only where a decision
    #: reads a failure class its log does not show.
    lazy_log: bool = False

    def __init__(self, config: MachineConfig):
        """Bind the scheduler to one (clustered or unified) machine."""
        self.config = config

    def schedule(self, graph: DependenceGraph) -> ModuloSchedule:
        """Modulo-schedule *graph* on this scheduler's machine.

        Runs the classic iterative II search: start at MII, ask the
        subclass to place every node (:meth:`_place_all`), and on any
        failure restart from scratch at II + 1, logging why the attempt
        failed (the bookkeeping behind the paper's ``LimitedByBus``).
        The search gives up above ``MII + default_ii_budget(graph,
        config)``.
        A lazily logged attempt (:attr:`lazy_log`) is re-run with every
        probe only when ``LimitedByBus`` or the register-pressure exit
        reads a failure class its log does not show, so both decide as
        they would on full logs.  The re-runs are not search attempts.

        Returns
        -------
        ModuloSchedule
            A complete, finalised schedule with its attempt-failure log:
            one :class:`FailureLog` per failed attempt, counting the
            failures of the probes that attempt made (all of them for a
            re-run attempt).

        Raises
        ------
        SchedulingError
            Only if the II budget is exhausted or the graph is
            register-pressure bound with no progress (which indicates a
            bug or an impossible machine, not a hard loop) — callers
            such as the experiment harness fall back to list scheduling.
        """
        graph.validate()
        if len(graph) == 0:
            raise SchedulingError(f"graph {graph.name!r} has no operations")
        start_ii = compute_mii(graph, self.config)
        budget = start_ii + default_ii_budget(graph, self.config)
        failures: list[FailureLog] = []
        # Indices of the failed attempts whose log is lazy (see lazy_log).
        lazy: set[int] = set()

        def rerun(i: int) -> FailureLog:
            failures[i] = self._full_log(graph, start_ii + i, start_ii)
            lazy.discard(i)
            return failures[i]

        run: list[int] = []
        last_placed = -1
        for ii in range(start_ii, budget + 1):
            engine = PlacementEngine(graph, self.config, ii, start_ii)
            if self._place_all(engine):
                sched = engine.finalize()
                sched.attempt_failures = failures
                # LimitedByBus reads "some failed attempt had a bus
                # failure", which a lazy log may miss: re-run the lazy
                # attempts, oldest first, until one shows one.
                if self.config.is_clustered:
                    for i in sorted(lazy):
                        if sched.was_bus_limited:
                            break
                        rerun(i)
                return sched
            failures.append(engine.fail)
            if self.lazy_log:
                lazy.add(len(failures) - 1)
            # Register pressure, unlike FU/bus contention, need not relent
            # as II grows (live sets are a property of the graph, not the
            # row count).  When progress stalls with pressure failures
            # present, further II increments are futile — give up early so
            # callers can fall back instead of grinding the whole budget.
            # A lazy log without a pressure failure may hide one, so it
            # extends the run until the run is long enough to matter; then
            # re-run such logs, newest first, and restart the run after
            # the first one that still shows none.
            placed = len(engine.schedule.ops)
            if placed <= last_placed and (
                engine.fail.register_pressure > 0 or self.lazy_log
            ):
                run.append(len(failures) - 1)
                if len(run) >= 8:
                    for pos in reversed(range(len(run))):
                        i = run[pos]
                        if (
                            i in lazy
                            and failures[i].register_pressure == 0
                            and rerun(i).register_pressure == 0
                        ):
                            run = run[pos + 1 :]
                            break
                if len(run) >= 8:
                    raise SchedulingError(
                        f"{self.name}: {graph.name!r} on {self.config.name!r} "
                        f"is register-pressure bound (stuck at {placed}/"
                        f"{len(graph)} ops for {len(run)} II attempts, "
                        f"II reached {ii})",
                        ii_tried=ii,
                    )
            else:
                run = []
            last_placed = max(last_placed, placed)
        raise SchedulingError(
            f"{self.name}: no schedule for {graph.name!r} on {self.config.name!r} "
            f"within II <= {budget}",
            ii_tried=budget,
        )

    def _full_log(self, graph: DependenceGraph, ii: int, mii: int) -> FailureLog:
        """The failure log of the attempt at *ii*, re-run with every probe.

        Only schedulers that set :attr:`lazy_log` are asked.
        """
        raise NotImplementedError

    @abc.abstractmethod
    def _place_all(self, engine: PlacementEngine) -> bool:
        """Place every node at the engine's II; False aborts the attempt."""
