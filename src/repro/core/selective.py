"""Loop unrolling policies, including the paper's selective algorithm (Fig. 6).

``UnrollPolicy`` names the three evaluation scenarios of Section 6.2:

* ``NONE`` — schedule the loop as written;
* ``ALL`` — unroll every loop by the cluster count before scheduling;
* ``SELECTIVE`` — the paper's Figure 6: schedule first; only if the result
  is *bus limited* estimate whether the unrolled loop's communications fit
  in the available bus bandwidth, and re-schedule the unrolled graph when
  they do.

The bandwidth estimate: unrolling by U = n_clusters and placing one
iteration per cluster leaves ``NDepsNotMult(G) * U`` communications per
unrolled kernel iteration (loop-carried value deps whose distance is not a
multiple of U), costing ``cycneeded = ceil(comneeded / nbuses) * latbus``
bus cycles.  The paper's pseudo-code compares that against ``II(sched)``
(the non-unrolled II) while the prose asks that it "does not increase the
initiation interval of the unrolled loop"; :class:`SelectiveRule` offers
both readings (``MII_UNROLLED`` — the prose, our default — and
``LITERAL``), and an ablation benchmark quantifies the gap.

Between them the three policies need at most two schedules of a loop on
a machine: the loop as written and the loop unrolled by the cluster
count (:func:`~repro.ir.unroll.unrolled`, built once per loop).  A
:class:`ScheduleMemo` shared by one loop's policy points builds each
schedule once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ..arch.cluster import MachineConfig
from ..errors import SchedulingError
from ..ir.ddg import DependenceGraph
from ..ir.unroll import count_cross_copy_deps, unrolled
from .base import SchedulerBase
from .mii import mii as compute_mii
from .schedule import ModuloSchedule


class UnrollPolicy(enum.Enum):
    """The three scenarios of the paper's Figure 8.

    The ``value`` strings are stable identifiers: they appear in
    scenario points, cache keys and rendered tables.
    """

    #: Schedule the loop exactly as written.
    NONE = "no-unrolling"
    #: Unroll every loop by the cluster count before scheduling.
    ALL = "unroll-all"
    #: The paper's Figure 6: unroll only bus-limited loops whose
    #: unrolled communications fit the bus bandwidth.
    SELECTIVE = "selective-unrolling"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class SelectiveRule(enum.Enum):
    """Which threshold the Figure 6 test compares ``cycneeded`` against."""

    #: the prose reading: fits iff cycneeded <= MII of the unrolled graph
    MII_UNROLLED = "mii-unrolled"
    #: the pseudo-code reading: fits iff cycneeded < II of the original schedule
    LITERAL = "literal"


@dataclass
class ScheduledLoopResult:
    """A schedule together with how the loop was transformed to get it."""

    schedule: ModuloSchedule
    unroll_factor: int
    policy: UnrollPolicy
    #: The original (non-unrolled) schedule, when one was produced.
    base_schedule: ModuloSchedule | None = None
    #: True when modulo scheduling failed and *schedule* is the
    #: non-pipelined list-schedule fallback.
    fallback: bool = False

    @property
    def ii(self) -> int:
        """Initiation interval of the emitted schedule (unrolled body)."""
        return self.schedule.ii

    @property
    def stage_count(self) -> int:
        """SC of the emitted schedule (prologue/epilogue depth)."""
        return self.schedule.stage_count

    @property
    def ii_per_original_iteration(self) -> float:
        """II divided by the unroll factor — cycles per *source* iteration."""
        return self.schedule.ii / self.unroll_factor


class ScheduleMemo:
    """The schedules of one loop on one machine, keyed by unroll factor.

    Shared by the points that differ only in unrolling policy (a
    *family*: same graph, machine and scheduler).  Schedulers are
    deterministic, so each factor is scheduled once: the memo maps it to
    its :class:`ModuloSchedule`, or to the :class:`SchedulingError` it
    raised, which is re-raised on reuse so every policy falls back
    exactly as it would alone.  The caller must not share one memo
    between different graphs, machines or schedulers.
    """

    def __init__(self) -> None:
        self._outcomes: dict[int, ModuloSchedule | SchedulingError] = {}

    def schedule(
        self, scheduler: SchedulerBase, graph: DependenceGraph, factor: int
    ) -> ModuloSchedule:
        """*scheduler*'s schedule of *graph* unrolled by *factor*.

        Raises
        ------
        SchedulingError
            The error this factor raised, on every call.
        """
        outcome = self._outcomes.get(factor)
        if outcome is None:
            try:
                outcome = scheduler.schedule(unrolled(graph, factor))
            except SchedulingError as exc:
                outcome = exc
            self._outcomes[factor] = outcome
        if isinstance(outcome, SchedulingError):
            raise outcome
        return outcome


def selective_unroll_decision(
    graph: DependenceGraph,
    config: MachineConfig,
    schedule: ModuloSchedule,
    rule: SelectiveRule = SelectiveRule.MII_UNROLLED,
) -> bool:
    """The Figure 6 predicate: should this bus-limited loop be unrolled?

    Assumes *schedule* is the non-unrolled schedule and was bus limited.

    Parameters
    ----------
    graph:
        The original (non-unrolled) dependence graph.
    config:
        The clustered machine; unified machines always return ``False``.
    schedule:
        The loop's non-unrolled schedule (supplies II for ``LITERAL``).
    rule:
        Which reading of the paper's test to apply (see
        :class:`SelectiveRule`); ``MII_UNROLLED`` reads the MII of
        *graph* unrolled by the cluster count.

    Returns
    -------
    bool
        True when the estimated post-unroll communication demand fits
        the bus bandwidth, i.e. unrolling is predicted to pay off.
    """
    if not config.is_clustered:
        return False
    ufactor = config.n_clusters
    comneeded = count_cross_copy_deps(graph, ufactor) * ufactor
    cycneeded = math.ceil(comneeded / config.buses.count) * config.buses.latency
    if rule is SelectiveRule.LITERAL:
        return cycneeded < schedule.ii
    return cycneeded <= compute_mii(unrolled(graph, ufactor), config)


def schedule_with_policy(
    graph: DependenceGraph,
    scheduler: SchedulerBase,
    policy: UnrollPolicy,
    *,
    rule: SelectiveRule = SelectiveRule.MII_UNROLLED,
    memo: ScheduleMemo | None = None,
) -> ScheduledLoopResult:
    """Schedule *graph* under an unrolling policy (Figure 6 for SELECTIVE).

    Parameters
    ----------
    graph:
        The loop body to schedule (one source iteration).
    scheduler:
        A bound :class:`~repro.core.base.SchedulerBase`; its machine
        configuration supplies the unroll factor (the cluster count).
    policy:
        Which of the paper's three scenarios to apply.
    rule:
        The :class:`SelectiveRule` used by the SELECTIVE decision test.
    memo:
        The :class:`ScheduleMemo` of this graph, machine and scheduler,
        when other policy points share it; a private one otherwise.

    Returns
    -------
    ScheduledLoopResult
        The emitted schedule, the unroll factor actually applied (1 when
        unrolling was skipped, rejected or failed), and — for ALL and
        SELECTIVE — the non-unrolled base schedule when one was built.

    Raises
    ------
    SchedulingError
        Only when even the non-unrolled loop cannot be scheduled;
        failures of the *unrolled* body fall back to the base schedule
        silently (the paper's compiler keeps the original loop).
    """
    config = scheduler.config
    ufactor = config.n_clusters
    if memo is None:
        memo = ScheduleMemo()

    if policy is UnrollPolicy.NONE or not config.is_clustered:
        return ScheduledLoopResult(memo.schedule(scheduler, graph, 1), 1, policy)

    if policy is UnrollPolicy.ALL:
        # A compiler that cannot schedule the unrolled body (register
        # pressure, no spill code) keeps the original loop.
        try:
            sched = memo.schedule(scheduler, graph, ufactor)
            return ScheduledLoopResult(sched, ufactor, policy)
        except SchedulingError:
            base = memo.schedule(scheduler, graph, 1)
            return ScheduledLoopResult(base, 1, policy, base_schedule=base)

    # SELECTIVE: Figure 6.
    base = memo.schedule(scheduler, graph, 1)
    if not base.was_bus_limited:
        return ScheduledLoopResult(base, 1, policy, base_schedule=base)
    if not selective_unroll_decision(graph, config, base, rule):
        return ScheduledLoopResult(base, 1, policy, base_schedule=base)
    try:
        sched = memo.schedule(scheduler, graph, ufactor)
    except SchedulingError:
        return ScheduledLoopResult(base, 1, policy, base_schedule=base)
    return ScheduledLoopResult(sched, ufactor, policy, base_schedule=base)
