"""Modulo scheduling core: MII, SMS, BSA, two-phase, selective unrolling."""

from .base import SchedulerBase, default_ii_budget
from .bsa import BsaScheduler, join_profit
from .comm import AddReader, CommPlan, NewTransfer
from .engine import FailReason, Placement, PlacementEngine
from .exact import ExactScheduler
from .lifetimes import cluster_pressures, max_pressure
from .list_schedule import list_schedule
from .mii import MiiReport, mii, mii_report, rec_mii, res_mii
from .mrt import ReservationTable
from .pressure import PressureTracker
from .schedule import Communication, FailureLog, ModuloSchedule, ScheduledOp
from .selective import (
    ScheduledLoopResult,
    SelectiveRule,
    UnrollPolicy,
    schedule_with_policy,
    selective_unroll_decision,
)
from .sms import (
    NodeTiming,
    compute_timings,
    ordering_sets,
    recurrence_sets,
    sms_order,
    topological_order,
)
from .twophase import TwoPhaseScheduler, partition_graph
from .unified import UnifiedScheduler
from .verify import verify_schedule

__all__ = [
    "AddReader",
    "BsaScheduler",
    "CommPlan",
    "Communication",
    "ExactScheduler",
    "FailReason",
    "FailureLog",
    "MiiReport",
    "ModuloSchedule",
    "NewTransfer",
    "NodeTiming",
    "Placement",
    "PlacementEngine",
    "PressureTracker",
    "ReservationTable",
    "ScheduledLoopResult",
    "ScheduledOp",
    "SchedulerBase",
    "SelectiveRule",
    "TwoPhaseScheduler",
    "UnifiedScheduler",
    "UnrollPolicy",
    "cluster_pressures",
    "join_profit",
    "list_schedule",
    "compute_timings",
    "default_ii_budget",
    "max_pressure",
    "mii",
    "mii_report",
    "ordering_sets",
    "partition_graph",
    "rec_mii",
    "recurrence_sets",
    "res_mii",
    "schedule_with_policy",
    "selective_unroll_decision",
    "sms_order",
    "topological_order",
    "verify_schedule",
]
