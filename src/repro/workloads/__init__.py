"""Workloads: the plugin registry, classic kernels, the synthetic
generator, the SPECfp95 suite.

All shipped workloads register through :mod:`repro.workloads.registry`;
importing this package registers the full built-in catalogue."""

from .generator import LoopShape, RecurrenceSpec, generate_loop
from .kernels import figure7_graph, kernel_loop, resolve_kernel
from .livermore import RECURRENCE_BOUND, livermore_program
from .registry import (
    WORKLOAD_PATH_ENV,
    WorkloadSpec,
    load_plugins,
    register_workload,
    resolve_workload,
    unregister_workload,
    workload,
    workload_table,
    workloads,
)
from .specfp import PROGRAM_NAMES, specfp95_suite

__all__ = [
    "RECURRENCE_BOUND",
    "WORKLOAD_PATH_ENV",
    "WorkloadSpec",
    "livermore_program",
    "load_plugins",
    "LoopShape",
    "PROGRAM_NAMES",
    "RecurrenceSpec",
    "figure7_graph",
    "generate_loop",
    "kernel_loop",
    "register_workload",
    "resolve_kernel",
    "resolve_workload",
    "specfp95_suite",
    "unregister_workload",
    "workload",
    "workload_table",
    "workloads",
]
