"""Workloads: the plugin registry, classic kernels, the synthetic
generator, the SPECfp95 suite.

All shipped workloads register through :mod:`repro.workloads.registry`;
importing this package registers the full built-in catalogue."""

from .generator import LoopShape, RecurrenceSpec, generate_loop
from .kernels import (
    ALL_KERNELS,
    figure7_graph,
    kernel_loop,
    kernel_table,
    resolve_kernel,
)
from .livermore import LIVERMORE_KERNELS, RECURRENCE_BOUND, livermore_program
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
from .specfp import PROGRAM_NAMES, build_program, specfp95_suite

__all__ = [
    "ALL_KERNELS",
    "LIVERMORE_KERNELS",
    "RECURRENCE_BOUND",
    "WORKLOAD_PATH_ENV",
    "WorkloadSpec",
    "livermore_program",
    "load_plugins",
    "LoopShape",
    "PROGRAM_NAMES",
    "RecurrenceSpec",
    "build_program",
    "figure7_graph",
    "generate_loop",
    "kernel_loop",
    "kernel_table",
    "register_workload",
    "resolve_kernel",
    "resolve_workload",
    "specfp95_suite",
    "unregister_workload",
    "workload",
    "workload_table",
    "workloads",
]
