"""VLIW code generation, code-size accounting and execution lowering."""

from .codesize import ZERO_SIZE, CodeSize, schedule_code_size
from .linear import BusRecord, IssueRecord, LinearCode, OperandRead, linearize
from .rename import RenamedKernel, RenamedOp, rename_kernel
from .vliw import KernelCode, generate_kernel, render_schedule

__all__ = [
    "BusRecord",
    "CodeSize",
    "IssueRecord",
    "KernelCode",
    "LinearCode",
    "OperandRead",
    "RenamedKernel",
    "RenamedOp",
    "ZERO_SIZE",
    "generate_kernel",
    "linearize",
    "rename_kernel",
    "render_schedule",
    "schedule_code_size",
]
