"""Livermore Fortran kernels (the classic loop benchmark set).

A second, fully hand-written workload besides the synthetic SPECfp95
suite: each kernel's dependence structure is known exactly, which makes
them ideal for validating scheduler behaviour (which loops are
recurrence-bound, which parallel) and for a classic-kernels comparison
table.  Numbering follows McMahon's original set; only kernels whose
innermost loop maps cleanly onto the IR are included.
"""

from __future__ import annotations

from ..ir.builder import LoopBuilder
from ..ir.ddg import DependenceGraph
from ..ir.loop import Loop, Program
from .kernels import dot_product, hydro_fragment, tridiag_solver_step
from .registry import register_workload, workloads


@register_workload("ll1", aliases=("ll1_hydro",), tags=("livermore",))
def ll1_hydro() -> DependenceGraph:
    """LL1: x[k] = q + y[k]*(r*z[k+10] + t*z[k+11]) — parallel."""
    g = hydro_fragment().copy("ll1")
    return g


@register_workload("ll3", aliases=("ll3_inner_product",), tags=("livermore",))
def ll3_inner_product() -> DependenceGraph:
    """LL3: q += z[k]*x[k] — serial reduction (RecMII = fadd latency)."""
    return dot_product().copy("ll3")


@register_workload("ll5", aliases=("ll5_tridiag",), tags=("livermore",))
def ll5_tridiag() -> DependenceGraph:
    """LL5: x[i] = z[i]*(y[i] - x[i-1]) — first-order recurrence."""
    return tridiag_solver_step().copy("ll5")


@register_workload("ll7", aliases=("ll7_equation_of_state",), tags=("livermore",))
def ll7_equation_of_state() -> DependenceGraph:
    """LL7: the equation-of-state fragment — a wide parallel expression.

    x[k] = u[k] + r*(z[k] + r*y[k])
         + t*(u[k+3] + r*(u[k+2] + r*u[k+1])
         + t*(u[k+6] + r*(u[k+5] + r*u[k+4])))
    """
    b = LoopBuilder("ll7")
    r = b.live_in("r")
    t = b.live_in("t")
    u = [b.load(f"u[k+{i}]") for i in range(7)]
    z = b.load("z[k]")
    y = b.load("y[k]")

    inner1 = b.fadd(z, b.fmul(r, y))
    inner2 = b.fadd(u[2], b.fmul(r, u[1]))
    inner3 = b.fadd(u[5], b.fmul(r, u[4]))
    mid2 = b.fadd(u[3], b.fmul(r, inner2))
    mid3 = b.fadd(u[6], b.fmul(r, inner3))
    sum3 = b.fadd(mid2, b.fmul(t, mid3))
    x = b.fadd(u[0], b.fadd(b.fmul(r, inner1), b.fmul(t, sum3)))
    b.store(x, tag="x[k]")
    return b.build()


@register_workload("ll9", aliases=("ll9_integrate_predictors",), tags=("livermore",))
def ll9_integrate_predictors() -> DependenceGraph:
    """LL9: px[i] = sum of 9 weighted px/cx terms — parallel multiply-adds."""
    b = LoopBuilder("ll9")
    acc = b.fmul(b.load("px1[i]"), b.live_in("c0"))
    for k in range(2, 10):
        term = b.fmul(b.load(f"px{k}[i]"), b.live_in(f"c{k - 1}"))
        acc = b.fadd(acc, term)
    b.store(acc, tag="px[i]")
    return b.build()


@register_workload("ll10", aliases=("ll10_difference_predictors",), tags=("livermore",))
def ll10_difference_predictors() -> DependenceGraph:
    """LL10: cascaded difference chains — long serial adds, parallel rows."""
    b = LoopBuilder("ll10")
    ar = b.load("cx[i]")
    prev = ar
    stores = []
    for k in range(5):
        px = b.load(f"px{k}[i]")
        diff = b.fsub(prev, px, tag=f"d{k}")
        stores.append(diff)
        prev = diff
    for k, val in enumerate(stores):
        b.store(val, tag=f"px{k}[i]")
    return b.build()


@register_workload("ll11", aliases=("ll11_first_sum",), tags=("livermore",))
def ll11_first_sum() -> DependenceGraph:
    """LL11: x[k] = x[k-1] + y[k] — prefix sum (distance-1 recurrence)."""
    b = LoopBuilder("ll11")
    y = b.load("y[k]")
    x = b.fadd(y, b.live_in("x_prev"), tag="x[k]")
    b.carried_use(x, x, distance=1)
    b.store(x, tag="x[k]")
    return b.build()


@register_workload("ll12", aliases=("ll12_first_difference",), tags=("livermore",))
def ll12_first_difference() -> DependenceGraph:
    """LL12: x[k] = y[k+1] - y[k] — fully parallel."""
    b = LoopBuilder("ll12")
    y1 = b.load("y[k+1]")
    y0 = b.load("y[k]")
    d = b.fsub(y1, y0)
    b.store(d, tag="x[k]")
    return b.build()


#: Registered Livermore kernels in registration order; tagged
#: ``"livermore"`` in the workload registry (front-door resolvable but
#: not part of the classic ``"kernel"`` catalogue).
LIVERMORE_KERNELS = {
    spec.name: spec.factory
    for spec in workloads(tag="livermore", discover=False)
}

#: Kernels whose iterations are serialised by a recurrence (unrolling
#: cannot help them) — used by tests and the classic-kernels bench.
RECURRENCE_BOUND = frozenset({"ll3", "ll5", "ll11"})


def livermore_program(trip: int = 400, runs: int = 50) -> Program:
    """All Livermore kernels bundled as one program."""
    p = Program("livermore")
    for name, build in LIVERMORE_KERNELS.items():
        p.add(Loop(graph=build(), trip_count=trip, times_executed=runs))
    return p
