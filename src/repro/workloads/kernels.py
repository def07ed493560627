"""Hand-written classic loop kernels.

Small, exactly-understood dependence graphs used by the examples, the unit
tests (known MII values) and as building blocks of the synthetic suite.
Each function returns a fresh :class:`~repro.ir.ddg.DependenceGraph`.

All kernels register through :mod:`repro.workloads.registry` under the
``"kernel"`` tag; ``ALL_KERNELS`` / ``kernel_table`` / ``resolve_kernel``
are thin views over that registry kept for compatibility (and because
"the classic catalogue" is still a useful subset to iterate).
"""

from __future__ import annotations

from typing import Callable

from ..errors import WorkloadError
from ..ir.builder import LoopBuilder
from ..ir.ddg import DependenceGraph
from ..ir.loop import Loop
from .registry import register_workload, resolve_workload, workloads


@register_workload("daxpy", tags=("kernel",))
def daxpy() -> DependenceGraph:
    """``y[i] = a * x[i] + y[i]`` — fully parallel iterations."""
    b = LoopBuilder("daxpy")
    x = b.load("x[i]")
    y = b.load("y[i]")
    ax = b.fmul(x, b.live_in("a"), tag="a*x")
    s = b.fadd(ax, y, tag="a*x+y")
    b.store(s, tag="y[i]")
    return b.build()


@register_workload("vadd", aliases=("vector_add",), tags=("kernel",))
def vector_add() -> DependenceGraph:
    """``c[i] = a[i] + b[i]``."""
    b = LoopBuilder("vadd")
    a = b.load("a[i]")
    c = b.load("b[i]")
    s = b.fadd(a, c)
    b.store(s, tag="c[i]")
    return b.build()


@register_workload("dot", aliases=("dot_product",), tags=("kernel",))
def dot_product() -> DependenceGraph:
    """``s += x[i] * y[i]`` — a serial reduction (RecMII = fadd latency)."""
    b = LoopBuilder("dot")
    x = b.load("x[i]")
    y = b.load("y[i]")
    m = b.fmul(x, y)
    acc = b.fadd(m, b.live_in("s"), tag="s+=")
    b.carried_use(acc, acc, distance=1)
    return b.build()


@register_workload("rec1", aliases=("first_order_recurrence",), tags=("kernel",))
def first_order_recurrence() -> DependenceGraph:
    """``x[i] = a * x[i-1] + b[i]`` — the classic linear recurrence."""
    b = LoopBuilder("rec1")
    bi = b.load("b[i]")
    ax = b.fmul(b.live_in("a"), b.live_in("x_prev"), tag="a*x")
    xi = b.fadd(ax, bi, tag="x[i]")
    b.carried_use(xi, ax, distance=1)
    b.store(xi, tag="x[i]")
    return b.build()


@register_workload("stencil3", tags=("kernel",))
def stencil3() -> DependenceGraph:
    """``b[i] = w0*a[i-1] + w1*a[i] + w2*a[i+1]`` — parallel 3-point stencil."""
    b = LoopBuilder("stencil3")
    am = b.load("a[i-1]")
    a0 = b.load("a[i]")
    ap = b.load("a[i+1]")
    t0 = b.fmul(am, b.live_in("w0"))
    t1 = b.fmul(a0, b.live_in("w1"))
    t2 = b.fmul(ap, b.live_in("w2"))
    s = b.fadd(b.fadd(t0, t1), t2)
    b.store(s, tag="b[i]")
    return b.build()


@register_workload("stencil5", tags=("kernel",))
def stencil5() -> DependenceGraph:
    """Five-point stencil with address arithmetic (int/mem/fp mix)."""
    b = LoopBuilder("stencil5")
    idx = b.iaddr(b.live_in("i"), tag="base")
    vals = [b.load(f"a[i{o:+d}]", addr=idx) for o in (-2, -1, 0, 1, 2)]
    acc = b.fmul(vals[0], b.live_in("w0"))
    for k, v in enumerate(vals[1:], start=1):
        acc = b.fadd(acc, b.fmul(v, b.live_in(f"w{k}")))
    b.store(acc, tag="b[i]")
    return b.build()


@register_workload("fir4", aliases=("fir_filter",), tags=("kernel",))
def fir_filter(taps: int = 4) -> DependenceGraph:
    """``y[i] = sum_k c[k] * x[i+k]`` with unrolled taps; serial accumulate."""
    b = LoopBuilder(f"fir{taps}")
    acc = None
    for k in range(taps):
        x = b.load(f"x[i+{k}]")
        t = b.fmul(x, b.live_in(f"c{k}"))
        acc = t if acc is None else b.fadd(acc, t)
    b.store(acc, tag="y[i]")
    return b.build()


# The same builder again as a *parametric family*: ``fir(taps=8)`` etc.
# Not tagged "kernel" so the classic catalogue (and every output derived
# from it) is unchanged; the graph is named after the tap count, so each
# parametrisation content-hashes distinctly in the result cache.
register_workload(
    "fir",
    tags=("parametric",),
    params={"taps": 4},
    ranges={"taps": (1, None)},
    description="Parametric FIR filter family; instance names like fir(taps=8).",
)(fir_filter)


@register_workload("cmul", aliases=("complex_multiply",), tags=("kernel",))
def complex_multiply() -> DependenceGraph:
    """``c[i] = a[i] * b[i]`` on complex values (4 muls, 2 adds)."""
    b = LoopBuilder("cmul")
    ar = b.load("ar[i]")
    ai = b.load("ai[i]")
    br = b.load("br[i]")
    bi = b.load("bi[i]")
    rr = b.fsub(b.fmul(ar, br), b.fmul(ai, bi), tag="re")
    ri = b.fadd(b.fmul(ar, bi), b.fmul(ai, br), tag="im")
    b.store(rr, tag="cr[i]")
    b.store(ri, tag="ci[i]")
    return b.build()


@register_workload("hydro", aliases=("hydro_fragment",), tags=("kernel",))
def hydro_fragment() -> DependenceGraph:
    """Livermore loop 1 (hydro fragment): ``x[k] = q + y[k]*(r*z[k+10] + t*z[k+11])``."""
    b = LoopBuilder("hydro")
    z10 = b.load("z[k+10]")
    z11 = b.load("z[k+11]")
    yk = b.load("y[k]")
    rz = b.fmul(z10, b.live_in("r"))
    tz = b.fmul(z11, b.live_in("t"))
    inner = b.fadd(rz, tz)
    prod = b.fmul(yk, inner)
    xk = b.fadd(prod, b.live_in("q"))
    b.store(xk, tag="x[k]")
    return b.build()


@register_workload("tridiag", aliases=("tridiag_solver_step",), tags=("kernel",))
def tridiag_solver_step() -> DependenceGraph:
    """Livermore loop 5 (tri-diagonal elimination): carried through x[i-1]."""
    b = LoopBuilder("tridiag")
    yi = b.load("y[i]")
    zi = b.load("z[i]")
    xm = b.fmul(yi, b.live_in("x_prev"), tag="y*x[i-1]")
    xi = b.fsub(zi, xm, tag="x[i]")
    b.carried_use(xi, xm, distance=1)
    b.store(xi, tag="x[i]")
    return b.build()


@register_workload("sqrtnorm", aliases=("sqrt_norm",), tags=("kernel",))
def sqrt_norm() -> DependenceGraph:
    """``n[i] = sqrt(x[i]^2 + y[i]^2)`` — long-latency FP path."""
    b = LoopBuilder("sqrtnorm")
    x = b.load("x[i]")
    y = b.load("y[i]")
    s = b.fadd(b.fmul(x, x), b.fmul(y, y))
    n = b.fsqrt(s)
    b.store(n, tag="n[i]")
    return b.build()


@register_workload("gather", aliases=("indirect_gather",), tags=("kernel",))
def indirect_gather() -> DependenceGraph:
    """``y[i] = a[idx[i]] * s`` — int address chain feeding memory."""
    b = LoopBuilder("gather")
    idx = b.load("idx[i]")
    addr = b.iaddr(idx, tag="&a[idx]")
    val = b.load("a[idx[i]]", addr=addr)
    r = b.fmul(val, b.live_in("s"))
    b.store(r, tag="y[i]")
    return b.build()


@register_workload("fib", aliases=("second_order_recurrence",), tags=("kernel",))
def second_order_recurrence() -> DependenceGraph:
    """``f[i] = f[i-1] + f[i-2]`` style — distance-2 recurrence (RecMII sensitive)."""
    b = LoopBuilder("fib")
    f = b.fadd(b.live_in("f1"), b.live_in("f2"), tag="f[i]")
    g = b.fmul(f, b.live_in("damp"), tag="g[i]")
    b.carried_use(f, f, distance=2)
    b.carried_use(g, f, distance=1)
    b.store(g, tag="out[i]")
    return b.build()


@register_workload("figure7", aliases=("figure7_graph",), tags=("kernel",))
def figure7_graph() -> DependenceGraph:
    """The 6-node example of the paper's Figure 7.

    Six 1-cycle general-purpose operations A..F; a 3-node recurrence
    A->B->D->A at distance 2 (RecMII = ceil(3/2) = 2) and a loop-carried
    edge A ->(d=1) E that, after unrolling by 2, becomes exactly the two
    cross-copy dependences the paper shows (A' -> E and A -> E').
    On a 2-cluster machine with 2 general-purpose units per cluster,
    ResMII = ceil(6/4) = 2.
    """
    g = DependenceGraph("figure7")
    a = g.add_operation("gen", "A")
    bb = g.add_operation("gen", "B")
    c = g.add_operation("gen", "C")
    d = g.add_operation("gen", "D")
    e = g.add_operation("gen", "E")
    f = g.add_operation("gen", "F")
    g.add_dependence(a, bb)
    g.add_dependence(bb, d)
    g.add_dependence(d, a, distance=2)
    g.add_dependence(a, e, distance=1)
    g.add_dependence(c, e)
    g.add_dependence(d, f)
    g.add_dependence(a, f)
    g.validate()
    return g


@register_workload("ladder", aliases=("ladder_graph",), tags=("kernel",))
def ladder_graph() -> DependenceGraph:
    """A 12-operation "ladder" that is provably bus limited when clustered.

    Two 6-deep chains of 1-cycle ops joined by two rungs, each chain closed
    by a distance-2 recurrence: ResMII = RecMII = 3 on the 2-cluster
    machine.  Any balanced 6/6 split crosses at least two value producers,
    so with one bus of latency 2 the non-unrolled loop cannot hold II = 3;
    unrolling by 2 splits the graph into two *disconnected* copies (the
    recurrences have even distance), one per cluster, with zero
    communications — the paper's Figure 7 phenomenon in a form no cluster
    assignment can dodge.
    """
    g = DependenceGraph("ladder")
    a = [g.add_operation("gen", f"a{i}") for i in range(6)]
    b = [g.add_operation("gen", f"b{i}") for i in range(6)]
    for i in range(5):
        g.add_dependence(a[i], a[i + 1])
        g.add_dependence(b[i], b[i + 1])
    g.add_dependence(a[1], b[1])  # rungs tie the chains together
    g.add_dependence(a[3], b[3])
    g.add_dependence(a[5], a[0], distance=2)
    g.add_dependence(b[5], b[0], distance=2)
    g.validate()
    return g


#: The classic catalogue: every workload registered above with the
#: ``"kernel"`` tag, in registration order.  Kept as a plain dict because
#: a lot of tests and experiments iterate it directly.
ALL_KERNELS = {
    spec.name: spec.factory for spec in workloads(tag="kernel", discover=False)
}

def kernel_table() -> list[dict]:
    """The canonical-name -> alias catalogue as table rows.

    One row per registered kernel: canonical name, the accepted alias
    (the builder function's own name, when it differs), and the kernel's
    one-line description from its docstring.  This single source feeds
    ``repro-vliw schedule --list`` and the README table.
    """
    rows = []
    for spec in workloads(tag="kernel", discover=False):
        rows.append(
            {
                "kernel": spec.name,
                "alias": spec.aliases[0] if spec.aliases else "",
                "description": spec.description,
            }
        )
    return rows


def resolve_kernel(name: str) -> tuple[str, Callable[[], DependenceGraph]]:
    """Map a kernel name or alias to ``(canonical_name, graph_factory)``.

    A thin shim over :func:`~repro.workloads.registry.resolve_workload`:
    resolves anything graph-like in the registry (classic kernels,
    Livermore loops, parametric instances like ``fir(taps=8)``, plugin
    workloads) and raises :class:`~repro.errors.WorkloadError` — which is
    also a ``KeyError`` — with a did-you-mean suggestion on failure.
    """
    try:
        return resolve_workload(name, kind="graph")
    except WorkloadError as exc:
        if "unknown workload" not in str(exc):
            raise
        graph_specs = [
            spec for spec in workloads(discover=False) if spec.kind == "graph"
        ]
        known = [spec.name for spec in graph_specs]
        known += [alias for spec in graph_specs for alias in spec.aliases]
        raise WorkloadError(
            f"unknown kernel {name!r}; known: {sorted(known)}",
            suggestion=exc.suggestion,
        ) from None


def kernel_loop(name: str, trip_count: int = 100, times_executed: int = 1) -> Loop:
    """A named kernel wrapped as a :class:`Loop` with trip statistics.

    The simulator and its cross-checks work on loops (they need a trip
    count); this is the one-liner that turns any hand-written kernel into
    one.
    """
    _, factory = resolve_kernel(name)
    return Loop(
        graph=factory(), trip_count=trip_count, times_executed=times_executed
    )
