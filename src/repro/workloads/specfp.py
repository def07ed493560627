"""A synthetic SPECfp95-like evaluation suite.

The paper evaluates the 10 SPECfp95 programs compiled by ICTINEO; neither
is available, so each program here is a seeded set of synthetic innermost
loops (plus a few hand-written classic kernels) whose *shape profile*
follows the program's published character: loop body sizes, FP/memory op
mix, recurrence density, loop-carried dependence patterns and trip counts.
The scheduling comparisons of the paper depend only on those shape
properties (DESIGN.md, substitutions table).

Profiles, qualitatively:

* **tomcatv** — mesh generation: large vectorisable bodies with high
  fan-in and real register pressure; a couple of carried dependences.
  (The paper singles tomcatv out as the one program that *loses* from
  blanket unrolling on 4 clusters.)
* **swim** — shallow-water stencils: parallel, memory-rich, no
  recurrences, long trip counts.
* **su2cor** — quantum field Monte Carlo: medium bodies, some reductions.
* **hydro2d** — hydrodynamics: many small/medium stencil loops with
  occasional recurrences.
* **mgrid** — multigrid 27-point stencils: big fan-in, load-dominated.
* **applu** — SSOR solver: wavefront recurrences (distance-1 chains).
* **turb3d** — turbulence FFT passes: butterflies, mixed int/fp.
* **apsi** — mesoscale weather: varied loops with divides.
* **fpppp** — electron integrals: the famous huge straight-line bodies,
  FP-dominated, essentially no loop-carried dependences.
* **wave5** — plasma PIC: gather/scatter with integer address work.
"""

from __future__ import annotations

from ..ir.ddg import DependenceGraph
from ..ir.loop import Loop, Program
from .generator import LoopShape, RecurrenceSpec, generate_loop
from .registry import register_workload, resolve_workload
from .kernels import (
    complex_multiply,
    daxpy,
    hydro_fragment,
    stencil3,
    stencil5,
    tridiag_solver_step,
)

#: All program names, in the paper's figure order.
PROGRAM_NAMES = (
    "tomcatv",
    "swim",
    "su2cor",
    "hydro2d",
    "mgrid",
    "applu",
    "turb3d",
    "apsi",
    "fpppp",
    "wave5",
)


def _loop(graph: DependenceGraph, trip: int, runs: int) -> Loop:
    return Loop(graph=graph, trip_count=trip, times_executed=runs)


def _generated(shape: LoopShape, trip: int, runs: int) -> Loop:
    return _loop(generate_loop(shape), trip, runs)


def _rename(graph: DependenceGraph, name: str) -> DependenceGraph:
    renamed = graph.copy(name)
    return renamed


@register_workload(
    "tomcatv",
    tags=("specfp",),
    kind="program",
    description="Mesh generation: large vectorisable bodies, real register pressure.",
)
def build_tomcatv() -> Program:
    p = Program("tomcatv")
    base = 7100
    for i, n_ops in enumerate((44, 52, 38, 47)):
        p.add(
            _generated(
                LoopShape(
                    name=f"tomcatv.mesh{i}",
                    seed=base + i,
                    n_ops=n_ops,
                    mem_fraction=0.32,
                    fp_fraction=0.85,
                    fanin=1.9,
                    addr_fraction=0.1,
                    recurrences=(RecurrenceSpec(3, 1),) if i % 2 else (),
                    carried_edge_prob=0.06,
                ),
                trip=96,
                runs=320,
            )
        )
    p.add(
        _generated(
            LoopShape(
                name="tomcatv.residual",
                seed=base + 10,
                n_ops=46,
                mem_fraction=0.34,
                fp_fraction=0.9,
                fanin=1.85,
                carried_edge_prob=0.08,
                recurrences=(RecurrenceSpec(4, 2),),
            ),
            trip=96,
            runs=160,
        )
    )
    p.add(_loop(_rename(stencil5(), "tomcatv.smooth"), trip=96, runs=240))
    return p


@register_workload(
    "swim",
    tags=("specfp",),
    kind="program",
    description="Shallow-water stencils: parallel, memory-rich, long trip counts.",
)
def build_swim() -> Program:
    p = Program("swim")
    base = 7200
    for i, n_ops in enumerate((26, 30, 34)):
        p.add(
            _generated(
                LoopShape(
                    name=f"swim.calc{i + 1}",
                    seed=base + i,
                    n_ops=n_ops,
                    mem_fraction=0.45,
                    store_fraction=0.35,
                    fp_fraction=0.9,
                    fanin=1.8,
                ),
                trip=512,
                runs=90,
            )
        )
    p.add(_loop(_rename(stencil3(), "swim.shalow"), trip=512, runs=120))
    p.add(_loop(_rename(daxpy(), "swim.update"), trip=512, runs=200))
    return p


@register_workload(
    "su2cor",
    tags=("specfp",),
    kind="program",
    description="Quantum field Monte Carlo: medium bodies, some reductions.",
)
def build_su2cor() -> Program:
    p = Program("su2cor")
    base = 7300
    for i, (n_ops, rec) in enumerate(
        ((22, ()), (31, (RecurrenceSpec(2, 1),)), (27, ()), (36, (RecurrenceSpec(3, 1),)))
    ):
        p.add(
            _generated(
                LoopShape(
                    name=f"su2cor.gauge{i}",
                    seed=base + i,
                    n_ops=n_ops,
                    mem_fraction=0.38,
                    fp_fraction=0.82,
                    recurrences=rec,
                    carried_edge_prob=0.05,
                ),
                trip=128,
                runs=150,
            )
        )
    p.add(_loop(_rename(complex_multiply(), "su2cor.su2mul"), trip=256, runs=180))
    return p


@register_workload(
    "hydro2d",
    tags=("specfp",),
    kind="program",
    description="Hydrodynamics: many small/medium stencil loops, occasional recurrences.",
)
def build_hydro2d() -> Program:
    p = Program("hydro2d")
    base = 7400
    for i in range(6):
        rec = (RecurrenceSpec(2, 1),) if i in (2, 4) else ()
        p.add(
            _generated(
                LoopShape(
                    name=f"hydro2d.flux{i}",
                    seed=base + i,
                    n_ops=16 + 4 * i,
                    mem_fraction=0.4,
                    fp_fraction=0.85,
                    recurrences=rec,
                    carried_edge_prob=0.04,
                ),
                trip=160,
                runs=140,
            )
        )
    p.add(_loop(_rename(hydro_fragment(), "hydro2d.frag"), trip=400, runs=220))
    return p


@register_workload(
    "mgrid",
    tags=("specfp",),
    kind="program",
    description="Multigrid 27-point stencils: big fan-in, load-dominated.",
)
def build_mgrid() -> Program:
    p = Program("mgrid")
    base = 7500
    for i, n_ops in enumerate((48, 56, 40)):
        p.add(
            _generated(
                LoopShape(
                    name=f"mgrid.resid{i}",
                    seed=base + i,
                    n_ops=n_ops,
                    mem_fraction=0.5,
                    store_fraction=0.15,
                    fp_fraction=0.95,
                    fanin=2.0,
                    addr_fraction=0.05,
                ),
                trip=256,
                runs=110,
            )
        )
    p.add(_loop(_rename(stencil5(), "mgrid.interp"), trip=256, runs=130))
    return p


@register_workload(
    "applu",
    tags=("specfp",),
    kind="program",
    description="SSOR solver: wavefront recurrences (distance-1 chains).",
)
def build_applu() -> Program:
    p = Program("applu")
    base = 7600
    for i in range(4):
        p.add(
            _generated(
                LoopShape(
                    name=f"applu.ssor{i}",
                    seed=base + i,
                    n_ops=24 + 6 * i,
                    mem_fraction=0.35,
                    fp_fraction=0.85,
                    recurrences=(RecurrenceSpec(3, 1),),
                    carried_edge_prob=0.1,
                ),
                trip=64,
                runs=260,
            )
        )
    p.add(_loop(_rename(tridiag_solver_step(), "applu.blts"), trip=64, runs=300))
    p.add(
        _generated(
            LoopShape(
                name="applu.rhs",
                seed=base + 20,
                n_ops=42,
                mem_fraction=0.4,
                fp_fraction=0.88,
            ),
            trip=64,
            runs=200,
        )
    )
    return p


@register_workload(
    "turb3d",
    tags=("specfp",),
    kind="program",
    description="Turbulence FFT passes: butterflies, mixed int/fp.",
)
def build_turb3d() -> Program:
    p = Program("turb3d")
    base = 7700
    for i in range(5):
        p.add(
            _generated(
                LoopShape(
                    name=f"turb3d.fft{i}",
                    seed=base + i,
                    n_ops=20 + 5 * i,
                    mem_fraction=0.35,
                    fp_fraction=0.7,
                    fanin=1.85,
                    carried_edge_prob=0.03,
                ),
                trip=64,
                runs=320,
            )
        )
    p.add(_loop(_rename(complex_multiply(), "turb3d.twiddle"), trip=128, runs=260))
    return p


@register_workload(
    "apsi",
    tags=("specfp",),
    kind="program",
    description="Mesoscale weather: varied loops with divides.",
)
def build_apsi() -> Program:
    p = Program("apsi")
    base = 7800
    for i in range(6):
        rec = (RecurrenceSpec(2, 1),) if i == 3 else ()
        p.add(
            _generated(
                LoopShape(
                    name=f"apsi.phys{i}",
                    seed=base + i,
                    n_ops=14 + 5 * i,
                    mem_fraction=0.36,
                    fp_fraction=0.8,
                    long_latency_fraction=0.06 if i in (1, 4) else 0.0,
                    recurrences=rec,
                    carried_edge_prob=0.05,
                ),
                trip=100,
                runs=180,
            )
        )
    return p


@register_workload(
    "fpppp",
    tags=("specfp",),
    kind="program",
    description="Electron integrals: huge straight-line FP bodies, no recurrences.",
)
def build_fpppp() -> Program:
    # fpppp's signature is very large FP-dominated straight-line bodies.
    # Bodies are kept chain-heavy (low fan-in, frequent stores) so the live
    # set per iteration fits a 16-register cluster after unrolling by 4 —
    # the paper's own fpppp loops schedule on that machine, so their live
    # sets were of this order too.
    p = Program("fpppp")
    base = 7900
    for i, n_ops in enumerate((64, 72)):
        p.add(
            _generated(
                LoopShape(
                    name=f"fpppp.twoel{i}",
                    seed=base + i,
                    n_ops=n_ops,
                    mem_fraction=0.3,
                    store_fraction=0.45,
                    fp_fraction=0.95,
                    fanin=1.5,
                ),
                trip=48,
                runs=160,
            )
        )
    p.add(
        _generated(
            LoopShape(
                name="fpppp.fmtgen",
                seed=base + 5,
                n_ops=48,
                mem_fraction=0.3,
                store_fraction=0.4,
                fp_fraction=0.9,
                fanin=1.55,
                long_latency_fraction=0.04,
            ),
            trip=48,
            runs=120,
        )
    )
    return p


@register_workload(
    "wave5",
    tags=("specfp",),
    kind="program",
    description="Plasma PIC: gather/scatter with integer address work.",
)
def build_wave5() -> Program:
    p = Program("wave5")
    base = 8000
    for i in range(5):
        p.add(
            _generated(
                LoopShape(
                    name=f"wave5.field{i}",
                    seed=base + i,
                    n_ops=18 + 6 * i,
                    mem_fraction=0.45,
                    store_fraction=0.35,
                    fp_fraction=0.65,
                    addr_fraction=0.35,
                    carried_edge_prob=0.04,
                ),
                trip=200,
                runs=150,
            )
        )
    p.add(
        _generated(
            LoopShape(
                name="wave5.parmvr",
                seed=base + 10,
                n_ops=34,
                mem_fraction=0.4,
                fp_fraction=0.75,
                addr_fraction=0.3,
                recurrences=(RecurrenceSpec(2, 1),),
            ),
            trip=200,
            runs=120,
        )
    )
    return p


def specfp95_suite() -> list[Program]:
    """All ten programs, in the paper's figure order."""
    return [resolve_workload(name, kind="program")[1]() for name in PROGRAM_NAMES]
