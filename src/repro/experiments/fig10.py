"""Figure 10: code-size impact of the unrolling policies.

Static operation counts (useful, and useful+NOP) for the clustered
machines under the three policies, normalised to the unified machine
without unrolling.

Expected shape (paper): without unrolling NOP padding grows as latency
rises / buses shrink (II inflates); blanket unrolling multiplies useful
code by the unroll factor; selective unrolling sits well below blanket
unrolling (closer to it for starved configurations, where more loops are
bus limited), and the saving is biggest for high-bandwidth fabrics
(2 buses, latency 1) where few loops need unrolling at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from ..codegen.codesize import ZERO_SIZE, CodeSize, schedule_code_size
from ..core.selective import UnrollPolicy
from .common import ExperimentContext
from .fig8 import fig8_grid, fig8_scenarios


@dataclass(frozen=True)
class Fig10Point:
    n_clusters: int
    n_buses: int
    bus_latency: int
    policy: UnrollPolicy
    total_ops_ratio: float  # white bars (useful + NOP)
    useful_ops_ratio: float  # black bars


def _code_size(results) -> CodeSize:
    """Static code size of the schedules in *results*."""
    return sum((schedule_code_size(r.schedule) for r in results), ZERO_SIZE)


def run_fig10(ctx: ExperimentContext, **dims: tuple[int, ...]) -> list[Fig10Point]:
    """Run the Figure 10 grid (Figure 8's): normalised code size per scenario.

    The first scenario, the unified machine without unrolling, is the
    baseline every other scenario is normalised to.
    """
    results = iter(ctx.results(fig8_grid(ctx, **dims)))
    per_scenario = sum(len(program.eligible_loops()) for program in ctx.suite)
    _unified, *scenarios = fig8_scenarios(**dims)
    baseline = _code_size(islice(results, per_scenario))
    points = []
    for n_clusters, n_buses, latency, policy, _machine in scenarios:
        size = _code_size(islice(results, per_scenario))
        total_ratio, useful_ratio = size.normalised_to(baseline)
        points.append(
            Fig10Point(n_clusters, n_buses, latency, policy, total_ratio, useful_ratio)
        )
    return points


def fig10_rows(points: list[Fig10Point]) -> list[dict]:
    """Figure 10 points as table rows."""
    return [
        {
            "clusters": p.n_clusters,
            "buses": p.n_buses,
            "bus_latency": p.bus_latency,
            "policy": str(p.policy),
            "total_ops_ratio": p.total_ops_ratio,
            "useful_ops_ratio": p.useful_ops_ratio,
        }
        for p in points
    ]
