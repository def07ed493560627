"""Record the fig8 --quick summary the sweep workloads check against.

Run from the repository root::

    python3 perfbench/record_expected.py

It schedules every point of the ``repro-vliw fig8 --quick`` grid cold, in
one process, and writes ``perfbench/fig8_quick_expected.json``:

* ``points``: ``[ii, stage_count, unroll_factor]`` per point -- everything
  a Figure 8 cell depends on, so ``mean_ipc`` of any slice can be derived
  and checked;
* ``loop_cost_s``: each loop's cold cost over its 13 scenarios, the
  lower of two passes over freshly built loops (one pass on this shared
  host swings single loops by up to 50%);
* ``strata``: per program, the loops the sweep slice draws one from.  The
  pair of loops with the closest cold cost (both under ``PAIR_CAP_S``,
  within ``PAIR_TOL`` of each other) when there is one, else the
  program's cheapest loop alone, so every seed does the same work.

Regenerate it only when a change alters schedules on purpose, and say so.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from perfbench.inputs import EXPECTED_PATH, FIG8_QUICK, scenario_key  # noqa: E402

PAIR_CAP_S = 1.6
PAIR_TOL = 0.20


def scenarios():
    yield 1, 0, 0, "no-unrolling"
    for clusters in (2, 4):
        for policy in ("no-unrolling", "unroll-all", "selective-unrolling"):
            for buses in FIG8_QUICK["bus_counts"]:
                for latency in FIG8_QUICK["latencies"]:
                    yield clusters, buses, latency, policy


def strata(costs: dict[str, float]) -> list[list[str]]:
    names = sorted(costs, key=costs.get)
    pairs = [
        (costs[b] / costs[a] - 1.0, a, b)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if costs[b] <= PAIR_CAP_S and costs[b] / costs[a] - 1.0 <= PAIR_TOL
    ]
    if pairs:
        _delta, a, b = min(pairs)
        return [[a, b]]
    return [[names[0]]]


def main() -> None:
    from repro.arch.configs import clustered_config, unified_config
    from repro.core.selective import UnrollPolicy
    from repro.runner.engine import execute_point
    from repro.runner.scenario import scenario_for
    from repro.workloads.specfp import specfp95_suite

    points: dict[str, list[int]] = {}
    costs: dict[str, dict[str, float]] = {}
    for _pass in range(2):
        for program in specfp95_suite():
            per_loop = costs.setdefault(program.name, {})
            for loop in program.eligible_loops():
                spent = 0.0
                for clusters, buses, latency, policy in scenarios():
                    config = (
                        unified_config()
                        if clusters == 1
                        else clustered_config(clusters, buses, latency)
                    )
                    point = scenario_for(loop, config, "bsa", UnrollPolicy(policy))
                    t0 = time.perf_counter()
                    result = execute_point(point, loop)
                    spent += time.perf_counter() - t0
                    sched = result.loop_result().schedule
                    key = scenario_key(loop.name, clusters, buses, latency, policy)
                    summary = [sched.ii, sched.stage_count, result.unroll_factor]
                    if points.setdefault(key, summary) != summary:
                        raise SystemExit(f"{key}: schedules differ between passes")
                best = min(spent, per_loop.get(loop.name, spent))
                per_loop[loop.name] = round(best, 4)
                print(f"{loop.name}: {spent:.3f}s", flush=True)
    doc = {
        "grid": "fig8 --quick (bsa)",
        "points": points,
        "loop_cost_s": costs,
        "strata": {name: strata(per_loop) for name, per_loop in costs.items()},
    }
    EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{len(points)} points -> {EXPECTED_PATH}")


if __name__ == "__main__":
    main()
