"""The program surface the benchmark (``perfbench/``) relies on.

The benchmark times layers from outside by wrapping public functions
and methods by name, and plugs its own executors into ``run_sweep``.
Renaming one of those names or changing the hook's keywords would only
break a traced benchmark run; these tests make it break tier-1 instead.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from pathlib import Path

from repro.arch.configs import two_cluster_config
from repro.core.selective import UnrollPolicy
from repro.experiments import ExperimentContext, fig8_grid, run_fig8
from repro.fabric.coordinator import FabricCoordinator
from repro.runner.cache import ResultCache
from repro.runner.engine import SweepStats, execute_points, run_sweep
from repro.runner.scenario import scenario_for
from repro.workloads.kernels import kernel_loop
from repro.workloads.registry import workload

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_wrapped_name():
    """``perfbench.tracing.install`` finds every function it wraps."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    code = "from perfbench import tracing; tracing.install(tracing.Recorder())"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_execute_hook_keywords_bind_to_both_executors():
    """What ``run_sweep`` passes its hook, both executors accept."""
    loop = kernel_loop("daxpy", trip_count=20)
    point = scenario_for(loop, two_cluster_config(), "bsa", UnrollPolicy.NONE)
    calls = []

    def spy(misses, **kwargs):
        calls.append((misses, kwargs))
        return execute_points(misses, **kwargs)

    results, stats = run_sweep([(point, loop)], execute=spy)
    assert stats.executed == 1
    [(misses, kwargs)] = calls
    assert set(kwargs) == {"jobs", "cache", "prior_for", "meta_out"}
    assert set(kwargs["meta_out"]) == set(results)
    inspect.signature(execute_points).bind(misses, **kwargs)
    inspect.signature(FabricCoordinator.execute).bind(None, misses, **kwargs)


def test_run_grid_returns_the_sweep_stats(tmp_path):
    """``fabric_pull`` reads ``cached`` and ``executed`` off ``run_grid``."""
    loop = kernel_loop("daxpy", trip_count=20)
    items = [
        (scenario_for(loop, two_cluster_config(), "bsa", policy), loop)
        for policy in UnrollPolicy
    ]
    cache = ResultCache(tmp_path / "cache", code_version="contract")
    cold = ExperimentContext(suite=[], cache=cache).run_grid(items)
    assert isinstance(cold, SweepStats)
    assert cold.executed == cold.total == len(items)
    warm = ExperimentContext(suite=[], cache=cache).run_grid(items)
    assert warm.cached == warm.total == len(items)


def test_fig8_leaves_every_grid_point_in_the_memo():
    """``sweeps.check_points`` reads ``ctx.memo[point.canonical()]`` for
    every point of the Figure 8 grid after ``run_fig8``."""
    dims = {"cluster_counts": (2,), "bus_counts": (1,), "latencies": (1,)}
    ctx = ExperimentContext(suite=[workload("swim").factory()])
    run_fig8(ctx, **dims)
    for point, _loop in fig8_grid(ctx, **dims):
        result = ctx.memo[point.canonical()]
        assert result.schedule.ii >= 1 and result.unroll_factor >= 1
