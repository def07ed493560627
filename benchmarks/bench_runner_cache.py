"""EXP-R1 — the runner's cache replay: warm figure data without scheduling.

Measures how fast a cached Figure 8 slice replays through
``repro.runner`` (deserialising schedules from the content-addressed
cache instead of rescheduling), and asserts the engine's contract: the
replayed rows are byte-identical to the cold run's and zero points are
executed the second time.
"""

import json

from conftest import save_result

from repro.experiments import ExperimentContext, fig8_rows, run_fig8
from repro.runner import ResultCache
from repro.workloads import resolve_workload

DIMS = dict(cluster_counts=(4,), bus_counts=(1,), latencies=(1, 4))


def _suite():
    return [resolve_workload(name, kind="program")[1]() for name in ("swim", "applu")]


def test_runner_cache_replay(benchmark, results_dir, tmp_path):
    cache = ResultCache(tmp_path / "cache", code_version="bench")
    cold_ctx = ExperimentContext(suite=_suite(), cache=cache)
    cold_rows = fig8_rows(run_fig8(cold_ctx, **DIMS))
    assert cold_ctx.stats.executed == cold_ctx.stats.total > 0

    def replay():
        ctx = ExperimentContext(suite=_suite(), cache=cache)
        return ctx, fig8_rows(run_fig8(ctx, **DIMS))

    warm_ctx, warm_rows = benchmark.pedantic(replay, rounds=3, iterations=1)
    assert warm_ctx.stats.executed == 0
    assert warm_ctx.stats.cached == warm_ctx.stats.total
    assert json.dumps(warm_rows, sort_keys=True) == json.dumps(
        cold_rows, sort_keys=True
    )

    stats = cache.stats()
    save_result(
        results_dir,
        "runner_cache.txt",
        "runner cache replay (fig8 slice, 2 programs): "
        f"{warm_ctx.stats.total} points, {stats.entries} cache entries, "
        f"{stats.total_bytes / 1024:.0f} KiB",
    )
