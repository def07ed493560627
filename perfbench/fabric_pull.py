"""The ``fabric_pull`` workload: an embedded coordinator and one worker.

The benchmark process hosts a ``SchedulingService`` and its
``ServiceServer`` (the ``sweep --distributed`` set-up); one
``repro-vliw worker`` subprocess pulls shards from it.  Each pass resolves
the grid of cheap no-unrolling points, in the seed's order, from an empty
cache through ``ExperimentContext.run_grid`` with the coordinator as
executor, so every point crosses the lease and post protocol as JSON over
HTTP and is committed first-write-wins.  Timing starts after the worker's first lease
poll; its start-up is set-up.  Throughput is the median over passes of
their busy time (``common.busy_s``: wall time less CPU steal), so a pass
that straddled a slow spell of the host counts once.
"""

from __future__ import annotations

import json
import statistics
import threading
import time

#: A pass over the 552-point grid takes ~3.3 s.
PASS_S = 3.3

#: Worker starts per run; ``setup_s`` is their median spawn-to-first-poll.
SETUPS = 3


def start_worker(run, service, url: str, worker_id: str, spans: str | None = None):
    """Spawn a worker; returns ``(proc, setup_s)`` once it has polled."""
    from perfbench.common import busy_s, clock

    argv = ["-m", "perfbench.launcher"]
    if spans:
        argv += ["--spans", spans, "--trace-id", "fabric"]
    argv += ["--", "worker", "--coordinator", url, "--id", worker_id, "--quiet"]
    spawned = clock()
    proc = run.spawn(argv)
    deadline = spawned[0] + 60
    while worker_id not in service.fabric.stats()["workers"]:
        if proc.poll() is not None or time.monotonic() > deadline:
            raise RuntimeError(f"worker {worker_id} never polled")
        time.sleep(0.002)
    return proc, busy_s(spawned, clock())


def render(ctx, items) -> str:
    """One row per point, the table ``sweep`` style front ends print."""
    from repro.perf import report

    rows = []
    for point, _loop in items:
        sched = ctx.memo[point.canonical()].schedule
        rows.append(
            {
                "loop": point.loop,
                "machine": sched.config.name,
                "scheduler": point.scheduler,
                "ii": sched.ii,
                "stage_count": sched.stage_count,
            }
        )
    return report.format_table(rows, title="Fabric grid")


def one_pass(run, service, seed: int, tally, rec=None) -> dict:
    """Resolve the grid once, cold; returns timings and results."""
    from perfbench.common import busy_s, clock
    from perfbench.inputs import fabric_grid
    from repro.experiments.common import ExperimentContext
    from repro.runner.cache import ResultCache

    items, input_digest = fabric_grid(seed)
    cache = ResultCache(run.mkdir(f"fabric-cache-{time.monotonic_ns()}"))
    meta: dict = {}
    results: dict = {}

    def execute(misses, **kwargs):
        kwargs["meta_out"] = meta
        done = service.fabric.execute(misses, **kwargs)
        results.update(done)
        return done

    ctx = ExperimentContext(suite=[], cache=cache, jobs=1, executor=execute)
    before = service.fabric.stats()["counters"]
    window = rec.begin("bench.window") if rec is not None else None
    t0 = clock()
    stats = ctx.run_grid(items)
    table = render(ctx, items)
    t1 = clock()
    if window is not None:
        rec.end(window)
    elapsed = busy_s(t0, t1)
    wall = t1[0] - t0[0]
    after = service.fabric.stats()["counters"]
    tally.check(
        cache.hits == 0 and stats.cached == 0,
        f"fabric pass read {cache.hits} cache entries",
    )
    tally.check(
        stats.executed == len(results) == len(items),
        f"fabric pass executed {stats.executed} of {len(items)} points",
    )
    # Worker requests on the protocol: a claim and a post per lease, plus
    # renewals.  Idle polls between passes are not timed.
    requests = 2 * (after["leases_issued"] - before["leases_issued"]) + (
        after["leases_renewed"] - before["leases_renewed"]
    )
    return {
        "elapsed": elapsed,
        "wall": wall,
        "stolen": t1[1] - t0[1],
        "requests": requests,
        "items": items,
        "digest": input_digest,
        "results": results,
        # The worker's own wall time per point: steal, counted in 10 ms
        # ticks, is too coarse to charge to a 2 ms point.
        "latencies_ms": [m["wall_s"] * 1e3 for m in meta.values()],
        "table": table,
    }


def check_against_local(passes: list[dict], seed: int, tally) -> None:
    """Every fabric result equals an in-process ``run_sweep`` of the grid."""
    from perfbench.inputs import fabric_grid
    from repro.runner.engine import run_sweep

    items, _digest = fabric_grid(seed)
    local, _stats = run_sweep(items, jobs=1, cache=None)
    for one in passes:
        for key, result in one["results"].items():
            tally.check(
                result.to_dict() == local[key].to_dict(),
                f"fabric result differs from run_sweep: {key}",
            )


def mean_ipc(one: dict) -> float:
    from repro.perf.model import LoopPerformance

    ipcs = []
    for point, loop in one["items"]:
        result = one["results"][point.canonical()]
        sched = result.loop_result().schedule
        ipcs.append(
            LoopPerformance(
                loop_name=loop.name,
                ii=sched.ii,
                stage_count=sched.stage_count,
                unroll_factor=result.unroll_factor,
                trip_count=loop.trip_count,
                times_executed=loop.times_executed,
                ops_per_iteration=loop.ops_per_iteration,
            ).ipc
        )
    return sum(ipcs) / len(ipcs)


def run_fabric_workload(run, seed: int, seconds: int, trace: bool) -> dict:
    from perfbench.common import peak_rss_mb, stop
    from perfbench.stats import Tally, latency_summary, least_stolen_half
    from repro.service import SchedulingService, ServiceServer

    passes = max(3, round(seconds / PASS_S))
    tally = Tally()
    service = SchedulingService(cache=None, workers=0)
    server = ServiceServer(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        setups = []
        for k in range(SETUPS):
            worker, setup_s = start_worker(run, service, server.url, f"w{k}")
            setups.append(setup_s)
            if k < SETUPS - 1:
                stop(worker, interrupt=True)
        plain = [one_pass(run, service, seed, tally) for _ in range(passes)]
        rss = peak_rss_mb(worker.pid)
        stop(worker, interrupt=True)
        traced = []
        if trace:
            from perfbench.tracing import Recorder, install

            rec = Recorder(trace_id="fabric")
            install(rec)
            spans_path = str(run.path / "worker-spans.json")
            worker, _setup = start_worker(
                run, service, server.url, "traced", spans=spans_path
            )
            traced = [one_pass(run, service, seed, tally, rec) for _ in range(passes)]
            stop(worker, interrupt=True)
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(10)
    check_against_local(plain + traced, seed, tally)
    for one in plain + traced:
        tally.check(one["digest"] == plain[0]["digest"], "grid differs between passes")
        tally.check(one["table"] == plain[0]["table"], "table differs between passes")

    pass_s = statistics.median(one["elapsed"] for one in plain)
    latencies = least_stolen_half([(one["stolen"], one["latencies_ms"]) for one in plain])
    p50, tail_q, tail = latency_summary(latencies)
    result = {
        "digest": plain[0]["digest"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "notes": [
            f"latency unit: one point on the worker; tail = p{tail_q * 100:g} "
            f"of {len(latencies)} (the passes with the least steal)",
            f"{len(plain[0]['items'])} points per pass, {len(plain)} pass(es)",
            f"timed: {sum(one['elapsed'] for one in plain):.3f} s busy of "
            f"{sum(one['wall'] for one in plain):.3f} s wall (the rest was CPU steal)",
        ],
        "metrics": {
            "setup_s": statistics.median(setups),
            "points_per_s": len(plain[0]["items"]) / pass_s,
            "requests_per_s": statistics.median(
                one["requests"] / one["elapsed"] for one in plain
            ),
            "latency_p50_ms": p50,
            "latency_tail_ms": tail,
            "peak_rss_mb": rss,
            "mean_ipc": mean_ipc(plain[0]),
        },
    }
    if trace:
        from perfbench.inputs import fabric_grid
        from perfbench.tracing import layer_metrics

        with open(spans_path) as fh:
            worker_doc = json.load(fh)
        layers = layer_metrics(rec.export() + worker_doc["spans"])
        traced_s = statistics.median(one["elapsed"] for one in traced)
        layers["trace_overhead_ratio"] = traced_s / pass_s - 1.0
        layers["cli.import_s"] = worker_doc["import_s"]
        t0 = time.monotonic()
        fabric_grid(seed)
        layers["workloads.build_s"] = time.monotonic() - t0
        result["layers"] = layers
    return result
