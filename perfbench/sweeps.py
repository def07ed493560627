"""The ``sweep_cold`` and ``sweep_warm`` workloads.

Both resolve the seed's slice of the fig8 --quick grid through
``run_fig8`` and render the two Figure 8 tables, each pass through a fresh
``ExperimentContext`` (``jobs=1``) and a temp ``ResultCache``, in a fresh
interpreter started by the parent (``python -m perfbench.sweeps``):

* ``sweep_cold`` starts one interpreter per pass, on an empty cache, so
  every point is scheduled and written and none is read;
* ``sweep_warm`` starts two interpreters; each fills its cache with one
  cold pass during set-up and then times replays that must read every
  point and produce byte-identical tables.

A "request" is one pass over the slice, the wait behind one
``repro-vliw fig8`` call restricted to it.  Throughput and latency are
medians over passes of busy time (``common.busy_s``: wall time less CPU
steal) on the reference host (``common.Pace``: the interpreter is pinned
to one vCPU and samples its speed), so neither steal nor a slow spell of
the vCPU moves them.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

#: Scheduling-heavy passes are ~5 s; replays ~0.25 s.
COLD_PASS_S = 5.0
WARM_REPLAYS_PER_S = 4

#: Interpreters per ``sweep_warm`` run; ``setup_s`` is their median.
WARM_CHILDREN = 2

TITLES = ("Figure 8: IPC per program", "Figure 8: averages")


def render(points) -> str:
    """The two tables ``repro-vliw fig8`` prints."""
    from repro.experiments import fig8
    from repro.perf import report

    return "\n\n".join(
        (
            report.format_table(fig8.fig8_rows(points), title=TITLES[0]),
            report.format_table(fig8.average_ipc(points), title=TITLES[1]),
        )
    )


def expected_mean_ipc(suite, expected: dict) -> float:
    """``mean_ipc`` of the slice from the recorded per-point summary."""
    from perfbench.inputs import FIG8_QUICK, scenario_key
    from repro.perf.model import LoopPerformance, ProgramPerformance

    cells = []
    scenarios = [(1, 1, 1, "no-unrolling")]
    for clusters in (2, 4):
        for policy in ("no-unrolling", "unroll-all", "selective-unrolling"):
            for buses in FIG8_QUICK["bus_counts"]:
                for latency in FIG8_QUICK["latencies"]:
                    scenarios.append((clusters, buses, latency, policy))
    for clusters, buses, latency, policy in scenarios:
        for program in suite:
            loops = []
            for loop in program.eligible_loops():
                key = scenario_key(loop.name, clusters, buses, latency, policy)
                ii, stage_count, unroll = expected["points"][key]
                loops.append(
                    LoopPerformance(
                        loop_name=loop.name,
                        ii=ii,
                        stage_count=stage_count,
                        unroll_factor=unroll,
                        trip_count=loop.trip_count,
                        times_executed=loop.times_executed,
                        ops_per_iteration=loop.ops_per_iteration,
                    )
                )
            cells.append(ProgramPerformance(program.name, tuple(loops)).ipc)
    return sum(cells) / len(cells)


def check_points(ctx, tally, expected: dict) -> None:
    """Every emitted schedule verifies and matches the recorded summary."""
    from perfbench.inputs import FIG8_QUICK, scenario_key
    from repro.core.verify import verify_schedule
    from repro.errors import VerificationError
    from repro.experiments import fig8

    for point, loop in fig8.fig8_grid(ctx, **FIG8_QUICK):
        result = ctx.memo[point.canonical()]
        try:
            verify_schedule(result.schedule)
            verified = True
        except VerificationError as exc:
            verified = False
            reason = f"{point.describe()}: {exc}"
        if not tally.check(verified, reason if not verified else ""):
            continue
        config = point.config()
        key = scenario_key(
            loop.name,
            config.n_clusters,
            config.buses.count,
            config.buses.latency,
            point.policy,
        )
        got = [result.schedule.ii, result.schedule.stage_count, result.unroll_factor]
        tally.check(
            got == expected["points"][key],
            f"{key}: (ii, sc, unroll) {got} != recorded {expected['points'][key]}",
        )


# ---------------------------------------------------------------------------
# Child: one fresh interpreter
# ---------------------------------------------------------------------------
def child(args: argparse.Namespace) -> dict:
    from perfbench.common import Pace, busy_s, clock

    pace = Pace()
    t0 = time.monotonic()
    import repro.cli  # noqa: F401

    import_s = time.monotonic() - t0
    from perfbench import inputs, tracing
    from perfbench.stats import Tally
    from repro.experiments import fig8
    from repro.experiments.common import ExperimentContext
    from repro.runner import engine
    from repro.runner.cache import ResultCache

    rec = None
    if args.spans:
        rec = tracing.Recorder(trace_id="sweep")
        tracing.install(rec)
    expected = inputs.load_expected()
    t0 = time.monotonic()
    suite, input_digest = inputs.sweep_slice(args.seed, expected)
    build_s = time.monotonic() - t0
    workdir = Path(args.workdir)
    tally = Tally()
    out: dict = {
        "import_s": import_s,
        "build_s": build_s,
        "digest": input_digest,
        "wall_s": 0.0,
        "elapsed_s": [],
    }

    def one_pass(cache: ResultCache, meta: dict | None, timed: bool = True):
        def execute(misses, **kwargs):
            kwargs["meta_out"] = meta
            return engine.execute_points(misses, **kwargs)

        ctx = ExperimentContext(
            suite=suite,
            cache=cache,
            jobs=1,
            executor=execute if meta is not None else None,
        )
        span = rec.begin(tracing.WINDOW) if rec is not None and timed else None
        t0 = clock()
        points = fig8.run_fig8(ctx, **inputs.FIG8_QUICK)
        tables = render(points)
        t1 = clock()
        if span is not None:
            rec.end(span)
        if timed:
            out["wall_s"] += t1[0] - t0[0]
            out["elapsed_s"].append(busy_s(t0, t1) * pace.scale(t0[0], t1[0]))
        return ctx, points, tables

    cold_cache = ResultCache(workdir / "cache")
    if args.mode == "cold":
        ready = clock()
        meta: dict = {}
        ctx, points, tables = one_pass(cold_cache, meta)
        tally.check(
            cold_cache.hits == 0 and ctx.stats.cached == 0,
            f"cold pass read {cold_cache.hits} cache entries",
        )
        tally.check(
            ctx.stats.executed == ctx.stats.total == len(meta),
            f"cold pass executed {ctx.stats.executed} of {ctx.stats.total} points",
        )
    else:
        ctx, points, cold_tables = one_pass(cold_cache, None, timed=False)
        ready = clock()
        for _ in range(args.replays):
            cache = ResultCache(workdir / "cache")
            replay, points, tables = one_pass(cache, None)
            tally.check(
                tables == cold_tables,
                "warm replay tables differ from the cold pass",
            )
            tally.check(
                replay.stats.executed == 0 and cache.misses == 0,
                f"warm replay executed {replay.stats.executed} point(s)",
            )
    out["setup_s"] = busy_s(tuple(args.spawned), ready) * pace.scale(
        args.spawned[0], ready[0]
    )
    out["points"] = ctx.stats.total
    check_points(ctx, tally, expected)
    entries = list((workdir / "cache").glob("*/*.json"))
    out["bytes_per_entry"] = sum(p.stat().st_size for p in entries) / len(entries)
    out["mean_ipc"] = sum(p.ipc for p in points) / len(points)
    want = expected_mean_ipc(suite, expected)
    tally.check(
        math.isclose(out["mean_ipc"], want, rel_tol=1e-12),
        f"mean_ipc {out['mean_ipc']!r} != recorded {want!r}",
    )
    out["tables_digest"] = inputs.digest(tables)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["tally"] = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
    }
    pace.close()
    if rec is not None:
        rec.dump(args.spans)
    return out


# ---------------------------------------------------------------------------
# Parent: the workloads
# ---------------------------------------------------------------------------
def _run_child(run, mode: str, seed: int, replays: int, traced: bool) -> dict:
    from perfbench.common import clock

    workdir = run.mkdir(f"{mode}-{len(run.children)}")
    result_path = workdir / "result.json"
    argv = [
        "-m", "perfbench.sweeps",
        "--mode", mode,
        "--seed", str(seed),
        "--replays", str(replays),
        "--workdir", str(workdir),
        "--out", str(result_path),
    ]
    if traced:
        argv += ["--spans", str(workdir / "spans.json")]
    argv += ["--spawned", *map(repr, clock())]
    proc = run.spawn(argv)
    proc.communicate(timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"sweep child ({mode}) exited {proc.returncode}")
    out = json.loads(result_path.read_text())
    if traced:
        out["spans"] = json.loads((workdir / "spans.json").read_text())
    return out


def run_sweep_workload(run, mode: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run of ``sweep_cold`` (*mode* ``cold``) or
    ``sweep_warm`` (``warm``); returns metrics and checks."""
    from perfbench.stats import latency_summary
    from perfbench.tracing import layer_metrics

    if mode == "cold":
        children, replays = max(3, round(seconds / COLD_PASS_S)), 1
    else:
        children = WARM_CHILDREN
        replays = max(1, round(seconds * WARM_REPLAYS_PER_S / children))
    # A traced interpreter follows each untraced one, so that the two see
    # the same host and trace_overhead_ratio compares like with like.
    plain, traced = [], []
    for _ in range(children):
        plain.append(_run_child(run, mode, seed, replays, False))
        if trace:
            traced.append(_run_child(run, mode, seed, replays, True))

    first = plain[0]
    failed = sum(c["tally"]["failed"] for c in plain + traced)
    attempted = sum(c["tally"]["attempted"] for c in plain + traced)
    reasons = [r for c in plain + traced for r in c["tally"]["reasons"]]
    for c in plain + traced:
        for key in ("digest", "tables_digest", "mean_ipc"):
            attempted += 1
            if c[key] != first[key]:
                failed += 1
                reasons.append(f"{key} differs between passes of one seed")

    elapsed = [e for c in plain for e in c["elapsed_s"]]
    pass_s = statistics.median(elapsed)
    p50, tail_q, tail = latency_summary([e * 1e3 for e in elapsed])
    result = {
        "digest": first["digest"],
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "notes": [
            f"latency unit: one pass; tail = p{tail_q * 100:g} of {len(elapsed)}",
            f"{first['points']} distinct points per pass, {len(elapsed)} timed "
            f"pass(es) in {len(plain)} interpreter(s)",
            f"timed: {sum(elapsed):.3f} s on the reference host, "
            f"{sum(c['wall_s'] for c in plain):.3f} s by the wall clock",
        ],
        "metrics": {
            "setup_s": statistics.median(c["setup_s"] for c in plain),
            "points_per_s": first["points"] / pass_s,
            "requests_per_s": 1.0 / pass_s,
            "latency_p50_ms": p50,
            "latency_tail_ms": tail,
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in plain),
            "mean_ipc": first["mean_ipc"],
        },
    }
    if trace:
        spans = [s for c in traced for s in c["spans"]]
        layers = layer_metrics(spans)
        traced_s = statistics.median(e for c in traced for e in c["elapsed_s"])
        layers["trace_overhead_ratio"] = traced_s / pass_s - 1.0
        layers["cli.import_s"] = statistics.median(c["import_s"] for c in traced)
        layers["workloads.build_s"] = statistics.median(c["build_s"] for c in traced)
        layers["runner.cache.bytes_per_entry"] = first["bytes_per_entry"]
        result["layers"] = layers
    return result


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("cold", "warm"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--replays", type=int, default=1)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument(
        "--spawned", type=float, nargs=2, required=True,
        help="the parent's clock() reading when it started this interpreter",
    )
    args = parser.parse_args(argv)
    Path(args.out).write_text(json.dumps(child(args)))


if __name__ == "__main__":
    sys.exit(main())
