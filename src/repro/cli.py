"""Command-line entry point: ``repro-vliw <command>``.

Commands map one-to-one onto the paper's artefacts::

    repro-vliw table1              # machine configurations
    repro-vliw table2 [--buses N]  # cycle-time model
    repro-vliw fig4  [--quick]     # bus-sensitivity sweep
    repro-vliw fig7                # unrolling walk-through examples
    repro-vliw fig8  [--quick]     # per-program IPC grid
    repro-vliw fig9  [--quick]     # cycle-time-aware speed-ups
    repro-vliw fig10 [--quick]     # code-size impact
    repro-vliw gap   [--quick]     # heuristic-vs-optimal II/MaxLive table
    repro-vliw schedule KERNEL [--scheduler NAME]
                                   # schedule a named kernel and print it
    repro-vliw schedule --list     # the kernel and scheduler catalogues
    repro-vliw simulate KERNEL [--niter N] [--miss-rate R]
                                   # execute the emitted code cycle by cycle
    repro-vliw schedule FILE.loop  # schedule a textual loop-IR program
    repro-vliw simulate FILE.loop  # ... and run its renamed kernel
    repro-vliw workloads [--tag T] # the full workload registry
    repro-vliw crossval [--quick]  # Figure 8 grid re-run under simulation
    repro-vliw sweep GRID          # run any declared grid via the runner
    repro-vliw sweep GRID --distributed
                                   # same grid on fabric workers (byte-identical)
    repro-vliw worker --coordinator URL
                                   # pull-based sweep worker for the fabric
    repro-vliw report FILE         # aggregate a recorded run report
    repro-vliw cache [stats|clear|gc]
                                   # inspect / wipe / prune the result cache
    repro-vliw serve               # persistent scheduling service (HTTP)
    repro-vliw submit KERNEL       # schedule via a running service
    repro-vliw loadtest            # drive N concurrent synthetic clients

The figure verbs (fig4, fig8, fig9, fig10, crossval) run their named
grid from :data:`repro.runner.grids.GRIDS`, the same declaration
``repro-vliw sweep NAME`` runs, and print exactly what it prints.

Every grid command (fig4/fig8/fig9/fig10, gap, crossval, sweep) executes
through the parallel, cache-backed runner: ``--jobs N`` shards the work
across N worker processes, results persist in the on-disk cache
(``~/.cache/repro-vliw`` or ``$REPRO_VLIW_CACHE``) so repeated and
interrupted runs resume from what is already computed, ``--fresh``
recomputes ignoring cached entries, and ``--no-cache`` disables
persistence entirely.  ``--quick`` trims sweeps (fewer bus counts /
cluster counts) for fast inspection; full runs regenerate exactly what
EXPERIMENTS.md records.

``--report-out FILE`` on any grid command records a structured run
report (one record per scenario point: II, MII, MaxLive, cache source,
wall time, trace id) that ``repro-vliw report FILE`` aggregates into
per-kernel / per-config / per-scheduler tables.
"""

from __future__ import annotations

import argparse
import sys

from .arch.configs import clustered_config
from .codegen.vliw import render_schedule
from .core.verify import verify_schedule
from .errors import ParseError, ReproError, WorkloadError
from .experiments import (
    ExperimentContext,
    fig7_rows,
    render_gap,
    run_fig7,
    run_fig7_ladder,
    run_gap,
    run_table1,
    run_table2,
)
from .codegen.rename import rename_kernel
from .ir.frontend import LOOP_SUFFIX, parse_file
from .ir.unroll import unroll_graph
from .perf.report import format_table
from .runner import GRIDS, SCHEDULERS, ResultCache, make_scheduler, scheduler_table
from .sim import PerfectMemory, RandomMissMemory, crosscheck_schedule
from .workloads.kernels import resolve_kernel
from .workloads.registry import workload_table


def _cache(args: argparse.Namespace) -> ResultCache | None:
    """The result cache selected by the command's flags."""
    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None)
    return ResultCache(cache_dir)


def _ctx(args: argparse.Namespace) -> ExperimentContext:
    """An experiment context wired to the CLI's cache/jobs/fresh flags."""
    recorder = None
    if getattr(args, "report_out", None):
        from .obs.report import RunRecorder

        recorder = RunRecorder()
    return ExperimentContext(
        cache=_cache(args),
        jobs=getattr(args, "jobs", 1),
        fresh=getattr(args, "fresh", False),
        recorder=recorder,
    )


def _write_report(args: argparse.Namespace, ctx: ExperimentContext, sweep: str) -> None:
    """Save the context's recorded run report when --report-out was given."""
    out = getattr(args, "report_out", None)
    if not out or ctx.recorder is None:
        return
    from pathlib import Path

    report = ctx.recorder.report(sweep=sweep)
    report.save(Path(out))
    print(f"run report ({len(report.records)} point(s)) -> {out}", file=sys.stderr)


def _sweep_flags(parser: argparse.ArgumentParser) -> None:
    """The shared runner flags: --jobs / --fresh / --no-cache / --cache-dir."""
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the sweep (default: 1, in-process)",
    )
    parser.add_argument(
        "--fresh", action="store_true",
        help="recompute every point, ignoring cached results",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="cache directory (default: $REPRO_VLIW_CACHE or ~/.cache/repro-vliw)",
    )
    parser.add_argument(
        "--report-out", default=None, metavar="FILE",
        help="record a structured run report (for: repro-vliw report FILE)",
    )


def cmd_table1(_args: argparse.Namespace) -> None:
    print(format_table(run_table1(), title="Table 1: configurations"))


def cmd_table2(args: argparse.Namespace) -> None:
    rows = run_table2(n_buses=args.buses)
    print(format_table(rows, title="Table 2: cycle times (ps)", floatfmt=".1f"))


def cmd_fig7(_args: argparse.Namespace) -> None:
    case = run_fig7()
    print(format_table(fig7_rows(case), title="Figure 7 (paper 6-node graph)"))
    print()
    case = run_fig7_ladder()
    print(format_table(fig7_rows(case), title="Figure 7 (ladder variant)"))


def _run_grid(args: argparse.Namespace, spec, executor=None) -> str:
    """Run one named grid in a context wired to the runner flags.

    Prints the rendered tables and the stats line, saves the run report
    when ``--report-out`` asks for one, and returns the tables.
    *executor* overrides where the misses run (the embedded fabric).
    """
    ctx = _ctx(args)
    ctx.executor = executor
    output = spec.run(ctx, args.quick)
    print(output)
    print(f"\n[{ctx.stats.render()}]")
    _write_report(args, ctx, spec.name)
    return output


def cmd_grid(args: argparse.Namespace) -> None:
    """The figure verbs (fig4, fig8, fig9, fig10, crossval): run their grid."""
    _run_grid(args, GRIDS[args.command])


def cmd_gap(args: argparse.Namespace) -> None:
    ctx = _ctx(args)
    points = run_gap(ctx, quick=args.quick)
    print(render_gap(points, args.format))
    if args.format == "text":
        print(f"\n[{ctx.stats.render()}]")
    _write_report(args, ctx, "gap")


def _resolve_kernel_or_exit(name: str):
    try:
        return resolve_kernel(name)[1]
    except WorkloadError as exc:
        sys.exit(str(exc))  # includes the did-you-mean suggestion
    except KeyError as exc:
        sys.exit(str(exc.args[0]))


def _loop_file_or_none(name: str, command: str):
    """Parse *name* as a ``.loop`` program when it denotes a file.

    Anything ending in ``.loop`` (or any path to an existing file) goes
    through the textual frontend; plain names fall back to the workload
    registry.  Returns the parsed :class:`~repro.ir.loop.Loop` or
    ``None``.
    """
    import os

    if not (name.endswith(LOOP_SUFFIX) or os.path.sep in name or os.path.isfile(name)):
        return None
    try:
        return parse_file(name)
    except ParseError as exc:
        sys.exit(f"{command}: {exc}")


def _schedule_kernel(args: argparse.Namespace, graph):
    name = getattr(args, "scheduler", "bsa")
    try:
        config = clustered_config(args.clusters, args.buses, args.latency)
        scheduler = make_scheduler(name, config)
    except ValueError as exc:
        sys.exit(f"{args.command}: {exc}")
    except KeyError:
        sys.exit(
            f"schedule: unknown scheduler {name!r}; known: {sorted(SCHEDULERS)}"
        )
    sched = scheduler.schedule(graph)
    verify_schedule(sched)
    return sched


def cmd_schedule(args: argparse.Namespace) -> None:
    if args.list:
        print(format_table(workload_table("kernel"), title="Kernels (tag=kernel)"))
        print()
        print(
            format_table(
                scheduler_table(), title="Schedulers (--scheduler NAME)"
            )
        )
        return
    if not args.kernel:
        sys.exit("schedule: a KERNEL name or FILE.loop is required (or use --list)")
    loop = _loop_file_or_none(args.kernel, "schedule")
    if loop is not None:
        graph = loop.graph
    else:
        graph = _resolve_kernel_or_exit(args.kernel)()
    try:
        sched = _schedule_kernel(args, graph)
    except ReproError as exc:
        sys.exit(f"schedule: {exc}")
    print(sched.describe())
    print()
    print(render_schedule(sched))


def cmd_simulate(args: argparse.Namespace) -> None:
    loop = _loop_file_or_none(args.kernel, "simulate")
    if loop is not None:
        graph = loop.graph
        if args.niter == -1:
            args.niter = loop.trip_count
    else:
        graph = _resolve_kernel_or_exit(args.kernel)()
    if args.niter == -1:
        args.niter = 100
    source_ops = len(graph)
    try:
        if args.unroll > 1:
            graph = unroll_graph(graph, args.unroll)
        sched = _schedule_kernel(args, graph)
        memory = (
            RandomMissMemory(args.miss_rate, args.miss_penalty, args.seed)
            if args.miss_rate > 0.0
            else PerfectMemory()
        )
        check = crosscheck_schedule(
            sched,
            args.niter,
            unroll_factor=args.unroll,
            ops_per_source_iteration=source_ops,
            memory=memory,
        )
    except (ValueError, ReproError) as exc:
        sys.exit(f"simulate: {exc}")
    print(check.report.render())
    print()
    print(check.render())
    if loop is not None:
        # Frontend programs get the full executable artefact: the
        # MVE-unrolled, register-renamed kernel the simulator timed.
        print()
        print(rename_kernel(sched).render())


def cmd_workloads(args: argparse.Namespace) -> None:
    rows = workload_table(args.tag)
    if not rows:
        sys.exit(f"workloads: no workloads tagged {args.tag!r}")
    title = "Workload registry" + (f" (tag={args.tag})" if args.tag else "")
    print(format_table(rows, title=title))


def cmd_sweep(args: argparse.Namespace) -> None:
    if args.list or not args.grid:
        rows = [
            {"grid": spec.name, "description": spec.description}
            for spec in GRIDS.values()
        ]
        print(format_table(rows, title="Declared grids (repro-vliw sweep GRID)"))
        if not args.list and not args.grid:
            sys.exit("sweep: a GRID name is required (or use --list)")
        return
    spec = GRIDS.get(args.grid)
    if spec is None:
        sys.exit(f"sweep: unknown grid {args.grid!r}; known: {sorted(GRIDS)}")
    if args.coordinator and not args.distributed:
        sys.exit("sweep: --coordinator requires --distributed")
    if args.distributed:
        output = _distributed_sweep(args, spec)
    else:
        output = _run_grid(args, spec)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(output + "\n")
        print(f"rendered output -> {args.out}", file=sys.stderr)


def _distributed_sweep(args: argparse.Namespace, spec) -> str:
    """Run one grid on the fabric; returns (and prints) the rendered output.

    Two modes:

    * ``--coordinator URL`` — submit the grid as a distributed job to a
      *running* ``repro-vliw serve`` instance and let its fabric (and
      whatever workers are pulling from it) execute the misses.
    * no ``--coordinator`` — start an **embedded** coordinator: serve on
      ``--host``/``--port``, print the ``repro-vliw worker`` line to
      attach workers, run the grid through the fabric, shut down.  The
      sweep blocks until workers complete it (or ``--timeout`` passes).
    """
    from .errors import ServiceError

    if args.coordinator:
        from .fabric.worker import client_from_url

        try:
            client = client_from_url(args.coordinator, timeout=args.timeout)
        except ValueError as exc:
            sys.exit(f"sweep: {exc}")
        try:
            if not client.wait_until_healthy(timeout=10.0):
                sys.exit(f"sweep: no service answering at {client.base_url}")
            doc = client.sweep(
                grid=spec.name,
                quick=args.quick,
                distributed=True,
                timeout_s=args.timeout,
            )
            if doc["status"] in ("queued", "running"):
                doc = client.poll_job(doc["job"], timeout=args.timeout)
        except ServiceError as exc:
            sys.exit(f"sweep: {exc}")
        finally:
            client.close()
        if doc["status"] != "done":
            sys.exit(
                f"sweep: job {doc.get('job')} ended {doc['status']!r}: "
                f"{doc.get('error')}"
            )
        print(doc["output"])
        return doc["output"]

    import threading

    from .service import SchedulingService, ServiceServer

    service = SchedulingService(
        cache=_cache(args),
        workers=0,
        fabric_opts={"sweep_timeout_s": args.timeout},
    )
    try:
        server = ServiceServer(service, args.host, args.port)
    except OSError as exc:
        service.close()
        sys.exit(f"sweep: cannot bind {args.host}:{args.port}: {exc}")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(
        f"coordinator listening on {server.url} — attach workers with:\n"
        f"  repro-vliw worker --coordinator {server.url}",
        file=sys.stderr,
        flush=True,
    )
    try:
        return _run_grid(args, spec, service.fabric.execute)
    except ServiceError as exc:
        sys.exit(f"sweep: {exc}")
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(5.0)


def cmd_worker(args: argparse.Namespace) -> None:
    from .errors import ServiceError
    from .fabric.worker import FabricWorker, WorkerDied

    progress = None
    if not args.quiet:
        progress = lambda msg: print(f"[{msg}]", file=sys.stderr, flush=True)  # noqa: E731
    try:
        worker = FabricWorker(
            args.coordinator,
            worker_id=args.id,
            max_shards=args.max_shards,
            fail_after=args.fail_after,
            idle_exit_s=args.idle_exit,
            timeout=args.timeout,
            wait_healthy_s=args.wait_healthy,
            progress=progress,
        )
    except ValueError as exc:
        sys.exit(f"worker: {exc}")
    try:
        stats = worker.run()
    except WorkerDied as exc:
        print(worker.stats.render(), file=sys.stderr)
        sys.exit(f"worker: {exc}")
    except ServiceError as exc:
        sys.exit(f"worker: {exc}")
    except KeyboardInterrupt:
        print(worker.stats.render(), file=sys.stderr)
        sys.exit(130)
    print(stats.render())


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def cmd_serve(args: argparse.Namespace) -> None:
    import signal

    from .service import SchedulingService, ServiceServer

    service = SchedulingService(cache=_cache(args), workers=args.workers)
    try:
        server = ServiceServer(
            service, args.host, args.port, quiet=not args.verbose
        )
    except OSError as exc:
        service.close()
        sys.exit(f"serve: cannot bind {args.host}:{args.port}: {exc}")
    cache_line = (
        str(service.cache.root) if service.cache is not None else "disabled"
    )
    # SIGTERM, and SIGINT even when a shell started the server in the
    # background with SIGINT ignored, stop it the way Ctrl-C does.
    previous = {
        sig: signal.signal(sig, _interrupt) for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        print(
            f"repro-vliw service listening on {server.url} "
            f"(workers={service.workers}, cache={cache_line})",
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down (finishing the batch in flight) ...", flush=True)
    finally:
        server.server_close()
        service.close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _service_client(args: argparse.Namespace):
    from .service import ServiceClient

    return ServiceClient(args.host, args.port, timeout=args.timeout)


def cmd_submit(args: argparse.Namespace) -> None:
    import json as _json

    from .errors import ServiceError

    payload = {
        "kernel": args.kernel,
        "clusters": args.clusters,
        "buses": args.buses,
        "latency": args.latency,
        "scheduler": args.scheduler,
        "policy": args.policy,
    }
    if args.simulate:
        payload.update(
            simulate=True,
            niter=args.niter,
            miss_rate=args.miss_rate,
            miss_penalty=args.miss_penalty,
            seed=args.seed,
        )
    client = _service_client(args)
    try:
        if args.no_wait:
            doc = client.schedule(payload, wait=False)
            print(f"queued {doc['job']} (poll GET /jobs/{doc['job']})")
            return
        doc = client.schedule(payload)
    except ServiceError as exc:
        sys.exit(f"submit: {exc}")
    finally:
        client.close()
    if doc["status"] != "done":
        sys.exit(f"submit: job {doc.get('job')} ended {doc['status']!r}: "
                 f"{doc.get('error')}")
    result = doc["result"]
    if args.json:
        print(_json.dumps(result, indent=2, sort_keys=True))
        return
    print(result["rendered"])
    if result.get("sim") is not None:
        sim = result["sim"]
        print()
        print(
            f"simulated {sim['simulated_cycles']} cycles "
            f"(analytic {sim['analytic_cycles']}), "
            f"IPC {sim['simulated_ipc']:.3f}"
        )


def cmd_loadtest(args: argparse.Namespace) -> None:
    import json as _json

    from .errors import ServiceError
    from .service import run_loadtest

    client = _service_client(args)
    if not client.wait_until_healthy(timeout=args.wait_healthy):
        sys.exit(
            f"loadtest: no service answering at {client.base_url} "
            f"(start one with: repro-vliw serve --port {args.port})"
        )
    client.close()  # the loadtest opens its own connections
    try:
        report = run_loadtest(
            args.host,
            args.port,
            clients=args.clients,
            requests=args.requests,
            verify=not args.no_verify,
            timeout=args.timeout,
        )
    except (ServiceError, ValueError) as exc:
        sys.exit(f"loadtest: {exc}")
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(
            _json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"report -> {args.out}")
    if not report.ok:
        sys.exit(1)
    if report.hit_rate < args.min_hit_rate:
        sys.exit(
            f"loadtest: cache-hit rate {report.hit_rate:.1%} below required "
            f"{args.min_hit_rate:.1%}"
        )
    if args.max_p95_ms is not None and report.p95_s * 1e3 > args.max_p95_ms:
        sys.exit(
            f"loadtest: p95 latency {report.p95_s * 1e3:.1f}ms above allowed "
            f"{args.max_p95_ms:.1f}ms"
        )


def cmd_report(args: argparse.Namespace) -> None:
    from pathlib import Path

    from .obs.report import RunReport, render_report

    try:
        report = RunReport.load(Path(args.file))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        sys.exit(f"report: cannot load {args.file!r}: {exc}")
    try:
        print(render_report(report, by=args.by, fmt=args.format))
    except (KeyError, ValueError) as exc:
        sys.exit(f"report: {exc}")


def cmd_cache(args: argparse.Namespace) -> None:
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        print(cache.stats().render())
        return
    if args.action == "clear":
        removed, kind = cache.clear(), ""
    else:
        removed, kind = cache.gc(), "orphaned "
    print(f"removed {removed} {kind}cache entr{'y' if removed == 1 else 'ies'}")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-vliw`` argument parser with every subcommand registered."""
    parser = argparse.ArgumentParser(
        prog="repro-vliw",
        description="Reproduction of Sanchez & Gonzalez, ICPP 2000.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1").set_defaults(func=cmd_table1)
    p = sub.add_parser("table2")
    p.add_argument("--buses", type=int, default=1)
    p.set_defaults(func=cmd_table2)
    for name in ("fig4", "fig7", "fig8", "fig9", "fig10", "crossval"):
        p = sub.add_parser(name)
        if name == "fig7":
            p.set_defaults(func=cmd_fig7)
            continue
        p.add_argument("--quick", action="store_true")
        _sweep_flags(p)
        p.set_defaults(func=cmd_grid)
    p = sub.add_parser("gap")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--format", default="text",
                   choices=("text", "json", "markdown"),
                   help="output format (default: text)")
    _sweep_flags(p)
    p.set_defaults(func=cmd_gap)
    p = sub.add_parser(
        "sweep", help="run a declared scenario grid through the runner"
    )
    p.add_argument("grid", nargs="?", help=f"one of: {', '.join(sorted(GRIDS))}")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--list", action="store_true", help="list declared grids")
    p.add_argument("--distributed", action="store_true",
                   help="execute cache misses on fabric workers (pull-based) "
                        "instead of local processes; byte-identical output")
    p.add_argument("--coordinator", default=None, metavar="URL",
                   help="submit to a running repro-vliw serve instance "
                        "(default: start an embedded coordinator)")
    p.add_argument("--host", default="127.0.0.1",
                   help="embedded coordinator bind host (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8537,
                   help="embedded coordinator port (0 = ephemeral; default 8537)")
    p.add_argument("--timeout", type=float, default=900.0,
                   help="distributed sweep deadline in seconds (default: 900)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also write the rendered tables to FILE "
                        "(byte-identity checks diff these)")
    _sweep_flags(p)
    p.set_defaults(func=cmd_sweep)
    p = sub.add_parser(
        "worker",
        help="pull-based sweep worker: claim shards from a coordinator, "
             "execute, post results",
    )
    p.add_argument("--coordinator", default="http://127.0.0.1:8537",
                   metavar="URL",
                   help="coordinator URL (default: http://127.0.0.1:8537)")
    p.add_argument("--id", default=None,
                   help="worker identity in leases/stats (default: generated)")
    p.add_argument("--max-shards", type=int, default=None, metavar="N",
                   help="exit after completing N shards")
    p.add_argument("--fail-after", type=int, default=None, metavar="N",
                   help="die after executing N points (fault injection)")
    p.add_argument("--idle-exit", type=float, default=None, metavar="S",
                   help="exit after S seconds with no work (default: poll "
                        "until the coordinator goes away)")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-request HTTP timeout in seconds")
    p.add_argument("--wait-healthy", type=float, default=10.0,
                   help="seconds to wait for the coordinator's /healthz")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-shard progress lines")
    p.set_defaults(func=cmd_worker)
    p = sub.add_parser(
        "serve", help="run the persistent scheduling service (JSON over HTTP)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8537,
                   help="listen port (0 picks an ephemeral port; default 8537)")
    p.add_argument("--workers", type=int, default=2,
                   help="shared worker processes (0 = in-process execution)")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request to stderr")
    p.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk result cache",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="cache directory (default: $REPRO_VLIW_CACHE or ~/.cache/repro-vliw)",
    )
    p.set_defaults(func=cmd_serve)
    p = sub.add_parser(
        "submit", help="schedule a kernel through a running service"
    )
    p.add_argument("kernel")
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--buses", type=int, default=1)
    p.add_argument("--latency", type=int, default=1)
    p.add_argument("--scheduler", default="bsa")
    p.add_argument("--policy", default="none",
                   help="unrolling policy: none / all / selective")
    p.add_argument("--simulate", action="store_true",
                   help="also execute the schedule on the simulator")
    p.add_argument("--niter", type=int, default=100)
    p.add_argument("--miss-rate", type=float, default=0.0)
    p.add_argument("--miss-penalty", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-wait", action="store_true",
                   help="enqueue and print the job id instead of waiting")
    p.add_argument("--json", action="store_true",
                   help="print the raw JSON result payload")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8537)
    p.add_argument("--timeout", type=float, default=120.0)
    p.set_defaults(func=cmd_submit)
    p = sub.add_parser(
        "loadtest",
        help="drive concurrent synthetic clients against a running service",
    )
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--requests", type=int, default=64)
    p.add_argument("--no-verify", action="store_true",
                   help="skip the byte-identity check against the direct path")
    p.add_argument("--min-hit-rate", type=float, default=0.0, metavar="FRAC",
                   help="fail unless the cache-hit rate reaches FRAC (0..1)")
    p.add_argument("--max-p95-ms", type=float, default=None, metavar="MS",
                   help="fail if p95 request latency exceeds MS milliseconds")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also write the full report (latency histogram, "
                        "trace ids of failed requests) as JSON to FILE")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8537)
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-request HTTP timeout in seconds")
    p.add_argument("--wait-healthy", type=float, default=10.0,
                   help="seconds to wait for /healthz before giving up")
    p.set_defaults(func=cmd_loadtest)
    p = sub.add_parser(
        "report",
        help="aggregate a run report recorded with --report-out",
    )
    p.add_argument("file", help="run-report JSON written by --report-out")
    p.add_argument("--by", default="kernel",
                   choices=("kernel", "config", "scheduler", "policy"),
                   help="grouping dimension (default: kernel)")
    p.add_argument("--format", default="text",
                   choices=("text", "json", "markdown"),
                   help="output format (default: text)")
    p.set_defaults(func=cmd_report)
    p = sub.add_parser(
        "cache", help="result-cache statistics / clearing / orphan removal"
    )
    p.add_argument(
        "action", nargs="?", choices=("stats", "clear", "gc"), default="stats"
    )
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=cmd_cache)
    p = sub.add_parser("workloads")
    p.add_argument("--list", action="store_true",
                   help="list every registered workload (the default)")
    p.add_argument("--tag", default=None,
                   help="filter by registry tag (kernel, livermore, specfp, ...)")
    p.set_defaults(func=cmd_workloads)
    p = sub.add_parser("schedule")
    p.add_argument("kernel", nargs="?", metavar="KERNEL|FILE.loop")
    p.add_argument("--list", action="store_true",
                   help="list kernels, aliases and schedulers")
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--buses", type=int, default=1)
    p.add_argument("--latency", type=int, default=1)
    p.add_argument("--scheduler", default="bsa",
                   help="registered scheduler (see --list; default: bsa)")
    p.set_defaults(func=cmd_schedule)
    p = sub.add_parser("simulate")
    p.add_argument("kernel", metavar="KERNEL|FILE.loop")
    p.add_argument("--niter", type=int, default=-1,
                   help="iterations to simulate (default: the .loop trip "
                        "directive, else 100)")
    p.add_argument("--miss-rate", type=float, default=0.0)
    p.add_argument("--miss-penalty", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unroll", type=int, default=1)
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--buses", type=int, default=1)
    p.add_argument("--latency", type=int, default=1)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
