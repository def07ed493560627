"""The ``serve_http`` workload: one closed-loop client against a
``repro-vliw serve --workers 0`` subprocess.

The client keeps exactly one request in flight.  Every request runs HTTP
parsing, request validation, the dispatcher queue, the service memo,
rendering and -- on a miss -- the frontend, ``core`` and the simulator.
Mixed grid traffic and concurrent clients are left out: their tail
depends on how threads interleave.  Throughput is the median over
batches of consecutive requests, each with the same mix of fresh
requests, of their busy time (``common.busy_s``: wall time less CPU
steal), so a batch that straddled a slow spell of the host counts once.
"""

from __future__ import annotations

import json
import re
import statistics
import time
import uuid

from perfbench import inputs

#: Requests per second of ``--seconds``.  The closed loop runs at ~350/s,
#: so the stream takes about 60% of it and a slower commit still fits.
REQUESTS_PER_S = 200

#: Requests per throughput sample: a whole number of fresh-request pairs.
BATCH = 4 * inputs.FRESH_EVERY

#: Server starts per run; ``setup_s`` is their median spawn-to-healthy time.
SETUPS = 3


def start_server(run, cache_dir, spans: str | None = None):
    """Spawn a server on an ephemeral port; returns ``(proc, port, setup_s)``."""
    from perfbench.common import busy_s, clock
    from repro.service.client import ClientError, ServiceClient

    argv = ["-m", "perfbench.launcher"]
    if spans:
        argv += ["--spans", spans]
    argv += ["--", "serve", "--workers", "0", "--port", "0", "--cache-dir", str(cache_dir)]
    spawned = clock()
    proc = run.spawn(argv)
    line = proc.stdout.readline()
    match = re.search(r"listening on http://[^:]+:(\d+) ", line)
    if match is None:
        raise RuntimeError(f"server did not start: {line!r}")
    port = int(match.group(1))
    client = ServiceClient("127.0.0.1", port, timeout=30)
    deadline = spawned[0] + 60
    while True:
        try:
            client.healthz()
            break
        except ClientError:
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy") from None
            time.sleep(0.002)
    return proc, port, busy_s(spawned, clock())


def drive(port: int, stream: list[dict], rec=None) -> dict:
    """Send *stream* one request at a time.

    Returns each request's start and end time and its document (or the
    error it raised), plus a :func:`~perfbench.common.clock` reading
    before every BATCH requests and after the last.
    """
    from perfbench.common import clock
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    client = ServiceClient("127.0.0.1", port, timeout=60)
    trace_ids = [uuid.uuid4().hex for _ in stream]
    starts, ends, docs, marks = [], [], [], []
    window = rec.begin("bench.window") if rec is not None else None
    for k, (payload, trace_id) in enumerate(zip(stream, trace_ids)):
        if k % BATCH == 0:
            marks.append(clock())
        starts.append(time.perf_counter())
        try:
            doc = client.schedule(payload, trace_id=trace_id)
        except ServiceError as exc:
            doc = exc
        ends.append(time.perf_counter())
        docs.append(doc)
    marks.append(clock())
    if window is not None:
        rec.end(window)
    return {"starts": starts, "ends": ends, "docs": docs, "marks": marks}


def batch_timings(out: dict) -> tuple[list[float], list[float], float]:
    """Whole batches of one :func:`drive`: their requests per second with
    each batch's CPU steal taken out, the wall-clock latencies in ms of
    the requests in the half of the batches that saw the least steal
    (:func:`~perfbench.stats.least_stolen_half`), and their wall seconds.
    """
    from perfbench.common import busy_s
    from perfbench.stats import least_stolen_half

    marks, starts, ends = out["marks"], out["starts"], out["ends"]
    whole = range(len(starts) // BATCH)
    rates = [BATCH / busy_s(marks[i], marks[i + 1]) for i in whole]
    latencies = least_stolen_half(
        [
            (
                marks[i + 1][1] - marks[i][1],
                [(ends[k] - starts[k]) * 1e3 for k in range(i * BATCH, (i + 1) * BATCH)],
            )
            for i in whole
        ]
    )
    return rates, latencies, marks[len(rates)][0] - marks[0][0]


def loop_ipc(payload: dict, result: dict) -> float:
    """The paper-model IPC of one scheduled request (its loop alone)."""
    from repro.ir.frontend import parse_program
    from repro.perf.model import LoopPerformance
    from repro.workloads.kernels import kernel_loop

    if "program" in payload:
        ops = len(parse_program(payload["program"], name="program").graph)
    else:
        ops = kernel_loop(payload["kernel"]).ops_per_iteration
    niter = payload.get("niter", 100)
    return LoopPerformance(
        loop_name=result["kernel"],
        ii=result["ii"],
        stage_count=result["stage_count"],
        unroll_factor=result["unroll_factor"],
        trip_count=niter,
        times_executed=1,
        ops_per_iteration=ops,
    ).ipc


def check_responses(stream: list[dict], docs: list, tally, reference) -> dict:
    """Count every request and every distinct scenario as a checked
    operation.  A request fails when it errored, or when its ``rendered``
    or ``sim`` differs from the first answer for the same scenario; a
    scenario fails when that first answer differs from *reference* (the
    direct path, ``reference_payload``) or when it was computed more than
    once.  (A scenario may be computed zero times: a ``simulate`` request
    for the same kernel and machine fills the memo for it.)  Returns the
    first result per scenario."""
    first: dict[str, dict] = {}
    misses: dict[str, int] = {}
    for payload, doc in zip(stream, docs):
        key = json.dumps(payload, sort_keys=True)
        if not isinstance(doc, dict) or doc.get("status") != "done":
            tally.check(False, f"request failed: {doc}")
            continue
        result = doc["result"]
        seen = first.setdefault(key, result)
        misses[key] = misses.get(key, 0) + (not result.get("cached"))
        tally.check(
            result["rendered"] == seen["rendered"] and result["sim"] == seen["sim"],
            f"{key}: answer differs between repeats",
        )
    for key, result in first.items():
        expected = reference(json.loads(key))
        tally.check(
            result["rendered"] == expected["rendered"] and result["sim"] == expected["sim"],
            f"{key}: rendered schedule differs from the direct path",
        )
        tally.check(misses[key] <= 1, f"{key}: executed {misses[key]} times")
    return first


def _reference(payload: dict) -> dict:
    from repro.service.core import ScheduleRequest, reference_payload

    return reference_payload(ScheduleRequest.from_payload(payload))


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3


def _pass(run, stream, name: str, rec=None) -> dict:
    """One server, one stream: timings, documents, stats and peak RSS."""
    from perfbench.common import peak_rss_mb, stop
    from repro.service.client import ServiceClient

    cache_dir = run.mkdir(f"{name}-cache")
    spans = str(run.path / f"{name}-spans.json") if rec is not None else None
    proc, port, setup_s = start_server(run, cache_dir, spans)
    out = drive(port, stream, rec)
    out["stats"] = ServiceClient("127.0.0.1", port, timeout=30).stats()
    out["rss"] = peak_rss_mb(proc.pid)
    out["setup_s"] = setup_s
    code = stop(proc, interrupt=True)
    if code != 0:
        raise RuntimeError(f"server exited {code}")
    if spans:
        with open(spans) as fh:
            out["server"] = json.load(fh)
    return out


def run_http_workload(run, seed: int, seconds: int, trace: bool) -> dict:
    from perfbench.common import stop
    from perfbench.stats import Tally, latency_summary

    stream, input_digest = inputs.http_stream(seed, seconds * REQUESTS_PER_S)
    setups = []
    for k in range(SETUPS - 1):
        proc, _port, setup_s = start_server(run, run.mkdir(f"probe{k}-cache"))
        setups.append(setup_s)
        stop(proc, interrupt=True)
    plain = _pass(run, stream, "plain")
    setups.append(plain["setup_s"])

    tally = Tally()
    first = check_responses(stream, plain["docs"], tally, _reference)
    rates, latencies, wall = batch_timings(plain)
    rate = statistics.median(rates)
    p50, tail_q, tail = latency_summary(latencies)
    ipcs = [loop_ipc(json.loads(key), result) for key, result in first.items()]
    result = {
        "digest": input_digest,
        "notes": [
            f"latency unit: one request; tail = p{tail_q * 100:g} of {len(latencies)} "
            f"(the {len(latencies) // BATCH} of {len(rates)} batches with the least steal)",
            f"{len(stream)} requests, {len(first)} distinct scenarios; "
            f"throughput: median of {len(rates)} batches of {BATCH}",
            f"timed: {len(rates) * BATCH / wall:.1f} requests/s by the wall clock",
        ],
        "metrics": {
            "setup_s": statistics.median(setups),
            "points_per_s": rate * len(first) / len(stream),
            "requests_per_s": rate,
            "latency_p50_ms": p50,
            "latency_tail_ms": tail,
            "peak_rss_mb": plain["rss"],
            "mean_ipc": sum(ipcs) / len(ipcs),
        },
    }
    if trace:
        from perfbench.tracing import Recorder, install, layer_metrics

        rec = Recorder()
        install(rec)
        traced = _pass(run, stream, "traced", rec)
        check_responses(stream, traced["docs"], tally, _reference)
        spans = rec.export() + traced["server"]["spans"]
        layers = layer_metrics(spans)
        traced_rate = statistics.median(batch_timings(traced)[0])
        layers["trace_overhead_ratio"] = rate / traced_rate - 1.0
        layers["cli.import_s"] = traced["server"]["import_s"]
        docs = [doc for doc in traced["docs"] if isinstance(doc, dict)]
        layers["service.queue_wait_ms"] = _median_ms(
            d["started_unix"] - d["created_unix"] for d in docs
        )
        layers["service.run_ms"] = _median_ms(
            d["finished_unix"] - d["started_unix"] for d in docs
        )
        layers["service.http_overhead_ms"] = _median_ms(
            (e - s) - (doc["finished_unix"] - doc["created_unix"])
            for s, e, doc in zip(traced["starts"], traced["ends"], traced["docs"])
            if isinstance(doc, dict)
        )
        counters = traced["stats"]["counters"]
        resolved = counters["memo_hits"] + counters["disk_hits"] + counters["executed"]
        layers["service.memo_hit_ratio"] = counters["memo_hits"] / resolved
        t0 = time.monotonic()
        inputs.http_stream(seed, len(stream))
        layers["workloads.build_s"] = time.monotonic() - t0
        result["layers"] = layers
    result.update(attempted=tally.attempted, failed=tally.failed, reasons=tally.reasons)
    return result
