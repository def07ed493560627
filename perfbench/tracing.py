"""Spans recorded from outside the program, and their attribution to layers.

:func:`install` wraps the public functions at every layer boundary of
``repro``.  A name is patched wherever it is looked up: a function is
replaced in every loaded module that holds it (``from .mii import mii as
compute_mii`` included) and a method on its class.  Each call then records
a span -- name, start, end, parent, trace id, process and thread -- kept
in memory until the run ends and written out as JSON by :meth:`Recorder.dump`.

:func:`layer_metrics` merges the spans of every process of a run.  A span whose
parent is in another thread or process (a server handler serving a client
call, the dispatcher running a handler's job, a fabric worker serving the
coordinator's sweep) is attached to the innermost span of another thread
that contains it in time, preferring one with the same trace id.  That
works across processes because ``time.monotonic_ns`` reads the
system-wide ``CLOCK_MONOTONIC`` on Linux.  Self time is a span's duration
minus the time its children cover (:func:`perfbench.stats.self_times`);
wall time covered by no layer span is the ``unattributed`` residual.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable

from .stats import nearest_rank, self_times, union_length

#: The layers, named after the ``repro`` subpackages.
LAYERS = (
    "cli",
    "workloads",
    "ir",
    "core",
    "codegen",
    "sim",
    "runner",
    "experiments",
    "service",
    "fabric",
)

#: Name of the benchmark's own span around each timed region.
WINDOW = "bench.window"


class Recorder:
    """In-memory span store for one process."""

    def __init__(self, trace_id: str | None = None):
        self.pid = os.getpid()
        self.trace_id = trace_id
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._finalizers: list[Callable[[], None]] = []

    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, trace: str | None = None) -> dict[str, Any]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "id": f"{self.pid}:{next(self._ids)}",
            "parent": parent["id"] if parent else None,
            "name": name,
            "trace": parent["trace"] if parent else (trace or self.trace_id),
            "pid": self.pid,
            "tid": threading.get_ident(),
            "attrs": {},
        }
        stack.append(span)
        span["start"] = time.monotonic_ns()
        return span

    def end(self, span: dict[str, Any]) -> None:
        span["end"] = time.monotonic_ns()
        self._stack().pop()
        self.spans.append(span)

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        trace_of: Callable[..., str | None] | None = None,
        after: Callable[..., None] | None = None,
    ) -> Callable:
        """*fn* recording one span per call.

        *trace_of(args, kwargs)* names the trace of a root span; *after(span,
        args, kwargs, result)* stores attributes once the call returned.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace = trace_of(args, kwargs) if trace_of is not None else None
            span = self.begin(name, trace)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["attrs"]["raised"] = True
                raise
            finally:
                self.end(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def on_finalize(self, fn: Callable[[], None]) -> None:
        self._finalizers.append(fn)

    def finalize(self) -> None:
        """Turn live objects kept in attributes into JSON (after timing)."""
        for fn in self._finalizers:
            fn()
        self._finalizers.clear()

    def export(self) -> list[dict[str, Any]]:
        self.finalize()
        return [span for span in self.spans if "end" in span]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.export(), fh)


# ---------------------------------------------------------------------------
# Wrapper installation
# ---------------------------------------------------------------------------
def _replace_everywhere(original: Callable, wrapper: Callable) -> int:
    """Replace *original* in every loaded ``repro`` module; returns count."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                hits += 1
    return hits


def _patch_function(rec: Recorder, name: str, module: str, attr: str, **kw) -> None:
    original = getattr(sys.modules[module], attr)
    if _replace_everywhere(original, rec.wrap(name, original, **kw)) == 0:
        raise RuntimeError(f"{module}.{attr} is not looked up anywhere")


def _patch_method(rec: Recorder, name: str, cls: type, attr: str, **kw) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(rec.wrap(name, raw.__func__, **kw)))
    else:
        setattr(cls, attr, rec.wrap(name, raw, **kw))


def install(rec: Recorder) -> None:
    """Wrap every layer boundary of ``repro`` (imports the whole package)."""
    import repro.cli  # noqa: F401 - loads every layer
    import repro.fabric.coordinator as coordinator
    import repro.service.client as client
    import repro.service.server as server
    from repro.core.base import SchedulerBase
    from repro.experiments.common import ExperimentContext
    from repro.ir import serialize
    from repro.runner.cache import ResultCache
    from repro.runner.scenario import PointResult, ScenarioPoint
    from repro.service.core import ScheduleRequest, SchedulingService

    encode_graph = serialize.graph_to_dict  # unwrapped: used after timing
    encode_config = serialize.config_to_dict
    functions = [
        ("ir.hash", "repro.runner.scenario", "graph_content_hash"),
        ("ir.unroll", "repro.ir.unroll", "unroll_graph"),
        ("ir.frontend.parse", "repro.ir.frontend", "parse_program"),
        ("core.mii", "repro.core.mii", "mii"),
        ("core.selective.decision", "repro.core.selective", "selective_unroll_decision"),
        ("core.policy", "repro.core.selective", "schedule_with_policy"),
        ("codegen.render", "repro.codegen.vliw", "render_schedule"),
        ("workloads.kernel_loop", "repro.workloads.kernels", "kernel_loop"),
        ("workloads.resolve", "repro.workloads.kernels", "resolve_kernel"),
        ("runner.scenario", "repro.runner.scenario", "scenario_for"),
        ("runner.execute_point", "repro.runner.engine", "execute_point"),
        ("runner.execute_points", "repro.runner.engine", "execute_points"),
        ("runner.run_sweep", "repro.runner.engine", "run_sweep"),
        ("runner.run_batch", "repro.runner.engine", "_run_batch"),
        ("service.payload", "repro.service.core", "result_payload"),
        ("experiments.run_fig8", "repro.experiments.fig8", "run_fig8"),
        ("experiments.reduce", "repro.experiments.fig8", "fig8_rows"),
        ("experiments.reduce", "repro.experiments.fig8", "average_ipc"),
        ("experiments.reduce", "repro.perf.report", "format_table"),
    ]
    for fn in ("graph_to_dict", "schedule_to_dict", "config_to_dict", "loop_to_dict"):
        functions.append(("ir.encode", "repro.ir.serialize", fn))
    for fn in ("graph_from_dict", "schedule_from_dict", "config_from_dict", "loop_from_dict"):
        functions.append(("ir.decode", "repro.ir.serialize", fn))
    for name, module, attr in functions:
        _patch_function(rec, name, module, attr)
    _patch_function(
        rec,
        "sim.crosscheck",
        "repro.sim.crosscheck",
        "crosscheck_loop",
        after=lambda span, a, k, result: span["attrs"].update(
            cycles=result.simulated_cycles
        ),
    )
    # (graph, machine, scheduler) of every schedule call, hashed after the
    # timed region so the hashing is not charged to ``core``.
    schedulers: list = []

    def schedule_after(span, args, kwargs, result):
        span["attrs"]["attempts"] = len(result.attempt_failures) + 1
        schedulers.append((span, args[1], args[0]))

    _patch_method(rec, "core.schedule", SchedulerBase, "schedule", after=schedule_after)

    def schedule_keys() -> None:
        for span, graph, scheduler in schedulers:
            ident = json.dumps(
                [
                    encode_graph(graph),
                    encode_config(scheduler.config),
                    type(scheduler).__name__,
                ],
                sort_keys=True,
            )
            span["attrs"]["key"] = hashlib.sha256(ident.encode()).hexdigest()[:16]
        schedulers.clear()

    rec.on_finalize(schedule_keys)

    _patch_method(rec, "runner.canonical", ScenarioPoint, "canonical")
    _patch_method(rec, "runner.result.materialise", PointResult, "loop_result")
    _patch_method(
        rec, "runner.cache.get", ResultCache, "get",
        after=lambda span, a, k, result: span["attrs"].update(hit=result is not None),
    )
    _patch_method(rec, "runner.cache.put", ResultCache, "put")
    _patch_method(rec, "experiments.run_grid", ExperimentContext, "run_grid")
    _patch_method(rec, "experiments.reduce", ExperimentContext, "program_ipc")
    _patch_method(rec, "service.validate", ScheduleRequest, "from_payload")
    _patch_method(
        rec, "service.batch", SchedulingService, "_run_point_jobs",
        trace_of=lambda a, k: a[1][0].trace_id if a[1] else None,
    )
    _patch_method(
        rec, "service.http", server._Handler, "do_POST",
        trace_of=lambda a, k: (a[0].headers.get("X-Trace-Id") or "").lower() or None,
    )
    _patch_method(
        rec, "service.client", client.ServiceClient, "schedule",
        trace_of=lambda a, k: k.get("trace_id"),
    )
    _patch_method(rec, "fabric.client.lease", client.ServiceClient, "lease")
    _patch_method(rec, "fabric.client.post", client.ServiceClient, "results")
    coord = coordinator.FabricCoordinator
    _patch_method(
        rec, "fabric.lease", coord, "claim",
        after=lambda span, a, k, result: span["attrs"].update(lease=result.get("lease")),
    )
    _patch_method(
        rec, "fabric.post", coord, "submit_results",
        after=lambda span, a, k, result: span["attrs"].update(
            lease=a[1].get("lease"),
            accepted=result["accepted"],
            duplicates=result["duplicates"],
        ),
    )
    _patch_method(rec, "fabric.register", coord, "_register_sweep")
    _patch_method(rec, "fabric.execute", coord, "execute")


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------
#: Spans that may contain work done on another thread or process.
CONTAINERS = frozenset(
    {
        WINDOW,
        "service.client",
        "service.http",
        "service.batch",
        "fabric.execute",
        "fabric.client.lease",
        "fabric.client.post",
    }
)

#: ``<name>.calls`` / ``<name>.self_s`` pairs reported per span name.
COUNTED = (
    "ir.hash",
    "ir.unroll",
    "ir.frontend.parse",
    "core.schedule",
    "core.mii",
    "codegen.render",
    "sim.crosscheck",
    "runner.canonical",
    "runner.cache.get",
    "runner.cache.put",
    "fabric.lease",
    "fabric.post",
)

#: ``<name>.self_s`` reported per span name.
SELF_ONLY = (
    "ir.encode",
    "ir.decode",
    "core.policy",
    "runner.execute_point",
    "experiments.run_grid",
    "service.validate",
    "service.payload",
    "fabric.register",
)

#: Span-name counts reported without a time.
CALLS_ONLY = ("workloads.kernel_loop", "core.selective.decision")


def _clip(spans: list[dict], windows: list[dict]) -> list[dict]:
    kept = []
    for span in spans:
        for win in windows:
            if span["end"] > win["start"] and span["start"] < win["end"]:
                kept.append(
                    dict(
                        span,
                        start=max(span["start"], win["start"]),
                        end=min(span["end"], win["end"]),
                    )
                )
                break
    return kept


def link(spans: list[dict]) -> list[dict]:
    """Clip *spans* to the timed windows and give every root a parent.

    A root is a span whose parent is not among the kept spans.  It is
    attached to the innermost container span of another thread that
    contains it, preferring one that shares its trace id.
    """
    windows = [span for span in spans if span["name"] == WINDOW]
    kept = _clip(spans, windows)
    by_id = {span["id"]: span for span in kept}
    containers = [span for span in kept if span["name"] in CONTAINERS]
    by_trace: dict[str, list[dict]] = {}
    for span in containers:
        by_trace.setdefault(span["trace"], []).append(span)

    def innermost(span: dict, candidates: list[dict]) -> dict | None:
        best = None
        for cand in candidates:
            if (cand["pid"], cand["tid"]) == (span["pid"], span["tid"]):
                continue
            if cand["start"] <= span["start"] and cand["end"] >= span["end"]:
                if best is None or cand["start"] > best["start"]:
                    best = cand
        return best

    for span in kept:
        if span["name"] == WINDOW or span["parent"] in by_id:
            continue
        parent = innermost(span, by_trace.get(span["trace"], []))
        if parent is None:
            parent = innermost(span, containers)
        span["parent"] = parent["id"] if parent is not None else None
    return kept


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts, self times and ratios over the timed windows."""
    kept = link(spans)
    own = self_times(kept)
    window_ns = sum(span["end"] - span["start"] for span in kept if span["name"] == WINDOW)
    names: dict[str, list[dict]] = {}
    for span in kept:
        names.setdefault(span["name"], []).append(span)

    def self_s(name: str) -> float:
        return sum(own[span["id"]] for span in names.get(name, ())) / 1e9

    out: dict[str, float] = {}
    for name in COUNTED:
        out[f"{name}.calls"] = len(names.get(name, ()))
        out[f"{name}.self_s"] = self_s(name)
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = self_s(name)
    for name in CALLS_ONLY:
        out[f"{name}.calls"] = len(names.get(name, ()))

    by_layer = dict.fromkeys(LAYERS, 0.0)
    unattributed = 0.0
    for span in kept:
        layer = span["name"].split(".", 1)[0]
        if span["name"] == WINDOW:
            unattributed += own[span["id"]]
        elif layer in by_layer:
            by_layer[layer] += own[span["id"]]
    for layer, ns in by_layer.items():
        out[f"{layer}.share"] = ns / window_ns if window_ns else 0.0
    out["unattributed_ratio"] = unattributed / window_ns if window_ns else 0.0

    # Distinct (graph, machine, scheduler) triples per call, within each
    # timed window: repeated windows redo the same work on purpose.
    starts = sorted(span["start"] for span in names[WINDOW])
    schedules = [s for s in names.get("core.schedule", ()) if "attempts" in s["attrs"]]
    keys = {
        (bisect.bisect_right(starts, s["start"]), s["attrs"].get("key"))
        for s in schedules
    }
    out["core.schedule.distinct_ratio"] = len(keys) / len(schedules) if schedules else 0.0
    attempts = sum(s["attrs"]["attempts"] for s in schedules)
    out["core.ii_attempts"] = attempts
    out["core.ii_wasted_ratio"] = (attempts - len(schedules)) / attempts if attempts else 0.0
    out["core.selective.decision.calls"] = len(names.get("core.selective.decision", ()))
    out["core.policy.self_s"] = self_s("core.policy")

    sim_s = self_s("sim.crosscheck")
    cycles = sum(s["attrs"].get("cycles", 0) for s in names.get("sim.crosscheck", ()))
    out["sim.cycles_per_s"] = cycles / sim_s if sim_s else 0.0

    gets = names.get("runner.cache.get", ())
    hits = sum(1 for s in gets if s["attrs"].get("hit"))
    out["runner.cache.hit_ratio"] = hits / len(gets) if gets else 0.0
    out["runner.result.materialise_s"] = self_s("runner.result.materialise")
    out["experiments.reduce_s"] = self_s("experiments.reduce")

    issued = {
        s["attrs"]["lease"]: s["end"]
        for s in names.get("fabric.lease", ())
        if s["attrs"].get("lease")
    }
    turnaround = sorted(
        (s["end"] - issued[s["attrs"]["lease"]]) / 1e6
        for s in names.get("fabric.post", ())
        if s["attrs"].get("lease") in issued
    )
    out["fabric.lease_turnaround_ms"] = nearest_rank(turnaround, 0.5) if turnaround else 0.0
    accepted = sum(s["attrs"].get("accepted", 0) for s in names.get("fabric.post", ()))
    dups = sum(s["attrs"].get("duplicates", 0) for s in names.get("fabric.post", ()))
    out["fabric.commit_ratio"] = accepted / (accepted + dups) if accepted + dups else 0.0
    coordinator_pid = next((s["pid"] for s in kept if s["name"] == WINDOW), None)
    busy = union_length(
        [
            (s["start"], s["end"])
            for s in names.get("runner.run_batch", ())
            if s["pid"] != coordinator_pid
        ]
    )
    out["fabric.worker.busy_ratio"] = busy / window_ns if window_ns else 0.0
    return out
