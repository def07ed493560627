"""Tests for the observability layer (repro.obs).

Covers the acceptance criteria of the observability work:

* the metrics registry round-trips through the Prometheus text
  exposition and back through the strict parser, with stable names;
* tracing spans nest, propagate across the spawn worker-pool boundary,
  and never perturb results;
* run reports record one point per scenario, aggregate per group, and
  render as text / JSON / markdown.
"""

from __future__ import annotations

import json

import prom_oracle
import pytest

from repro.core.selective import UnrollPolicy
from repro.experiments import suite_grid
from repro.obs import (
    LATENCY_BUCKETS_S,
    MetricsRegistry,
    RunRecorder,
    RunReport,
    Tracer,
    aggregate,
    render_report,
)
from repro.obs import prom
from repro.obs.trace import TRACER, TraceContext, new_trace_id
from repro.runner import run_sweep
from repro.workloads.registry import workload


def small_items():
    from repro.arch.configs import two_cluster_config

    return suite_grid(
        [workload("applu").factory()],
        two_cluster_config(1, 1),
        "bsa",
        UnrollPolicy.NONE,
    )


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total", "help", ("route",))
        child = c.labels(route="/jobs")
        child.inc()
        child.inc(2)
        assert c.value_of(route="/jobs") == 3.0
        with pytest.raises(ValueError):
            child.inc(-1)

    def test_labelled_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_http_total", "help", ("route", "code"))
        c.labels(route="/jobs", code="200").inc()
        c.labels(route="/jobs", code="200").inc()
        c.labels(route="/stats", code="404").inc()
        assert c.value_of(route="/jobs", code="200") == 2.0
        assert c.value_of(route="/stats", code="404") == 1.0
        assert c.value_of(route="/never", code="500") == 0.0
        with pytest.raises(ValueError):
            c.labels(route="/jobs")  # missing label
        with pytest.raises(ValueError):
            reg.counter("repro_plain_total", "help")  # nothing would count it

    def test_callback_counter_single_source_of_truth(self):
        state = {"hits": 0}
        reg = MetricsRegistry()
        c = reg.counter(
            "repro_hits_total", "help", callback=lambda: state["hits"]
        )
        state["hits"] = 7
        assert c.collect().samples[0].value == 7.0
        with pytest.raises(ValueError):
            # the external state is the only writer: no labelled children
            reg.counter("repro_both_total", "help", ("route",), callback=lambda: 0)

    def test_gauge(self):
        state = {"depth": 4}
        reg = MetricsRegistry()
        g = reg.gauge("repro_depth", "help", callback=lambda: state["depth"])
        assert g.collect().samples[0].value == 4.0
        state["depth"] = 3
        assert g.collect().samples[0].value == 3.0  # sampled at each collect

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_seconds", "help")
        assert h.buckets == LATENCY_BUCKETS_S  # the one shared ladder
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        fam = h.collect()
        by_name = {}
        for s in fam.samples:
            by_name[(s.name, s.labels)] = s.value
        assert by_name[("repro_lat_seconds_bucket", (("le", "0.1"),))] == 1
        assert by_name[("repro_lat_seconds_bucket", (("le", "1"),))] == 3
        assert by_name[("repro_lat_seconds_bucket", (("le", "+Inf"),))] == 4
        assert by_name[("repro_lat_seconds_count", ())] == 4
        assert by_name[("repro_lat_seconds_sum", ())] == pytest.approx(6.05)

    def test_registration_idempotent_and_conflicts(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_x_total", "help", callback=lambda: 0)
        assert reg.counter("repro_x_total", "help", callback=lambda: 0) is a
        with pytest.raises(ValueError):
            reg.gauge("repro_x_total", "help", callback=lambda: 0)
        with pytest.raises(ValueError):
            reg.counter("0bad", "help", callback=lambda: 0)
        with pytest.raises(ValueError):
            reg.counter("repro_y_total", "help", ("__reserved",))


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------
class TestProm:
    def registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        c = reg.counter("repro_req_total", "requests", ("route",))
        c.labels(route="/jobs").inc(3)
        reg.gauge("repro_depth", "queue depth", callback=lambda: 2)
        h = reg.histogram("repro_lat_seconds", "latency")
        h.observe(0.05)
        h.observe(0.5)
        return reg

    def test_render_parse_round_trip(self):
        text = prom.render(self.registry())
        assert text.endswith("\n")
        families = prom_oracle.parse(text)
        # Metric names are a public contract: CI and dashboards scrape
        # them, so they must parse back exactly as registered.
        assert set(families) == {
            "repro_req_total",
            "repro_depth",
            "repro_lat_seconds",
        }
        req = families["repro_req_total"]
        assert req.kind == "counter"
        values = {
            (s.name, s.labels): s.value
            for fam in families.values()
            for s in fam.samples
        }
        assert values[("repro_req_total", (("route", "/jobs"),))] == 3.0
        assert families["repro_lat_seconds"].kind == "histogram"
        assert values[("repro_lat_seconds_bucket", (("le", "+Inf"),))] == 2.0

    def test_parse_rejects_garbage(self):
        with pytest.raises(prom_oracle.PromParseError):
            prom_oracle.parse("repro_x_total{ 1\n")
        with pytest.raises(prom_oracle.PromParseError):
            prom_oracle.parse("repro_untyped_total 1\n")  # sample without TYPE
        with pytest.raises(prom_oracle.PromParseError):
            prom_oracle.parse(
                "# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1"} 1\n'
                "repro_h_sum 1\nrepro_h_count 1\n"
            )  # histogram without a +Inf bucket

    def test_parse_rejects_non_cumulative_histogram(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.1"} 5\n'
            'repro_h_bucket{le="1"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 1\nrepro_h_count 5\n"
        )
        with pytest.raises(prom_oracle.PromParseError):
            prom_oracle.parse(text)

    def test_require_cli(self, capsys, monkeypatch):
        import io

        text = prom.render(self.registry())
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert prom_oracle.main(["--require", "repro_req_total"]) == 0
        assert "metric families" in capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert prom_oracle.main(["--require", "repro_missing_total"]) == 1


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_disabled_is_null(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x"):
            assert tracer.current_context() is None
        assert tracer.drain() == []
        # The disabled span is a shared singleton: no per-call allocation.
        assert tracer.span("a") is tracer.span("b")

    def test_nesting_links_parent_and_trace(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            outer_ctx = tracer.current_context()
            with tracer.span("inner"):
                inner_ctx = tracer.current_context()
        assert inner_ctx.trace_id == outer_ctx.trace_id
        spans = {s.name: s for s in tracer.drain()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        assert spans["inner"].duration_s >= 0.0

    def test_carrier_adopt_round_trip(self):
        tracer = Tracer(enabled=True)
        with tracer.span("submit"):
            carrier = tracer.carrier()
        assert set(carrier) == {"trace_id", "parent_span_id"}
        ctx = TraceContext.from_carrier(carrier)
        with tracer.adopt(carrier):
            with tracer.span("worker"):
                pass
        worker = [s for s in tracer.drain() if s.name == "worker"][0]
        assert worker.trace_id == ctx.trace_id
        assert worker.parent_id == ctx.span_id
        # None carrier is a no-op, so call sites need no conditional.
        with tracer.adopt(None):
            assert tracer.current_context() is None

    def test_record_ships_remote_spans(self):
        tracer = Tracer(enabled=True)
        doc = {
            "name": "remote",
            "trace_id": new_trace_id(),
            "span_id": "abc123",
            "parent_id": None,
            "duration_s": 0.5,
        }
        tracer.record(doc)
        (span,) = tracer.drain()
        assert span.name == "remote" and span.duration_s == 0.5


# ---------------------------------------------------------------------------
# Trace propagation across the spawn worker pool
# ---------------------------------------------------------------------------
class TestWorkerTracePropagation:
    @pytest.mark.slow
    def test_pool_workers_link_back_to_the_submitting_trace(self, monkeypatch):
        # Workers are spawned (not forked): they inherit the environment,
        # so $REPRO_VLIW_TRACE enables their process-global tracer.
        monkeypatch.setenv("REPRO_VLIW_TRACE", "1")
        monkeypatch.setattr(TRACER, "enabled", True)
        TRACER.drain()
        items = small_items()
        with TRACER.span("test.sweep"):
            ctx = TRACER.current_context()
            results, stats = run_sweep(items, jobs=2, cache=None)
        assert stats.executed == stats.total > 0
        spans = TRACER.drain()
        worker_spans = [s for s in spans if s.name == "runner.execute_point"]
        assert len(worker_spans) == stats.executed
        assert {s.trace_id for s in worker_spans} == {ctx.trace_id}
        assert all(s.parent_id == ctx.span_id for s in worker_spans)
        assert all(s.attrs.get("point") for s in worker_spans)


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------
class TestRunReports:
    def recorded(self, tmp_path):
        items = small_items()
        from repro.runner import ResultCache

        cache = ResultCache(tmp_path / "cache", code_version="obs-test")
        recorder = RunRecorder()
        run_sweep(items, cache=cache, recorder=recorder)
        return items, cache, recorder

    def test_recorder_sources_and_wall_times(self, tmp_path):
        items, cache, recorder = self.recorded(tmp_path)
        report = recorder.report(sweep="unit")
        assert len(report.records) == len(items)
        assert {r.source for r in report.records} == {"executed"}
        assert all(r.wall_s > 0.0 for r in report.records)
        # Second run: everything must come back from disk.
        rerun = RunRecorder()
        run_sweep(items, cache=cache, recorder=rerun)
        assert {r.source for r in rerun.report(sweep="unit").records} == {
            "disk"
        }

    def test_recording_does_not_perturb_results(self, tmp_path):
        items = small_items()
        plain, _ = run_sweep(items, cache=None)
        recorded, _ = run_sweep(items, cache=None, recorder=RunRecorder())
        assert {k: v.to_dict() for k, v in plain.items()} == {
            k: v.to_dict() for k, v in recorded.items()
        }

    def test_aggregate_and_render(self, tmp_path):
        _items, _cache, recorder = self.recorded(tmp_path)
        report = recorder.report(sweep="unit")
        rows = aggregate(report.records, by="kernel")
        assert sum(r["points"] for r in rows) == len(report.records)
        assert all(r["executed"] == r["points"] for r in rows)
        assert all(r["ii_mean"] >= r["mii_mean"] for r in rows)
        assert all(r["max_live"] > 0 for r in rows)
        with pytest.raises(ValueError):
            aggregate(report.records, by="nonsense")

        text = render_report(report, by="kernel", fmt="text")
        assert "hit rate" in text and "wall_p95_ms" in text
        md = render_report(report, by="config", fmt="markdown")
        assert md.splitlines()[2].startswith("| ")
        doc = json.loads(render_report(report, by="scheduler", fmt="json"))
        assert doc["rows"][0]["scheduler"] == "bsa"
        with pytest.raises(ValueError):
            render_report(report, fmt="xml")

    def test_report_round_trip(self, tmp_path):
        _items, _cache, recorder = self.recorded(tmp_path)
        report = recorder.report(sweep="unit", meta={"quick": True})
        path = report.save(tmp_path / "report.json")
        loaded = RunReport.load(path)
        assert loaded.sweep == "unit" and loaded.meta == {"quick": True}
        assert [r.to_dict() for r in loaded.records] == [
            r.to_dict() for r in report.records
        ]
        with pytest.raises(ValueError):
            RunReport.from_dict({"format": 99, "sweep": "x", "records": []})

    def test_cli_report_verb(self, tmp_path, capsys):
        from repro.cli import main

        _items, _cache, recorder = self.recorded(tmp_path)
        path = recorder.report(sweep="unit").save(tmp_path / "report.json")
        main(["report", str(path)])
        out = capsys.readouterr().out
        assert "sweep unit" in out and "kernel" in out
        main(["report", str(path), "--by", "config", "--format", "markdown"])
        assert "| config |" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["report", str(tmp_path / "missing.json")])


# ---------------------------------------------------------------------------
# Loadtest report plumbing (pure shapes; the live path is in test_service)
# ---------------------------------------------------------------------------
class TestLoadtestReportShapes:
    def test_latency_histogram_matches_bucket_ladder(self):
        from repro.service.client import LoadtestReport

        report = LoadtestReport(
            clients=1,
            requests=3,
            successes=3,
            duration_s=1.0,
            latencies_s=[0.0004, 0.02, 2.0],
        )
        hist = report.latency_histogram()
        assert hist["count"] == 3
        assert hist["sum_s"] == pytest.approx(2.0204)
        assert len(hist["buckets"]) == len(LATENCY_BUCKETS_S) + 1
        by_le = {b["le"]: b["count"] for b in hist["buckets"]}
        assert by_le["0.0005"] == 1
        assert by_le["0.025"] == 2
        assert by_le["+Inf"] == 3
        doc = report.to_dict()
        assert doc["latency_histogram"]["count"] == 3
        assert doc["failures"] == []
