"""End-to-end tests for the batch scheduling service (repro.service).

Covers the acceptance criteria of the service work:

* correctness: responses are byte-identical to the direct CLI
  ``schedule`` path, for every scenario in the loadtest mix;
* dedupe: repeated submissions are served from the memo/cache and say
  so; batches dedupe identical points across concurrent jobs;
* concurrency: parallel clients all succeed and agree;
* lifecycle: async submit + polling, error mapping (400/404/503),
  graceful shutdown with a job in flight.

Every test runs over a real HTTP server on an ephemeral port — the
stdlib client in :mod:`repro.service.client` is the only transport.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.cli import main
from repro.runner import ResultCache
from repro.runner.grids import GRIDS, GridSpec
from repro.service import (
    ClientError,
    RequestError,
    ScheduleRequest,
    SchedulingService,
    ServiceClient,
    ServiceClosed,
    ServiceServer,
    default_mix,
    reference_payload,
    run_loadtest,
)

#: Workload overrides the registry rejects (a type or range its default
#: does not allow); each must be a 400, never a 500.
BAD_FIR_OVERRIDES = (
    "fir(taps=0)",
    "fir(taps=-1)",
    "fir(taps=x)",
    "fir(taps=1.5)",
    "fir(taps=True)",
    "fir(taps=[1])",
)


@pytest.fixture()
def service(tmp_path):
    svc = SchedulingService(
        cache=ResultCache(tmp_path / "svc-cache", code_version="test-svc"),
        workers=0,
    )
    yield svc
    svc.close()


@pytest.fixture()
def server(service):
    srv = ServiceServer(service, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


@pytest.fixture()
def client(server):
    client = ServiceClient(port=server.port, timeout=60.0)
    yield client
    client.close()


# ---------------------------------------------------------------------------
# Request validation
# ---------------------------------------------------------------------------
class TestScheduleRequest:
    def test_defaults_and_aliases(self):
        req = ScheduleRequest.from_payload(
            {"kernel": "dot_product", "policy": "none"}
        )
        assert req.kernel == "dot"  # canonicalised
        assert req.policy == "no-unrolling"
        assert req.clusters == 4 and req.buses == 1

    def test_unknown_kernel(self):
        with pytest.raises(RequestError, match="unknown kernel"):
            ScheduleRequest.from_payload({"kernel": "nope"})

    @pytest.mark.parametrize("kernel", BAD_FIR_OVERRIDES)
    def test_bad_workload_override_rejected(self, kernel):
        with pytest.raises(RequestError, match="workload 'fir' parameter 'taps'"):
            ScheduleRequest.from_payload({"kernel": kernel})

    def test_unknown_field_rejected(self):
        with pytest.raises(RequestError, match="unknown request field"):
            ScheduleRequest.from_payload({"kernel": "dot", "cluster": 4})

    def test_unknown_policy(self):
        with pytest.raises(RequestError, match="unknown policy"):
            ScheduleRequest.from_payload({"kernel": "dot", "policy": "twice"})

    def test_unknown_scheduler(self):
        with pytest.raises(RequestError, match="unknown scheduler"):
            ScheduleRequest.from_payload({"kernel": "dot", "scheduler": "xyz"})

    def test_numeric_validation(self):
        with pytest.raises(RequestError, match="'clusters'"):
            ScheduleRequest.from_payload({"kernel": "dot", "clusters": 0})
        with pytest.raises(RequestError, match="'clusters'"):
            ScheduleRequest.from_payload({"kernel": "dot", "clusters": True})
        with pytest.raises(RequestError, match="'miss_rate'"):
            ScheduleRequest.from_payload({"kernel": "dot", "miss_rate": 1.5})

    def test_cluster_count_without_a_machine_rejected(self):
        for clusters in (1, 2, 4):
            ScheduleRequest.from_payload({"kernel": "dot", "clusters": clusters})
        with pytest.raises(
            RequestError, match="paper configurations have 1, 2 or 4 clusters, not 3"
        ):
            ScheduleRequest.from_payload({"kernel": "dot", "clusters": 3})

    @pytest.mark.parametrize("key", ["scheduler", "policy", "rule"])
    @pytest.mark.parametrize("value", [["bsa"], {"name": "bsa"}])
    def test_non_string_choice_rejected(self, key, value):
        with pytest.raises(RequestError, match=f"unknown {key}"):
            ScheduleRequest.from_payload({"kernel": "dot", key: value})

    def test_niter_irrelevant_without_simulation(self):
        a, _ = ScheduleRequest.from_payload({"kernel": "dot"}).grid_item()
        b, _ = ScheduleRequest.from_payload(
            {"kernel": "dot", "niter": 999}
        ).grid_item()
        assert a.canonical() == b.canonical()


# ---------------------------------------------------------------------------
# Service core (through HTTP)
# ---------------------------------------------------------------------------
class TestScheduleEndpoint:
    def test_roundtrip_and_dedupe(self, client, service):
        first = client.schedule({"kernel": "daxpy"})
        assert first["status"] == "done"
        assert first["result"]["cached"] is False
        assert first["result"]["ii"] >= 1
        second = client.schedule({"kernel": "daxpy"})
        assert second["result"]["cached"] is True
        assert second["result"]["rendered"] == first["result"]["rendered"]
        stats = client.stats()
        assert stats["points_executed"] == 1
        assert stats["points_cached"] >= 1

    def test_matches_direct_runner_byte_for_byte(self, client):
        request = ScheduleRequest.from_payload(
            {"kernel": "fir4", "clusters": 2}
        )
        via_service = client.schedule(request)["result"]
        direct = reference_payload(request)
        assert via_service["rendered"] == direct["rendered"]
        assert via_service["schedule"] == direct["schedule"]

    def test_matches_cli_schedule_stdout(self, server, capsys):
        main(["schedule", "dot", "--clusters", "4"])
        expected = capsys.readouterr().out
        main(["submit", "dot", "--clusters", "4", "--port", str(server.port)])
        assert capsys.readouterr().out == expected

    def test_exact_scheduler_roundtrips_byte_identically(self, server, capsys):
        """``"scheduler": "exact"`` over HTTP == the CLI's direct path."""
        main(["schedule", "daxpy", "--clusters", "2", "--scheduler", "exact"])
        expected = capsys.readouterr().out
        assert "II=1" in expected  # the oracle's optimum, not a fallback
        main(["submit", "daxpy", "--clusters", "2", "--scheduler", "exact",
              "--port", str(server.port)])
        assert capsys.readouterr().out == expected

    def test_exact_scheduler_accepted_by_validation(self):
        req = ScheduleRequest.from_payload(
            {"kernel": "daxpy", "scheduler": "exact", "clusters": 2}
        )
        assert req.scheduler == "exact"

    def test_simulated_request(self, client):
        doc = client.schedule(
            {"kernel": "daxpy", "clusters": 2, "simulate": True, "niter": 50}
        )
        sim = doc["result"]["sim"]
        assert sim is not None
        assert sim["simulated_cycles"] == sim["analytic_cycles"]

    def test_disk_cache_survives_memo_wipe(self, client, service):
        client.schedule({"kernel": "vadd"})
        service._memo.clear()  # simulate a memo reset; disk must serve it
        doc = client.schedule({"kernel": "vadd"})
        assert doc["result"]["cached"] is True

    def test_async_submit_and_poll(self, client):
        doc = client.schedule({"kernel": "hydro"}, wait=False)
        assert doc["status"] in ("queued", "running", "done")
        final = client.poll_job(doc["job"], timeout=60.0)
        assert final["status"] == "done"
        assert final["results"][0]["kernel"] == "hydro"


class TestSweepEndpoint:
    def test_batch_matches_individual(self, client):
        batch = [
            {"kernel": "dot"},
            {"kernel": "daxpy", "clusters": 2},
            {"kernel": "dot"},  # duplicate inside one job
        ]
        doc = client.sweep(batch)
        assert doc["status"] == "done"
        results = doc["results"]
        assert len(results) == 3
        assert results[0]["rendered"] == results[2]["rendered"]
        # the duplicate is served without new work
        assert results[2]["cached"] is True
        single = client.schedule({"kernel": "daxpy", "clusters": 2})
        assert single["result"]["rendered"] == results[1]["rendered"]

    def test_named_grid_job(self, client, monkeypatch):
        def run_tiny(ctx, quick):
            from repro.core.selective import UnrollPolicy
            from repro.experiments import suite_grid
            from repro.workloads.registry import workload

            items = suite_grid(
                [workload("applu").factory()],
                ScheduleRequest(kernel="dot", clusters=2).config(),
                "bsa",
                UnrollPolicy.NONE,
            )[:2]
            ctx.run_grid(items)
            return f"tiny grid: {len(items)} point(s)"

        monkeypatch.setitem(
            GRIDS, "tiny", GridSpec("tiny", "test grid", run_tiny)
        )
        doc = client.sweep(grid="tiny")
        assert doc["status"] == "done"
        assert doc["output"] == "tiny grid: 2 point(s)"
        assert client.stats()["points_executed"] >= 2

    def test_grid_and_requests_exclusive(self, client):
        with pytest.raises(ClientError) as err:
            client._call(
                "POST",
                "/sweep",
                {"grid": "fig8", "requests": [{"kernel": "dot"}]},
            )
        assert err.value.status == 400

    def test_unknown_grid(self, client):
        with pytest.raises(ClientError) as err:
            client.sweep(grid="fig99")
        assert err.value.status == 400


class TestErrorMapping:
    def test_unknown_path_404(self, client):
        with pytest.raises(ClientError) as err:
            client._call("GET", "/nope")
        assert err.value.status == 404

    def test_unknown_post_path_404_even_without_body(self, client, server):
        import urllib.request

        request = urllib.request.Request(
            f"{client.base_url}/nope", data=b"", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        err.value.close()
        assert err.value.code == 404

    def test_unknown_job_404(self, client):
        with pytest.raises(ClientError) as err:
            client.job("j99999")
        assert err.value.status == 404

    def test_bad_json_400(self, client, server):
        import urllib.request

        request = urllib.request.Request(
            f"{client.base_url}/schedule",
            data=b"not json{",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        err.value.close()
        assert err.value.code == 400

    @pytest.mark.parametrize("path", ["/schedule", "/nope"])
    def test_malformed_content_length_400_closes_connection(self, client, server, path):
        with pytest.raises(ClientError) as err:
            client._call(
                "POST", path, {"kernel": "dot"}, headers={"Content-Length": "abc"}
            )
        assert err.value.status == 400
        assert "malformed Content-Length 'abc'" in str(err.value)
        assert client.schedule({"kernel": "dot"})["status"] == "done"
        route = "/schedule" if path == "/schedule" else "other"
        assert server.http_requests.value_of(route=route, code="400") == 1
        assert server.http_requests.value_of(route=route, code="500") == 0

    def test_unknown_kernel_400(self, client):
        with pytest.raises(ClientError) as err:
            client.schedule({"kernel": "nope"})
        assert err.value.status == 400
        assert "unknown kernel" in str(err.value)

    @pytest.mark.parametrize("kernel", BAD_FIR_OVERRIDES)
    def test_bad_workload_override_400(self, client, kernel):
        with pytest.raises(ClientError) as err:
            client.schedule({"kernel": kernel})
        assert err.value.status == 400
        assert "workload 'fir' parameter 'taps'" in str(err.value)

    def test_cluster_count_without_a_machine_400(self, client):
        """Refused before it is queued, so it fails no request batched
        with it."""
        queued = client.schedule({"kernel": "daxpy", "clusters": 2}, wait=False)
        with pytest.raises(ClientError) as err:
            client.schedule({"kernel": "daxpy", "clusters": 3})
        assert err.value.status == 400
        assert "paper configurations have 1, 2 or 4 clusters, not 3" in str(err.value)
        assert client.poll_job(queued["job"])["status"] == "done"

    def test_unknown_scheduler_400(self, client):
        with pytest.raises(ClientError) as err:
            client.schedule({"kernel": "dot", "scheduler": "nope"})
        assert err.value.status == 400
        assert "unknown scheduler" in str(err.value)
        assert "exact" in str(err.value)  # the known list is in the message

    def test_non_string_policy_400(self, client):
        with pytest.raises(ClientError) as err:
            client.schedule({"kernel": "dot", "policy": ["all"]})
        assert err.value.status == 400
        assert "unknown policy" in str(err.value)

    def test_non_string_grid_400(self, client):
        with pytest.raises(ClientError) as err:
            client.sweep(grid=["fig8"])
        assert err.value.status == 400
        assert "unknown grid" in str(err.value)

    def test_empty_sweep_400(self, client):
        with pytest.raises(ClientError) as err:
            client.sweep([])
        assert err.value.status == 400


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------
class TestConcurrentClients:
    def test_parallel_submits_agree(self, server):
        mix = default_mix()[:6]
        outcomes: dict[str, set[str]] = {}
        errors: list[Exception] = []
        lock = threading.Lock()

        def hammer(worker_id: int) -> None:
            client = ServiceClient(port=server.port, timeout=60.0)
            for i in range(6):
                payload = mix[(worker_id + i) % len(mix)]
                try:
                    doc = client.schedule(payload)
                    with lock:
                        outcomes.setdefault(
                            json.dumps(payload, sort_keys=True), set()
                        ).add(doc["result"]["rendered"])
                except Exception as exc:  # noqa: BLE001 - collected below
                    with lock:
                        errors.append(exc)
            client.close()

        threads = [
            threading.Thread(target=hammer, args=(n,)) for n in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(outcomes) == len(mix)
        # every scenario produced exactly one distinct schedule
        assert all(len(renders) == 1 for renders in outcomes.values())

    @pytest.mark.slow
    def test_worker_pool_path(self, tmp_path):
        svc = SchedulingService(
            cache=ResultCache(tmp_path / "pool-cache", code_version="test-svc"),
            workers=2,
        )
        srv = ServiceServer(svc, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(port=srv.port, timeout=120.0)
        try:
            doc = client.sweep([{"kernel": k} for k in ("dot", "daxpy", "vadd")])
            assert doc["status"] == "done"
            assert [r["cached"] for r in doc["results"]] == [False] * 3
            for result in doc["results"]:
                request = ScheduleRequest.from_payload(
                    {"kernel": result["kernel"]}
                )
                assert result["rendered"] == reference_payload(request)["rendered"]
            assert client.stats()["pool_live"] is True
        finally:
            client.close()
            srv.shutdown()
            srv.server_close()
            svc.close()


# ---------------------------------------------------------------------------
# Loadtest (the CI smoke in miniature)
# ---------------------------------------------------------------------------
class TestLoadtest:
    def test_cold_then_warm(self, server):
        cold = run_loadtest(
            port=server.port, clients=4, requests=32, verify=True
        )
        assert cold.ok, cold.errors + cold.mismatches
        assert cold.successes == 32
        assert cold.verified == len(default_mix())
        warm = run_loadtest(
            port=server.port, clients=4, requests=32, verify=False
        )
        assert warm.ok
        assert warm.hit_rate >= 0.95
        assert warm.p50_s < cold.duration_s  # warm requests never schedule

    def test_report_shape(self):
        from repro.service.client import LoadtestReport

        report = LoadtestReport(
            clients=2, requests=4, successes=4, duration_s=1.0,
            latencies_s=[0.1, 0.2, 0.3, 0.4], cache_hits=4,
        )
        assert report.success_rate == 1.0
        assert report.hit_rate == 1.0
        assert report.p50_s == 0.2
        assert report.p95_s == 0.4
        doc = report.to_dict()
        assert doc["p50_ms"] == pytest.approx(200.0)
        assert "loadtest: 4 request(s)" in report.render()


# ---------------------------------------------------------------------------
# Observability: /metrics, /stats counters, trace ids
# ---------------------------------------------------------------------------
class TestObservability:
    def _scrape(self, server):
        import urllib.request

        from repro.obs import prom

        with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as resp:
            assert resp.headers["Content-Type"] == prom.CONTENT_TYPE
            return prom.parse(resp.read().decode())

    def test_metrics_scrape_is_valid_and_matches_stats(self, client, server):
        client.schedule({"kernel": "daxpy"})
        client.schedule({"kernel": "daxpy"})  # memo hit
        families = self._scrape(server)
        # The scraped names are a public contract (CI gates on them).
        for required in (
            "repro_requests_total",
            "repro_points_executed_total",
            "repro_points_memo_hits_total",
            "repro_cache_hits_total",
            "repro_cache_misses_total",
            "repro_http_requests_total",
            "repro_http_request_duration_seconds",
            "repro_batch_duration_seconds",
            "repro_queue_depth",
            "repro_pool_live",
        ):
            assert required in families, f"missing {required}"
        values = {
            (s.name, s.labels): s.value
            for fam in families.values()
            for s in fam.samples
        }
        stats = client.stats()
        # Counters are callback-backed reads of the same integers /stats
        # reports, so the two views cannot drift.
        assert values[("repro_requests_total", ())] == stats["requests_total"]
        assert (
            values[("repro_points_executed_total", ())]
            == stats["counters"]["executed"]
            == stats["points_executed"]
            == 1
        )
        assert (
            values[("repro_points_memo_hits_total", ())]
            == stats["counters"]["memo_hits"]
            == 1
        )
        assert values[("repro_cache_hits_total", ())] == stats["cache"]["hits"]
        assert (
            values[("repro_cache_misses_total", ())]
            == stats["cache"]["misses"]
        )

    def test_http_request_metrics_label_routes(self, client, server):
        client.schedule({"kernel": "vadd"})
        client.healthz()
        doc = client.schedule({"kernel": "vadd"}, wait=False)
        client.poll_job(doc["job"], timeout=30.0)
        families = self._scrape(server)
        values = {
            (s.name, s.labels): s.value
            for fam in families.values()
            for s in fam.samples
        }
        post = ("repro_http_requests_total", (("route", "/schedule"), ("code", "200")))
        assert values[post] >= 1
        # /jobs/<id> collapses to one bounded label value.
        jobs = [
            labels
            for (name, labels) in values
            if name == "repro_http_requests_total"
            and dict(labels).get("route", "").startswith("/jobs")
        ]
        assert jobs and all(dict(lb)["route"] == "/jobs" for lb in jobs)
        hist_count = (
            "repro_http_request_duration_seconds_count",
            (("route", "/schedule"),),
        )
        assert values[hist_count] >= 1

    def test_stats_hit_rate_is_a_ratio(self, client):
        client.schedule({"kernel": "dot"})
        client.schedule({"kernel": "dot"})
        stats = client.stats()
        counters = stats["counters"]
        served = counters["executed"] + counters["memo_hits"] + counters["disk_hits"]
        assert stats["points_cached"] == counters["memo_hits"] + counters["disk_hits"]
        assert stats["hit_rate"] == pytest.approx(
            stats["points_cached"] / served
        )
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0

    def test_trace_id_adopted_and_echoed(self, client, server):
        import urllib.request

        trace_id = "feed" * 8  # 32 hex chars
        body = json.dumps({"kernel": "daxpy", "wait": True}).encode()
        request = urllib.request.Request(
            f"{server.url}/schedule",
            data=body,
            method="POST",
            headers={
                "Content-Type": "application/json",
                "X-Trace-Id": trace_id,
            },
        )
        with urllib.request.urlopen(request, timeout=30) as resp:
            assert resp.headers["X-Trace-Id"] == trace_id
            doc = json.loads(resp.read())
        assert doc["trace_id"] == trace_id
        # The job document is retrievable by id and carries the trace id.
        assert client.job(doc["job"])["trace_id"] == trace_id

    def test_implausible_trace_id_replaced(self, server):
        import urllib.request

        body = json.dumps({"kernel": "daxpy", "wait": True}).encode()
        request = urllib.request.Request(
            f"{server.url}/schedule",
            data=body,
            method="POST",
            headers={
                "Content-Type": "application/json",
                "X-Trace-Id": "not valid! way too weird",
            },
        )
        with urllib.request.urlopen(request, timeout=30) as resp:
            echoed = resp.headers["X-Trace-Id"]
        assert echoed and echoed.isalnum() and echoed != "not valid! way too weird"

    def test_loadtest_report_carries_failure_trace_ids(self, server):
        report = run_loadtest(
            port=server.port, clients=2, requests=8, verify=False
        )
        assert report.ok and report.failures == []
        doc = report.to_dict()
        assert doc["latency_histogram"]["count"] == 8
        assert doc["latency_histogram"]["buckets"][-1]["le"] == "+Inf"
        # Unknown-kernel requests fail; each failure names its trace id.
        bad = run_loadtest(
            port=server.port,
            clients=1,
            requests=2,
            mix=[{"kernel": "no-such-kernel"}],
            verify=False,
        )
        assert not bad.ok
        assert len(bad.failures) == 2
        assert all(f["kind"] == "error" for f in bad.failures)
        assert all(
            isinstance(f["trace_id"], str) and f["trace_id"]
            for f in bad.failures
        )


# ---------------------------------------------------------------------------
# Shutdown
# ---------------------------------------------------------------------------
class TestShutdown:
    def test_graceful_shutdown_mid_job(self, tmp_path, monkeypatch):
        svc = SchedulingService(cache=None, workers=0)
        release = threading.Event()
        running = threading.Event()

        import repro.service.core as core

        original = core.execute_points

        def slow_execute(misses, **kwargs):
            running.set()
            release.wait(10.0)
            return original(misses, **kwargs)

        monkeypatch.setattr(core, "execute_points", slow_execute)
        in_flight = svc.submit_schedule(
            ScheduleRequest.from_payload({"kernel": "dot"})
        )
        assert running.wait(10.0)  # dispatcher is now mid-batch
        queued = svc.submit_schedule(
            ScheduleRequest.from_payload({"kernel": "daxpy"})
        )
        closer = threading.Thread(target=svc.close, daemon=True)
        closer.start()
        release.set()
        closer.join(15.0)
        assert not closer.is_alive()
        assert in_flight.status == "done"  # the batch in flight completed
        assert queued.status in ("cancelled", "done")
        assert queued.wait(0.1)  # waiters were released either way
        with pytest.raises(ServiceClosed):
            svc.submit_schedule(
                ScheduleRequest.from_payload({"kernel": "dot"})
            )

    def test_close_is_idempotent(self, tmp_path):
        svc = SchedulingService(cache=None, workers=0)
        svc.close()
        svc.close()

    def test_finished_jobs_are_evicted_past_limit(self):
        svc = SchedulingService(cache=None, workers=0, job_limit=5)
        try:
            jobs = []
            for _ in range(8):
                job = svc.submit_schedule(
                    ScheduleRequest.from_payload({"kernel": "dot"})
                )
                assert job.wait(30.0)
                jobs.append(job)
            assert len(svc._jobs) <= 6  # limit + the most recent submission
            assert svc.job(jobs[0].id) is None  # oldest finished: evicted
            assert svc.job(jobs[-1].id) is not None
        finally:
            svc.close()

    def test_workers0_grid_job_never_spawns_a_pool(self, monkeypatch):
        from repro.runner.grids import GRIDS as grids_registry
        from repro.runner.grids import GridSpec as Spec

        def run_tiny(ctx, quick):
            assert ctx.executor is None and ctx.jobs == 1
            return "ok"

        monkeypatch.setitem(grids_registry, "tiny0", Spec("tiny0", "t", run_tiny))
        svc = SchedulingService(cache=None, workers=0)
        try:
            job = svc.submit_grid("tiny0", jobs=4)  # client asks for 4
            assert job.wait(30.0)
            assert job.status == "done" and job.output == "ok"
            assert svc.stats()["pool_live"] is False
        finally:
            svc.close()

    def test_healthz_reports_stopping(self, tmp_path):
        svc = SchedulingService(cache=None, workers=0)
        assert svc.healthz()["status"] == "ok"
        svc.close()
        assert svc.healthz()["status"] == "stopping"

    def test_concurrent_close_does_not_deadlock(self):
        svc = SchedulingService(cache=None, workers=0)
        closers = [
            threading.Thread(target=svc.close, daemon=True) for _ in range(3)
        ]
        for t in closers:
            t.start()
        for t in closers:
            t.join(15.0)
        assert not any(t.is_alive() for t in closers)


class TestConnections:
    """One persistent connection per client thread, on both sides."""

    @staticmethod
    def _count_connections(server) -> list:
        accepted = []
        process_request = server.process_request

        def counting(request, client_address):
            accepted.append(client_address)
            process_request(request, client_address)

        server.process_request = counting
        return accepted

    def test_keepalive_requests_do_not_wait_for_a_delayed_ack(self, server):
        import http.client
        import statistics
        import time

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        body = json.dumps({"kernel": "daxpy", "clusters": 2}).encode()
        elapsed = []
        try:
            for _ in range(30):
                t0 = time.perf_counter()
                conn.request("POST", "/schedule", body=body)
                resp = conn.getresponse()
                assert resp.status == 200 and not resp.will_close
                resp.read()
                elapsed.append(time.perf_counter() - t0)
        finally:
            conn.close()
        assert statistics.median(elapsed) < 0.020

    def test_client_calls_share_one_connection(self, server):
        accepted = self._count_connections(server)
        client = ServiceClient(port=server.port, timeout=60.0)
        for _ in range(5):
            client.schedule({"kernel": "vadd"})
        client.healthz()
        assert len(accepted) == 1
        client.close()
        client.healthz()  # a closed client reconnects
        assert len(accepted) == 2
        client.close()

    def test_unread_reply_holds_back_the_next_request(self, server, service):
        accepted = self._count_connections(server)
        client = ServiceClient(port=server.port, timeout=60.0)
        body = {
            "protocol": 1,
            "worker": "w1",
            "lease": "l99999",
            "code_version": service.fabric.code_version,
            "results": [{"point": {}, "result": {}}],
        }
        pending = client.results(body, wait=False)
        with pytest.raises(RuntimeError, match="pending reply"):
            client.healthz()
        with pytest.raises(ClientError) as err:
            pending.read()
        assert err.value.status == 410  # the verdict, not a transport error
        assert client.healthz()["status"] == "ok"
        assert len(accepted) == 1
        client.close()

    def test_loadtest_opens_one_connection_per_client(self, server):
        accepted = self._count_connections(server)
        report = run_loadtest(port=server.port, clients=4, requests=16, verify=False)
        assert report.ok
        assert len(accepted) == 4

    def test_client_reset_mid_request_is_quiet(self, server, capsys):
        """A client that resets its connection before its answer ends
        only that connection: no traceback, and the next client is
        served."""
        import socket
        import struct

        ended = threading.Semaphore(0)
        errors = []
        shutdown_request = server.shutdown_request
        handle_error = server.handle_error

        def ending(request):
            shutdown_request(request)
            ended.release()

        def recording(request, client_address):
            errors.append(client_address)
            handle_error(request, client_address)

        server.shutdown_request = ending
        server.handle_error = recording
        body = json.dumps({"kernel": "daxpy", "clusters": 2, "simulate": True})
        request = (
            "POST /schedule HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(body)}\r\n\r\n{body}"
        ).encode()
        reset_on_close = struct.pack("ii", 1, 0)  # linger 0: RST, not FIN
        for _ in range(3):
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.sendall(request)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, reset_on_close)
            sock.close()
        for _ in range(3):
            assert ended.acquire(timeout=30)
        client = ServiceClient(port=server.port, timeout=60.0)
        try:
            assert client.schedule({"kernel": "daxpy"})["status"] == "done"
        finally:
            client.close()
        assert errors == []
        assert "Traceback" not in capsys.readouterr().err

    def test_closed_server_ends_idle_connections(self, tmp_path):
        import time

        from repro.fabric.worker import FabricWorker

        svc = SchedulingService(cache=None, workers=0)
        srv = ServiceServer(svc, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(port=srv.port, timeout=30.0)
        worker = FabricWorker(
            ServiceClient(port=srv.port, timeout=30.0), worker_id="idle-w"
        )
        outcome = {}

        def pull():
            try:
                outcome["stats"] = worker.run()
            except Exception as exc:  # noqa: BLE001 - reported below
                outcome["error"] = exc

        puller = threading.Thread(target=pull, daemon=True)
        try:
            assert client.healthz()["status"] == "ok"  # connection now idle
            puller.start()
            deadline = time.monotonic() + 30
            while "idle-w" not in svc.fabric.stats()["workers"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            srv.shutdown()
            srv.server_close()
            t0 = time.monotonic()
            with pytest.raises(ClientError) as err:
                client.healthz()
            assert err.value.status == 0
            assert time.monotonic() - t0 < 1.0
            puller.join(10.0)
            assert not puller.is_alive()
            assert "error" not in outcome and outcome["stats"].idle_polls >= 1
        finally:
            srv.shutdown()
            srv.server_close()
            svc.close()

    def test_request_racing_server_close_is_dropped(self):
        """A request read just as server_close() ends its connection is
        not run, and nothing is written to the closed connection."""
        svc = SchedulingService(cache=None, workers=0)
        srv = ServiceServer(svc, port=0)
        arrived, release = threading.Event(), threading.Event()
        take_idle = srv._take_idle
        paused = []

        def take_idle_late(conn):
            if not paused:  # the first request line, before it is claimed
                paused.append(conn)
                arrived.set()
                release.wait(10.0)
            return take_idle(conn)

        errors = []
        finished = threading.Event()
        shutdown_request = srv.shutdown_request

        def shutdown_and_flag(request):
            shutdown_request(request)
            finished.set()  # the handler thread is done

        srv._take_idle = take_idle_late
        srv.handle_error = lambda request, address: errors.append(address)
        srv.shutdown_request = shutdown_and_flag
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(port=srv.port, timeout=10.0)
        outcome = {}

        def call():
            try:
                outcome["doc"] = client.schedule({"kernel": "dot"})
            except ClientError as exc:
                outcome["error"] = exc

        caller = threading.Thread(target=call, daemon=True)
        try:
            caller.start()
            assert arrived.wait(10.0)
            srv.shutdown()
            srv.server_close()
            release.set()
            caller.join(10.0)
            assert not caller.is_alive() and finished.wait(10.0)
            assert outcome["error"].status == 0
            assert svc.stats()["requests_total"] == 0
            assert errors == []
        finally:
            release.set()
            srv.shutdown()
            srv.server_close()
            svc.close()

    def test_closed_connection_is_reopened_without_resending(self, server, service):
        from repro.service.server import MAX_BODY_BYTES

        client = ServiceClient(port=server.port, timeout=60.0)
        with pytest.raises(ClientError) as err:
            client._call(
                "POST",
                "/schedule",
                {"kernel": "dot"},
                headers={"Content-Length": "abc"},
            )
        assert err.value.status == 400
        assert client.schedule({"kernel": "dot"})["status"] == "done"
        # Too large to read: a 400 and a closed connection, which the
        # client may see as either while it is still sending.
        with pytest.raises(ClientError) as err:
            client._call("POST", "/schedule", {"kernel": "x" * MAX_BODY_BYTES})
        assert err.value.status in (0, 400)
        assert client.schedule({"kernel": "dot"})["status"] == "done"
        assert server.http_requests.value_of(route="/schedule", code="400") == 2
        assert service.stats()["requests_total"] == 2
        client.close()


class TestCatalogueLoops:
    """The dispatcher builds each catalogue loop once per (kernel, niter)."""

    @pytest.fixture()
    def counted(self):
        from repro.workloads import register_workload, unregister_workload
        from repro.workloads.kernels import daxpy, fir_filter

        calls = []

        def plain():
            calls.append("plain")
            return daxpy()

        def tapped(taps: int = 4):
            calls.append(taps)
            return fir_filter(taps)

        register_workload("zz-svc-plain")(plain)
        register_workload(
            "zz-svc-fir", params={"taps": 4}, ranges={"taps": (1, 16)}
        )(tapped)
        yield calls
        unregister_workload("zz-svc-plain")
        unregister_workload("zz-svc-fir")

    def test_repeat_requests_build_each_loop_once(self, counted):
        payloads = [
            {"kernel": kernel, "clusters": clusters, **extra}
            for kernel in ("zz-svc-plain", "zz-svc-fir(taps=6)")
            for clusters in (2, 4)
            for extra in ({}, {"simulate": True, "niter": 50})
        ]
        requests = [ScheduleRequest.from_payload(p) for p in payloads]
        svc = SchedulingService(cache=None, workers=0)
        try:
            for _ in range(3):
                for request in requests:
                    job = svc.submit_schedule(request)
                    assert job.wait(60.0) and job.status == "done", job.error
            assert sorted(counted, key=str) == [6, 6, "plain", "plain"]
            results = [svc.submit_schedule(r) for r in requests]
            for request, job in zip(requests, results):
                assert job.wait(60.0)
                served = dict(job.results[0])
                del served["cached"]
                assert served == reference_payload(request)
        finally:
            svc.close()

    def test_reregistered_name_serves_the_new_graph(self):
        from repro.workloads import register_workload, unregister_workload
        from repro.workloads.kernels import daxpy, dot_product

        svc = SchedulingService(cache=None, workers=0)
        register_workload("zz-svc-swap")(daxpy)
        try:
            request = ScheduleRequest.from_payload({"kernel": "zz-svc-swap"})
            before = svc.submit_schedule(request)
            assert before.wait(60.0) and before.results[0]["kernel"] == "daxpy"
            unregister_workload("zz-svc-swap")
            register_workload("zz-svc-swap")(dot_product)
            after = svc.submit_schedule(request)
            assert after.wait(60.0) and after.results[0]["kernel"] == "dot"
            expected = reference_payload(request)["rendered"]
            assert after.results[0]["rendered"] == expected
        finally:
            unregister_workload("zz-svc-swap")
            svc.close()


class TestFailureIsolation:
    def test_one_bad_point_does_not_fail_other_jobs(self, monkeypatch):
        import repro.service.core as core

        svc = SchedulingService(cache=None, workers=0)
        try:
            good = svc.submit_schedule(
                ScheduleRequest.from_payload({"kernel": "dot"})
            )
            assert good.wait(30.0) and good.status == "done"

            original = core.execute_points

            def explode_on_daxpy(misses, **kwargs):
                if any(item[1][0].loop == "daxpy" for item in misses):
                    raise RuntimeError("boom")
                return original(misses, **kwargs)

            monkeypatch.setattr(core, "execute_points", explode_on_daxpy)
            bad = svc.submit_schedule(
                ScheduleRequest.from_payload({"kernel": "daxpy"})
            )
            assert bad.wait(30.0)
            assert bad.status == "failed"
            assert "boom" in bad.error
            # a memo-served request is untouched by the failure
            repeat = svc.submit_schedule(
                ScheduleRequest.from_payload({"kernel": "dot"})
            )
            assert repeat.wait(30.0) and repeat.status == "done"
            assert repeat.results[0]["cached"] is True
            # and the service recovers for fresh scenarios too
            other = svc.submit_schedule(
                ScheduleRequest.from_payload({"kernel": "vadd"})
            )
            assert other.wait(30.0) and other.status == "done"
        finally:
            svc.close()

    def test_broken_pool_is_discarded(self):
        from concurrent.futures import BrokenExecutor

        svc = SchedulingService(cache=None, workers=2)
        try:
            class FakePool:
                def __init__(self):
                    self.down = False

                def shutdown(self, wait=True):
                    self.down = True

            fake = FakePool()
            svc._pool = fake
            svc._discard_pool_if_broken(RuntimeError("not pool related"))
            assert svc._pool is fake  # untouched
            svc._discard_pool_if_broken(BrokenExecutor("worker died"))
            assert svc._pool is None and fake.down is True
        finally:
            svc.close()


# ---------------------------------------------------------------------------
# Payload shape
# ---------------------------------------------------------------------------
class TestResultPayload:
    def test_payload_fields(self):
        request = ScheduleRequest.from_payload({"kernel": "dot"})
        payload = reference_payload(request)
        assert payload["kernel"] == "dot"
        assert payload["point"]["scheduler"] == "bsa"
        assert payload["ii"] >= 1 and payload["stage_count"] >= 1
        assert payload["fallback"] is False
        assert payload["rendered"].startswith("ModuloSchedule")
        assert payload["sim"] is None

    def test_payload_roundtrips_schedule(self):
        from repro.ir.serialize import schedule_from_dict

        request = ScheduleRequest.from_payload({"kernel": "stencil3"})
        payload = reference_payload(request)
        sched = schedule_from_dict(payload["schedule"])
        assert sched.ii == payload["ii"]
