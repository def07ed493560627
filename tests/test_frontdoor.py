"""End-to-end tests for the loop front door.

The acceptance criterion of the front-door work, verbatim: a user
``.loop`` program runs parse -> schedule (including the ``exact``
scheduler) -> register-renamed codegen -> simulate with simulated
cycles equal to ``(NITER + SC - 1) * II`` — via the CLI, via ``POST
/schedule`` with an inline program, and via a distributed fabric sweep
over a :func:`~repro.experiments.common.program_grid`.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import pytest

from repro.arch.configs import two_cluster_config, unified_config
from repro.cli import main
from repro.codegen import rename_kernel
from repro.core.selective import UnrollPolicy
from repro.core.verify import verify_schedule
from repro.experiments import ExperimentContext
from repro.experiments.common import program_grid
from repro.fabric import PROTOCOL_VERSION, FabricCoordinator, FabricGone
from repro.ir.frontend import parse_file, parse_program
from repro.runner import ResultCache, make_scheduler
from repro.runner.engine import _run_batch
from repro.service import (
    ClientError,
    ScheduleRequest,
    SchedulingService,
    ServiceClient,
    ServiceServer,
)
from repro.sim import crosscheck_schedule

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "loops"
DAXPY = EXAMPLES / "daxpy.loop"
DOTPROD = EXAMPLES / "dotprod.loop"
SMOOTH = EXAMPLES / "smooth.loop"

USER_PROGRAM = """\
loop mine
trip 64

BB0:
    k = live

BB1:
    a = load a[i]
    b = load b[i]
    p = fmul a, k
    q = fadd p, b
    s = fadd q, s@1
    store s, out[i]

BB2:
"""


# ---------------------------------------------------------------------------
# Library path: parse -> schedule -> rename -> simulate
# ---------------------------------------------------------------------------
class TestLibraryPath:
    @pytest.mark.parametrize("scheduler_name", ["bsa", "exact"])
    @pytest.mark.parametrize(
        "config", [unified_config(), two_cluster_config(1, 1)], ids=["u", "2c"]
    )
    def test_full_pipeline_hits_analytic_cycles(self, scheduler_name, config):
        loop = parse_program(USER_PROGRAM)
        assert loop.trip_count == 64
        sched = make_scheduler(scheduler_name, config).schedule(loop.graph)
        verify_schedule(sched)

        renamed = rename_kernel(sched)
        assert renamed.loop == "mine"
        assert renamed.kuf >= 1

        check = crosscheck_schedule(sched, loop.trip_count)
        expected = (loop.trip_count + sched.stage_count - 1) * sched.ii
        assert check.analytic_cycles == expected
        assert check.simulated_cycles == expected
        assert check.cycle_divergence == 0

    def test_exact_ii_never_worse_than_heuristic(self):
        loop = parse_program(USER_PROGRAM)
        config = two_cluster_config(1, 1)
        bsa = make_scheduler("bsa", config).schedule(loop.graph)
        exact = make_scheduler("exact", config).schedule(loop.graph)
        assert exact.ii <= bsa.ii

    @pytest.mark.parametrize("path", [DAXPY, DOTPROD, SMOOTH], ids=lambda p: p.stem)
    def test_corpus_files_simulate_exactly(self, path):
        loop = parse_file(path)
        sched = make_scheduler("bsa", two_cluster_config(1, 1)).schedule(loop.graph)
        verify_schedule(sched)
        rename_kernel(sched)
        check = crosscheck_schedule(sched, loop.trip_count)
        assert check.cycle_divergence == 0


# ---------------------------------------------------------------------------
# CLI path
# ---------------------------------------------------------------------------
class TestCliPath:
    def test_schedule_loop_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_VLIW_CACHE", str(tmp_path / "cache"))
        main(["schedule", str(DAXPY)])
        out = capsys.readouterr().out
        assert "daxpy" in out
        assert "II=" in out

    def test_simulate_loop_file_prints_renamed_kernel(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_VLIW_CACHE", str(tmp_path / "cache"))
        main(["simulate", str(DAXPY)])
        out = capsys.readouterr().out
        assert "(divergence" not in out
        assert "renamed kernel of 'daxpy'" in out
        assert "copy 0:" in out

    def test_user_file_from_tmp(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_VLIW_CACHE", str(tmp_path / "cache"))
        path = tmp_path / "mine.loop"
        path.write_text(USER_PROGRAM)
        main(["simulate", str(path)])
        out = capsys.readouterr().out
        assert "(divergence" not in out
        assert "renamed kernel of 'mine'" in out

    def test_parse_error_exits_with_position(self, tmp_path):
        path = tmp_path / "broken.loop"
        path.write_text("BB1:\n    x = frob a\nBB2:\n")
        with pytest.raises(SystemExit) as err:
            main(["schedule", str(path)])
        assert f"{path}:2:9:" in str(err.value)

    def test_unknown_kernel_still_suggests(self):
        with pytest.raises(SystemExit) as err:
            main(["schedule", "daxpi"])
        assert "did you mean 'daxpy'" in str(err.value)


# ---------------------------------------------------------------------------
# Service path
# ---------------------------------------------------------------------------
@pytest.fixture()
def service_client(tmp_path):
    service = SchedulingService(
        cache=ResultCache(tmp_path / "svc-cache", code_version="test-frontdoor"),
        workers=0,
    )
    server = ServiceServer(service, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = ServiceClient(port=server.port, timeout=60.0)
    try:
        yield client
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        service.close()


class TestServicePath:
    def test_inline_program_schedules(self, service_client):
        payload = service_client.schedule(
            {"program": USER_PROGRAM, "scheduler": "bsa"}, wait=True
        )
        rendered = payload["result"]["rendered"]
        assert "mine" in rendered
        assert "II=" in rendered

    def test_program_and_kernel_are_exclusive(self, service_client):
        with pytest.raises(ClientError) as err:
            service_client.schedule(
                {"kernel": "daxpy", "program": USER_PROGRAM}, wait=True
            )
        assert err.value.status == 400
        with pytest.raises(ClientError) as err:
            service_client.schedule({}, wait=True)
        assert err.value.status == 400

    def test_parse_error_is_400_with_position(self, service_client):
        with pytest.raises(ClientError) as err:
            service_client.schedule(
                {"program": "BB1:\n    x = frob a\nBB2:\n"}, wait=True
            )
        assert err.value.status == 400
        assert "<request>:2:9:" in str(err.value)

    def test_byte_identical_for_identical_programs(self, service_client):
        first = service_client.schedule({"program": USER_PROGRAM}, wait=True)
        second = service_client.schedule({"program": USER_PROGRAM}, wait=True)
        assert first["result"]["rendered"] == second["result"]["rendered"]

    def test_inline_program_is_parsed_once_per_request(self, monkeypatch):
        import repro.service.core as core

        calls = []
        parse = core.parse_program

        def counting(*args, **kwargs):
            calls.append(args)
            return parse(*args, **kwargs)

        monkeypatch.setattr(core, "parse_program", counting)
        service = SchedulingService(cache=None, workers=0)
        try:
            request = ScheduleRequest.from_payload({"program": USER_PROGRAM})
            job = service.submit_schedule(request)
            assert job.wait(60.0) and job.status == "done", job.error
        finally:
            service.close()
        assert len(calls) == 1
        assert "mine" in job.results[0]["rendered"]


# ---------------------------------------------------------------------------
# Distributed path: a user-program grid over the fabric
# ---------------------------------------------------------------------------
def _claim_body(worker, code_version):
    return {
        "protocol": PROTOCOL_VERSION,
        "worker": worker,
        "code_version": code_version,
    }


def _serve_until(coordinator, stop, worker_id):
    """A minimal honest worker loop over the coordinator's direct API."""
    while not stop.is_set():
        doc = coordinator.claim(_claim_body(worker_id, coordinator.code_version))
        if not doc.get("lease"):
            time.sleep(0.005)
            continue
        results = []
        for item in doc["shard"]:
            (_key, payload, meta) = _run_batch([item], None, None, doc.get("trace"))[0]
            results.append({"point": item["point"], "result": payload, "meta": meta})
        try:
            coordinator.submit_results(
                {
                    "protocol": PROTOCOL_VERSION,
                    "worker": worker_id,
                    "lease": doc["lease"],
                    "code_version": coordinator.code_version,
                    "results": results,
                }
            )
        except FabricGone:
            pass


class TestDistributedPath:
    def test_program_grid_sweeps_over_the_fabric(self, tmp_path):
        loop = parse_program(USER_PROGRAM)
        configs = [unified_config(), two_cluster_config(1, 1)]
        grid = program_grid(
            loop,
            configs,
            schedulers=("bsa",),
            policies=(UnrollPolicy.NONE, UnrollPolicy.ALL),
            simulate=True,
        )
        assert all(point.program for point, _loop in grid)

        local_ctx = ExperimentContext(
            cache=ResultCache(tmp_path / "local", code_version="test-frontdoor")
        )
        local_ctx.run_grid(list(grid))

        coordinator = FabricCoordinator(
            cache=ResultCache(tmp_path / "fabric", code_version="test-frontdoor"),
            shard_size=2,
            sweep_timeout_s=120.0,
        )
        fabric_ctx = ExperimentContext(
            cache=coordinator.cache, executor=coordinator.execute
        )
        stop = threading.Event()
        loops = [
            threading.Thread(
                target=_serve_until,
                args=(coordinator, stop, f"frontdoor-{i}"),
                daemon=True,
            )
            for i in range(2)
        ]
        for thread in loops:
            thread.start()
        try:
            fabric_ctx.run_grid(list(grid))
        finally:
            stop.set()
            for thread in loops:
                thread.join(10.0)

        assert set(fabric_ctx.sim_memo) == set(local_ctx.sim_memo)
        assert len(fabric_ctx.sim_memo) == len(grid)
        for key, check in fabric_ctx.sim_memo.items():
            local = local_ctx.sim_memo[key]
            assert check.simulated_cycles == local.simulated_cycles
            assert check.analytic_cycles == local.analytic_cycles
            assert check.cycle_divergence == 0
        counters = coordinator.stats()["counters"]
        assert counters["points_completed"] == len(grid)
