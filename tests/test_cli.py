"""Tests for the repro-vliw command-line interface."""

import pytest

from repro.cli import main

#: Workload overrides the registry rejects (a type or range its default
#: does not allow); each must be a one-line error, never a traceback.
BAD_FIR_OVERRIDES = (
    "fir(taps=0)",
    "fir(taps=-1)",
    "fir(taps=x)",
    "fir(taps=1.5)",
    "fir(taps=True)",
    "fir(taps=[1])",
)


class TestCliTables:
    def test_table1(self, capsys):
        main(["table1"])
        out = capsys.readouterr().out
        assert "unified" in out
        assert "4-cluster" in out

    def test_table2(self, capsys):
        main(["table2"])
        out = capsys.readouterr().out
        assert "cycle" in out.lower()
        assert "1520" in out  # unified cycle time

    def test_table2_buses_flag(self, capsys):
        main(["table2", "--buses", "2"])
        out = capsys.readouterr().out
        assert "cycle" in out.lower()


class TestCliFigures:
    def test_fig7(self, capsys):
        main(["fig7"])
        out = capsys.readouterr().out
        assert "no unrolling" in out
        assert "unrolled x2" in out
        assert "ladder" in out

    @pytest.mark.parametrize("name", ["fig4", "fig8", "fig9", "fig10", "crossval"])
    def test_figure_verb_runs_its_grid(self, name, capsys, monkeypatch):
        """``repro-vliw NAME`` prints exactly what ``sweep NAME`` prints."""
        from repro.runner.grids import GRIDS, GridSpec

        calls = []

        def run(ctx, quick):
            calls.append(quick)
            return f"stub table for {name}"

        monkeypatch.setitem(GRIDS, name, GridSpec(name, "stub", run))
        main([name, "--quick", "--no-cache"])
        verb = capsys.readouterr().out
        main(["sweep", name, "--quick", "--no-cache"])
        assert verb == capsys.readouterr().out
        assert verb.startswith(f"stub table for {name}\n")
        assert calls == [True, True]

    @pytest.mark.slow
    def test_fig9_quick(self, capsys):
        main(["fig9", "--quick"])
        out = capsys.readouterr().out
        assert "speed-up vs unified" in out
        assert "best:" in out


class TestCliSimulate:
    def test_simulate_kernel(self, capsys):
        main(["simulate", "dot_product", "--niter", "100"])
        out = capsys.readouterr().out
        assert "SimReport" in out
        assert "cycles" in out
        assert "IPC" in out
        assert "bus 0 occupancy" in out
        assert "divergence" not in out  # perfect memory matches the model

    def test_simulate_accepts_canonical_name(self, capsys):
        main(["simulate", "dot", "--niter", "50", "--clusters", "1"])
        out = capsys.readouterr().out
        assert "'unified'" in out

    def test_simulate_with_misses(self, capsys):
        main(
            [
                "simulate", "daxpy", "--niter", "200", "--miss-rate", "0.2",
                "--miss-penalty", "8", "--seed", "1", "--unroll", "2",
                "--clusters", "2",
            ]
        )
        out = capsys.readouterr().out
        assert "stalled" in out
        assert "missed" in out

    def test_simulate_unknown_kernel_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "nonsense"])


class TestCliSchedule:
    def test_schedule_kernel(self, capsys):
        main(["schedule", "daxpy", "--clusters", "2"])
        out = capsys.readouterr().out
        assert "II=" in out
        assert "kernel" in out

    def test_schedule_unified(self, capsys):
        main(["schedule", "dot", "--clusters", "1"])
        out = capsys.readouterr().out
        assert "II=3" in out  # serial reduction: RecMII

    def test_schedule_exact_scheduler(self, capsys):
        main(["schedule", "daxpy", "--clusters", "2", "--scheduler", "exact"])
        out = capsys.readouterr().out
        assert "II=1" in out  # optimal: the heuristics need extra MaxLive
        assert "kernel" in out

    def test_schedule_exact_unified(self, capsys):
        main(["schedule", "dot", "--clusters", "1", "--scheduler", "exact"])
        out = capsys.readouterr().out
        assert "II=3" in out  # serial reduction: RecMII, same as SMS

    def test_list_includes_scheduler_table(self, capsys):
        main(["schedule", "--list"])
        out = capsys.readouterr().out
        assert "daxpy" in out  # kernel catalogue still listed
        assert "exact" in out
        assert "ExactScheduler" in out
        assert "bsa" in out

    def test_unknown_scheduler_is_a_usage_error(self, capsys):
        """A typo'd --scheduler exits with a one-line message, not a
        traceback (the registry KeyError must not escape)."""
        with pytest.raises(SystemExit) as err:
            main(["schedule", "daxpy", "--scheduler", "nope"])
        message = str(err.value)
        assert "unknown scheduler 'nope'" in message
        assert "exact" in message  # the known list names the oracle too

    def test_oversized_exact_kernel_exits_cleanly(self, capsys):
        """ExactTimeout surfaces as a clean CLI error, not a traceback."""
        from unittest import mock

        from repro.core.exact import ExactScheduler

        original = ExactScheduler.__init__

        def tiny(self, config, **kwargs):
            kwargs["max_nodes"] = 4
            original(self, config, **kwargs)

        with mock.patch.object(ExactScheduler, "__init__", tiny):
            with pytest.raises(SystemExit) as err:
                main(["schedule", "fir4", "--clusters", "2",
                      "--scheduler", "exact"])
        assert "exact-search limit" in str(err.value)

    def test_unknown_kernel_exits(self):
        with pytest.raises(SystemExit):
            main(["schedule", "nonsense"])

    @pytest.mark.parametrize("kernel", BAD_FIR_OVERRIDES)
    def test_bad_workload_override_is_a_one_line_error(self, kernel):
        with pytest.raises(SystemExit) as err:
            main(["schedule", kernel, "--clusters", "2"])
        message = str(err.value)
        assert "\n" not in message
        assert message.startswith("workload 'fir' parameter 'taps'")

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliGap:
    def test_gap_quick_table(self, capsys, tmp_path):
        main(["gap", "--quick", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "Heuristic vs optimal" in out
        assert "figure7" in out
        assert "exact_ii" in out
        assert "point(s)" in out  # sweep stats footer

    def test_gap_markdown_and_json(self, capsys, tmp_path):
        import json

        main(["gap", "--quick", "--format", "markdown",
              "--cache-dir", str(tmp_path)])
        md = capsys.readouterr().out
        assert md.startswith("| kernel |")
        main(["gap", "--quick", "--format", "json",
              "--cache-dir", str(tmp_path)])
        rows = json.loads(capsys.readouterr().out)
        by_kernel = {
            (r["kernel"], r["config"]): r for r in rows
        }
        fig7 = by_kernel[("figure7", "2-cluster/b1/l1")]
        assert fig7["exact_ii"] == 2
        assert fig7["bsa_ii"] == 3
        assert fig7["ii_gap"] == 1

    def test_gap_report_out(self, capsys, tmp_path):
        import json

        report = tmp_path / "gap.json"
        main(["gap", "--quick", "--format", "json",
              "--cache-dir", str(tmp_path / "cache"),
              "--report-out", str(report)])
        captured = capsys.readouterr()
        assert json.loads(captured.out)  # the report line must not corrupt it
        assert "run report" in captured.err
        assert report.exists()
        main(["report", str(report), "--by", "scheduler"])
        out = capsys.readouterr().out
        assert "exact" in out


class TestServeSignals:
    @pytest.mark.parametrize("sig", ["SIGINT", "SIGTERM"])
    def test_signal_stops_serve_gracefully(self, sig):
        """Both signals take the Ctrl-C path, even with SIGINT ignored the
        way a non-interactive shell starts a background job."""
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        argv = ["serve", "--port", "0", "--workers", "0", "--no-cache"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            assert "listening on" in proc.stdout.readline()
            proc.send_signal(getattr(signal, sig))
            out, err = proc.communicate(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "shutting down" in out


class TestOneShotClients:
    """``submit`` and ``sweep --coordinator`` close the client they open."""

    @pytest.fixture()
    def server(self, tmp_path):
        import threading

        from repro.runner import ResultCache
        from repro.service import SchedulingService, ServiceServer

        # No worker ever pulls, so a distributed sweep fails fast.
        svc = SchedulingService(
            cache=ResultCache(tmp_path / "cache"),
            workers=0,
            fabric_opts={"sweep_timeout_s": 0.3},
        )
        srv = ServiceServer(svc, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv
        srv.shutdown()
        srv.server_close()
        svc.close()
        thread.join(10.0)

    @pytest.fixture()
    def opened(self, monkeypatch):
        """Every ``ServiceClient`` created, mapped to whether it was closed."""
        from repro.service import ServiceClient

        clients = {}
        init, close = ServiceClient.__init__, ServiceClient.close

        def tracking_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            clients[self] = False

        def tracking_close(self):
            close(self)
            clients[self] = True

        monkeypatch.setattr(ServiceClient, "__init__", tracking_init)
        monkeypatch.setattr(ServiceClient, "close", tracking_close)
        return clients

    def test_submit_closes_its_client(self, server, opened, capsys):
        main(["submit", "dot", "--port", str(server.port)])
        assert "II=" in capsys.readouterr().out
        assert list(opened.values()) == [True]

    def test_coordinator_sweep_closes_its_client(self, server, opened):
        with pytest.raises(SystemExit, match="timed out"):
            main(
                ["sweep", "smoke", "--quick", "--distributed",
                 "--coordinator", server.url, "--timeout", "30"]
            )
        assert list(opened.values()) == [True]
