"""EXP-A7/A8 — substrate ablations.

* A7: per-cluster register-file sweep — where the no-spill pressure wall
  sits relative to the paper's 16 registers/cluster;
* A8: modulo scheduling vs one-iteration list scheduling — the gap that
  motivates software pipelining in the first place.
"""

from conftest import save_result

from repro.experiments import run_pipelining_gain, run_register_sweep
from repro.perf import format_table
from repro.workloads import resolve_workload

#: A7 uses a 4-program sub-suite: the sweep re-schedules everything per
#: register size, and four programs capture the pressure spectrum.
SWEEP_PROGRAMS = ("tomcatv", "swim", "applu", "fpppp")


def test_ablation_register_sweep(benchmark, results_dir):
    suite = [resolve_workload(name, kind="program")[1]() for name in SWEEP_PROGRAMS]
    points = benchmark.pedantic(
        run_register_sweep, args=(suite,), rounds=1, iterations=1
    )
    from repro.core.selective import UnrollPolicy

    by = {(p.regs_per_cluster, p.policy): p for p in points}
    # IPC grows (weakly) with the file size
    for policy in (UnrollPolicy.NONE, UnrollPolicy.SELECTIVE):
        assert by[(32, policy)].mean_ipc >= by[(8, policy)].mean_ipc - 0.05
    # the paper's 16 regs/cluster sits above the collapse region
    assert by[(16, UnrollPolicy.SELECTIVE)].mean_ipc > 0.8 * by[
        (32, UnrollPolicy.SELECTIVE)
    ].mean_ipc
    rows = [
        {
            "regs_per_cluster": p.regs_per_cluster,
            "policy": str(p.policy),
            "mean_ipc": p.mean_ipc,
            "fallback_loops": p.fallback_loops,
        }
        for p in points
    ]
    save_result(
        results_dir,
        "ablation_register_sweep.txt",
        format_table(rows, title="A7: register-file sweep (4c, 1 bus, latency 1)"),
    )


def test_ablation_pipelining_gain(benchmark, ctx, results_dir):
    points = benchmark.pedantic(
        run_pipelining_gain, args=(ctx,), rounds=1, iterations=1
    )
    # software pipelining wins on every program, usually by a lot
    for p in points:
        assert p.gain > 1.5, p.program
    rows = [
        {
            "program": p.program,
            "list_ipc": p.list_ipc,
            "modulo_ipc": p.modulo_ipc,
            "gain": p.gain,
        }
        for p in points
    ]
    save_result(
        results_dir,
        "ablation_pipelining_gain.txt",
        format_table(
            rows, title="A8: modulo scheduling vs list scheduling (4c/1bus)"
        ),
    )
