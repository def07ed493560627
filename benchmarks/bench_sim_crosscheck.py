"""SIM-XC — simulator throughput and model cross-validation.

Two tracked numbers:

* **Throughput** — machine cycles simulated per second of wall time, over
  a mix of kernels and machines (the simulator is a verification tool;
  it must stay fast enough to cross-check whole experiment grids).
* **Exactness** — under a perfect memory every simulated run must equal
  the analytic ``(K + SC - 1) * II`` cycle count and IPC exactly.
"""

from __future__ import annotations

import time

from conftest import save_result

from repro.arch.configs import four_cluster_config, unified_config
from repro.core.bsa import BsaScheduler
from repro.core.unified import UnifiedScheduler
from repro.perf import format_table
from repro.sim import crosscheck_schedule, simulate_schedule
from repro.workloads import workload

#: (kernel, config label, niter) — enough dynamic cycles to time reliably.
SCENARIOS = (
    ("daxpy", "unified", 20_000),
    ("stencil5", "unified", 10_000),
    ("stencil5", "4-cluster", 10_000),
    ("cmul", "4-cluster", 10_000),
    ("fir4", "4-cluster", 10_000),
    ("ladder", "4-cluster", 10_000),
)


def _schedules():
    configs = {
        "unified": unified_config(),
        "4-cluster": four_cluster_config(n_buses=1, bus_latency=1),
    }
    out = []
    for kernel, label, niter in SCENARIOS:
        config = configs[label]
        scheduler = (
            UnifiedScheduler(config)
            if config.n_clusters == 1
            else BsaScheduler(config)
        )
        graph = workload(kernel).factory()
        out.append((kernel, label, scheduler.schedule(graph), niter))
    return out


def test_sim_crosscheck(benchmark, results_dir):
    schedules = _schedules()

    def run_all():
        return [
            (kernel, label, niter, simulate_schedule(sched, niter))
            for kernel, label, sched, niter in schedules
        ]

    start = time.perf_counter()
    runs = benchmark.pedantic(run_all, rounds=3, iterations=1)
    elapsed = (time.perf_counter() - start) / 3

    rows = []
    total_cycles = 0
    for (kernel, label, sched, niter), (_, _, _, report) in zip(schedules, runs):
        check = crosscheck_schedule(sched, niter)
        assert check.exact, f"{kernel} on {label}: {check.render()}"
        total_cycles += report.cycles
        rows.append(
            {
                "kernel": kernel,
                "config": label,
                "niter": niter,
                "cycles": report.cycles,
                "ipc": report.ipc,
                "max_bus_occupancy": max(report.bus_occupancy, default=0.0),
                "peak_live": max(report.peak_live),
            }
        )
    throughput = total_cycles / elapsed
    assert throughput > 50_000, f"simulator too slow: {throughput:.0f} cycles/s"

    text = format_table(rows, title="Simulator cross-check (perfect memory)")
    text += (
        f"\n\n{total_cycles} cycles simulated per round, "
        f"~{throughput / 1e6:.2f} M cycles/sec"
    )
    save_result(results_dir, "sim_crosscheck.txt", text)
