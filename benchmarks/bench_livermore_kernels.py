"""Classic-kernels study: the Livermore loops on the paper's machines.

Hand-written kernels with exactly known dependence structure, scheduled on
all three Table-1 machines with and without selective unrolling: the
recurrence-bound kernels (ll3, ll5, ll11) must be immune to unrolling,
the parallel ones must recover unified parity on the clustered machines.
"""

from conftest import save_result

from repro.arch.configs import (
    four_cluster_config,
    two_cluster_config,
    unified_config,
)
from repro.core.bsa import BsaScheduler
from repro.core.selective import UnrollPolicy, schedule_with_policy
from repro.core.unified import UnifiedScheduler
from repro.core.verify import verify_schedule
from repro.perf import format_table
from repro.workloads import workloads
from repro.workloads.livermore import RECURRENCE_BOUND


def run_livermore_study():
    unified = unified_config()
    machines = (two_cluster_config(1, 1), four_cluster_config(1, 1))
    rows = []
    for spec in sorted(workloads(tag="livermore"), key=lambda spec: spec.name):
        name, graph = spec.name, spec.factory()
        u = UnifiedScheduler(unified).schedule(graph)
        verify_schedule(u)
        row = {"kernel": name, "ops": len(graph), "unified_ii": u.ii}
        for cfg in machines:
            nu = schedule_with_policy(
                graph, BsaScheduler(cfg), UnrollPolicy.NONE
            )
            su = schedule_with_policy(
                graph, BsaScheduler(cfg), UnrollPolicy.SELECTIVE
            )
            verify_schedule(nu.schedule)
            verify_schedule(su.schedule)
            label = f"{cfg.n_clusters}c"
            row[f"{label}_nu_ii"] = nu.schedule.ii
            row[f"{label}_su_ii_per_iter"] = su.ii_per_original_iteration
            row[f"{label}_unrolled"] = su.unroll_factor > 1
        rows.append(row)
    return rows


def test_livermore_study(benchmark, results_dir):
    rows = benchmark.pedantic(run_livermore_study, rounds=1, iterations=1)

    by_name = {r["kernel"]: r for r in rows}
    # recurrence-bound kernels never unroll and keep their RecMII rate
    for name in RECURRENCE_BOUND:
        assert not by_name[name]["4c_unrolled"], name
        assert by_name[name]["4c_su_ii_per_iter"] >= by_name[name]["unified_ii"]
    # parallel kernels stay within 1 cycle/iteration of the unified rate
    for name, row in by_name.items():
        if name in RECURRENCE_BOUND:
            continue
        assert row["4c_su_ii_per_iter"] <= row["unified_ii"] + 1.0, name

    save_result(
        results_dir,
        "livermore.txt",
        format_table(rows, title="Livermore kernels across the Table-1 machines"),
    )
