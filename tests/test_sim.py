"""Tests for the cycle-accurate simulator (repro.sim).

The load-bearing property: under a perfect memory, executing the emitted
code of any verified schedule must reproduce the analytic model's
``(ceil(NITER/U) + SC - 1) * II`` cycles and its IPC *exactly* — any
divergence is a failing test, not a logged warning.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.arch.configs import (
    four_cluster_config,
    two_cluster_config,
    unified_config,
)
from repro.core.bsa import BsaScheduler
from repro.core.schedule import Communication
from repro.core.unified import UnifiedScheduler
from repro.core.verify import verify_schedule
from repro.errors import SimulationError
from repro.ir.unroll import unroll_graph
from repro.perf.model import StallModel, pipeline_cycles
from repro.sim import (
    PerfectMemory,
    RandomMissMemory,
    crosscheck_loop,
    crosscheck_schedule,
    memory_from_stall_model,
    simulate_result,
    simulate_schedule,
)
from repro.workloads.kernels import kernel_loop, resolve_kernel
from repro.workloads.registry import workload, workloads

NITER = 100
KERNELS = sorted(spec.name for spec in workloads(tag="kernel"))


def _schedule(graph, config):
    scheduler = (
        UnifiedScheduler(config) if config.n_clusters == 1 else BsaScheduler(config)
    )
    sched = scheduler.schedule(graph)
    verify_schedule(sched)
    return sched


class TestCrossCheckAllKernels:
    """Simulated == analytic for every kernel on the paper's machines."""

    @pytest.fixture(params=["unified", "4-cluster/1-bus"])
    def config(self, request):
        if request.param == "unified":
            return unified_config()
        return four_cluster_config(n_buses=1, bus_latency=1)

    @pytest.mark.parametrize("name", KERNELS)
    def test_exact_match(self, name, config):
        graph = workload(name).factory()
        sched = _schedule(graph, config)
        report = simulate_schedule(sched, NITER)

        expected = pipeline_cycles(NITER, sched.stage_count, sched.ii)
        assert report.cycles == expected
        assert report.stall_cycles == 0
        assert report.ipc == len(graph) * NITER / expected
        assert report.issued_ops == len(graph) * NITER

    @pytest.mark.parametrize("name", KERNELS)
    def test_crosscheck_schedule_is_exact(self, name, config):
        sched = _schedule(workload(name).factory(), config)
        check = crosscheck_schedule(sched, NITER)
        assert check.exact
        assert check.cycle_divergence == 0
        assert check.ipc_divergence == 0.0

    @pytest.mark.parametrize("name", ["daxpy", "dot", "stencil3", "figure7"])
    def test_short_trip_counts_match_too(self, name, config):
        """Trip counts shorter than the pipeline depth still agree (the
        simulator predicates the ramp; the model charges the same ramp)."""
        sched = _schedule(workload(name).factory(), config)
        for niter in (1, 2, 3, sched.stage_count, 7):
            assert crosscheck_schedule(sched, niter).exact


class TestUnrolledSimulation:
    @pytest.mark.parametrize("name", ["daxpy", "dot", "cmul", "figure7"])
    @pytest.mark.parametrize("niter", [96, 103])  # multiple and remainder
    def test_unrolled_matches_model(self, name, niter):
        config = two_cluster_config(n_buses=2, bus_latency=1)
        graph = workload(name).factory()
        source_ops = len(graph)
        sched = _schedule(unroll_graph(graph, 2), config)
        report = simulate_schedule(
            sched, niter, unroll_factor=2, ops_per_source_iteration=source_ops
        )
        k = math.ceil(niter / 2)
        assert report.kernel_iterations == k
        assert report.cycles == pipeline_cycles(k, sched.stage_count, sched.ii)
        assert report.ipc == source_ops * niter / report.cycles
        # the remainder batch issues more than it usefully retires
        assert report.issued_ops == 2 * source_ops * k

    def test_crosscheck_loop_via_policy(self):
        from repro.core.selective import UnrollPolicy, schedule_with_policy

        loop = kernel_loop("daxpy", trip_count=100)
        config = four_cluster_config(n_buses=2, bus_latency=1)
        result = schedule_with_policy(
            loop.graph, BsaScheduler(config), UnrollPolicy.ALL
        )
        check = crosscheck_loop(loop, result)
        assert check.exact


class TestDataflowTokenCheck:
    def test_moved_op_trips_the_check(self):
        """A corrupted schedule (consumer moved onto its producer's cycle)
        is a hard simulation error, caught while executing the code."""
        sched = _schedule(workload("daxpy").factory(), four_cluster_config())
        dep = next(
            d
            for d in sched.graph.edges
            if d.moves_value
            and d.distance == 0
            and sched.ops[d.src].cluster == sched.ops[d.dst].cluster
        )
        sched.ops[dep.dst] = replace(
            sched.ops[dep.dst], cycle=sched.ops[dep.src].cycle
        )
        with pytest.raises(SimulationError, match="before it is ready"):
            simulate_schedule(sched, 10)

    def test_comm_before_production_is_an_error(self):
        sched = _schedule(workload("stencil3").factory(), four_cluster_config())
        assert sched.comms, "kernel expected to communicate on 4 clusters"
        comm = sched.comms[0]
        sched.comms[0] = replace(comm, start_cycle=0)
        producer = sched.ops[comm.producer]
        if producer.cycle + sched.graph.operation(comm.producer).latency > 0:
            with pytest.raises(SimulationError, match="before the value exists"):
                simulate_schedule(sched, 10)

    def test_double_booked_bus_is_contention(self):
        sched = _schedule(workload("stencil3").factory(), four_cluster_config())
        assert sched.comms
        comm = sched.comms[0]
        # a second transfer of the same value on the same bus, same cycle
        sched.comms.append(
            Communication(
                producer=comm.producer,
                src_cluster=comm.src_cluster,
                bus=comm.bus,
                start_cycle=comm.start_cycle,
                readers=comm.readers,
            )
        )
        with pytest.raises(SimulationError, match="contention"):
            simulate_schedule(sched, 10)

    def test_value_never_delivered_is_an_error(self):
        """Dropping a communication strands the remote consumer."""
        sched = _schedule(workload("stencil3").factory(), four_cluster_config())
        assert sched.comms
        sched.comms.pop(0)
        with pytest.raises(SimulationError, match="never reached"):
            simulate_schedule(sched, 10)


class TestMemoryModel:
    def test_certain_miss_is_deterministic(self):
        sched = _schedule(workload("daxpy").factory(), four_cluster_config())
        report = simulate_schedule(
            sched, 50, memory=RandomMissMemory(1.0, 7, seed=1)
        )
        base = pipeline_cycles(50, sched.stage_count, sched.ii)
        assert report.loads_executed == 2 * 50
        assert report.load_misses == report.loads_executed
        assert report.stall_cycles == 7 * report.loads_executed
        assert report.cycles == base + report.stall_cycles
        assert report.ipc < len(sched.graph) * 50 / base

    def test_seeded_runs_reproduce(self):
        sched = _schedule(workload("daxpy").factory(), four_cluster_config())
        runs = [
            simulate_schedule(sched, 200, memory=RandomMissMemory(0.3, 9, seed=42))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        other = simulate_schedule(
            sched, 200, memory=RandomMissMemory(0.3, 9, seed=43)
        )
        assert other.load_misses != runs[0].load_misses or other.cycles != runs[0].cycles

    def test_miss_rate_zero_is_perfect(self):
        sched = _schedule(workload("gather").factory(), unified_config())
        a = simulate_schedule(sched, 64, memory=PerfectMemory())
        b = simulate_schedule(sched, 64, memory=RandomMissMemory(0.0, 100, seed=5))
        assert a == b

    def test_memory_from_stall_model(self):
        assert isinstance(memory_from_stall_model(StallModel(0.0, 0)), PerfectMemory)
        mem = memory_from_stall_model(StallModel(0.25, 12), seed=7)
        assert isinstance(mem, RandomMissMemory)
        assert mem.miss_rate == 0.25 and mem.miss_penalty == 12

    def test_sampled_stalls_approach_the_closed_form(self):
        """The dynamic model's mean stall tracks the StallModel estimate."""
        sched = _schedule(workload("daxpy").factory(), unified_config())
        stall_model = StallModel(0.2, 10)
        niter = 400
        samples = [
            simulate_schedule(
                sched, niter, memory=RandomMissMemory(0.2, 10, seed=s)
            ).stall_cycles
            for s in range(20)
        ]
        expected = stall_model.stall_cycles(2 * niter)
        mean = sum(samples) / len(samples)
        assert abs(mean - expected) / expected < 0.15


class TestReportShape:
    def test_bus_occupancy_and_peak_live_are_sane(self):
        config = four_cluster_config(n_buses=1, bus_latency=1)
        sched = _schedule(workload("stencil3").factory(), config)
        report = simulate_schedule(sched, NITER)
        assert len(report.bus_occupancy) == 1
        assert all(0.0 <= occ <= 1.0 for occ in report.bus_occupancy)
        assert report.bus_occupancy[0] > 0.0  # this kernel communicates
        assert len(report.peak_live) == 4
        assert all(0 <= p <= config.regs_per_cluster for p in report.peak_live)
        assert max(report.peak_live) > 0

    def test_render_mentions_the_headline_numbers(self):
        sched = _schedule(workload("dot").factory(), four_cluster_config())
        report = simulate_schedule(sched, NITER)
        text = report.render()
        assert str(report.cycles) in text
        assert "IPC" in text
        assert "bus 0 occupancy" in text
        assert "peak live" in text

    def test_simulate_result_carries_unroll(self):
        from repro.core.selective import ScheduledLoopResult, UnrollPolicy

        graph = workload("daxpy").factory()
        sched = _schedule(unroll_graph(graph, 2), two_cluster_config())
        result = ScheduledLoopResult(sched, 2, UnrollPolicy.ALL)
        report = simulate_result(result, 60, ops_per_source_iteration=len(graph))
        assert report.unroll_factor == 2
        assert report.kernel_iterations == 30

    def test_bad_arguments_are_rejected(self):
        sched = _schedule(workload("daxpy").factory(), unified_config())
        with pytest.raises(SimulationError):
            simulate_schedule(sched, 0)
        with pytest.raises(SimulationError):
            simulate_schedule(sched, 10, unroll_factor=0)
        with pytest.raises(SimulationError):
            simulate_schedule(sched, 10, unroll_factor=3)  # 5 ops % 3 != 0


class TestKernelHelpers:
    def test_aliases_resolve(self):
        key, factory = resolve_kernel("dot_product")
        assert key == "dot"
        assert factory is workload("dot").factory
        assert resolve_kernel("daxpy")[0] == "daxpy"
        with pytest.raises(KeyError):
            resolve_kernel("nonsense")

    def test_kernel_loop(self):
        loop = kernel_loop("dot_product", trip_count=64)
        assert loop.name == "dot"
        assert loop.trip_count == 64
        assert loop.eligible_for_modulo_scheduling


class TestCrossvalExperiment:
    def test_small_grid_has_zero_divergence(self):
        from repro.experiments import (
            ExperimentContext,
            crossval_rows,
            max_cycle_divergence,
            max_ipc_divergence,
            run_crossval,
        )
        from repro.workloads.registry import workload

        ctx = ExperimentContext(suite=[workload("swim").factory()])
        points = run_crossval(
            ctx, cluster_counts=(4,), bus_counts=(1,), latencies=(1,)
        )
        assert points
        assert max_ipc_divergence(points) == 0.0
        assert max_cycle_divergence(points) == 0
        assert all(p.check.exact for p in points)
        rows = crossval_rows(points)
        assert all(row["exact"] == row["loops"] for row in rows)
        per_loop = crossval_rows(points, per_loop=True)
        assert len(per_loop) == len(points)
