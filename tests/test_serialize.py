"""Round-trip tests for JSON serialisation."""

from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.configs import four_cluster_config, two_cluster_config, unified_config
from repro.arch.resources import BusSpec, FuSet
from repro.core.bsa import BsaScheduler
from repro.core.verify import verify_schedule
from repro.errors import GraphError, SchedulingError
from repro.ir.ddg import DependenceGraph
from repro.ir.loop import Loop, Program
from repro.ir.serialize import (
    config_from_dict,
    config_to_dict,
    dumps,
    graph_from_dict,
    graph_to_dict,
    loads,
    loop_from_dict,
    loop_to_dict,
    program_from_dict,
    program_to_dict,
    schedule_body_from_rows,
    schedule_body_to_rows,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.runner.engine import SCHEDULERS, make_scheduler
from repro.workloads.generator import LoopShape, generate_loop
from repro.workloads.kernels import daxpy, figure7_graph
from repro.workloads.registry import workloads


def graph_signature(g: DependenceGraph):
    return (
        g.name,
        [(op.opcode.name, op.tag) for op in g.operations()],
        sorted((d.src, d.dst, d.latency, d.distance, d.kind.value) for d in g.edges),
    )


class TestGraphRoundTrip:
    def test_all_kernels(self):
        for spec in workloads(tag="kernel"):
            g = spec.factory()
            g2 = graph_from_dict(loads(dumps(graph_to_dict(g))))
            assert graph_signature(g) == graph_signature(g2), spec.name

    def test_wrong_kind_rejected(self):
        data = graph_to_dict(daxpy())
        data["kind"] = "schedule"
        with pytest.raises(GraphError, match="expected"):
            graph_from_dict(data)

    def test_wrong_version_rejected(self):
        data = graph_to_dict(daxpy())
        data["format"] = 99
        with pytest.raises(GraphError, match="version"):
            graph_from_dict(data)

    @pytest.mark.parametrize("field", ["operations", "dependences"])
    def test_non_object_item_rejected(self, field):
        data = graph_to_dict(daxpy())
        data[field].append("x")
        with pytest.raises(GraphError, match="object, got str"):
            graph_from_dict(data)


class TestLoopProgramRoundTrip:
    def test_loop(self):
        lp = Loop(graph=daxpy(), trip_count=128, times_executed=7)
        lp2 = loop_from_dict(loads(dumps(loop_to_dict(lp))))
        assert lp2.trip_count == 128
        assert lp2.times_executed == 7
        assert graph_signature(lp.graph) == graph_signature(lp2.graph)

    def test_program(self):
        p = Program(
            "prog",
            [
                Loop(graph=daxpy(), trip_count=10),
                Loop(graph=figure7_graph(), trip_count=99, times_executed=2),
            ],
        )
        p2 = program_from_dict(loads(dumps(program_to_dict(p))))
        assert p2.name == "prog"
        assert len(p2) == 2
        assert p2.loops[1].trip_count == 99


class TestConfigRoundTrip:
    def test_paper_configs(self):
        for cfg in (unified_config(), two_cluster_config(2, 4), four_cluster_config()):
            cfg2 = config_from_dict(loads(dumps(config_to_dict(cfg))))
            assert cfg2 == cfg

    def test_heterogeneous(self):
        from repro.arch.cluster import heterogeneous_config

        cfg = heterogeneous_config(
            "h", (FuSet(1, 3, 1), FuSet(3, 1, 1)), 16, BusSpec(1, 2)
        )
        cfg2 = config_from_dict(loads(dumps(config_to_dict(cfg))))
        assert cfg2 == cfg


class TestScheduleRoundTrip:
    def test_clustered_schedule_reverifies(self):
        cfg = two_cluster_config(1, 1)
        sched = BsaScheduler(cfg).schedule(figure7_graph())
        sched2 = schedule_from_dict(loads(dumps(schedule_to_dict(sched))))
        verify_schedule(sched2)
        assert sched2.ii == sched.ii
        assert sched2.mii == sched.mii
        assert len(sched2.comms) == len(sched.comms)
        assert {n: (o.cycle, o.cluster, o.fu_index) for n, o in sched.ops.items()} == {
            n: (o.cycle, o.cluster, o.fu_index) for n, o in sched2.ops.items()
        }

    def test_tampered_schedule_fails_verification(self):
        from repro.errors import VerificationError

        cfg = two_cluster_config(1, 1)
        sched = BsaScheduler(cfg).schedule(daxpy())
        data = loads(dumps(schedule_to_dict(sched)))
        data["operations"][0]["cycle"] += 1  # corrupt one placement
        sched2 = schedule_from_dict(data)
        with pytest.raises(VerificationError):
            verify_schedule(sched2)

    def test_document_records_are_self_describing(self):
        sched = BsaScheduler(four_cluster_config(1, 1)).schedule(figure7_graph())
        assert sched.comms and sched.attempt_failures
        data = schedule_to_dict(sched)
        assert list(data) == [
            "format", "kind", "graph", "machine", "ii", "mii",
            "bus_utilisation", "attempt_failures", "operations", "communications",
        ]
        assert data["operations"] == [
            {
                "node": o.node,
                "cycle": o.cycle,
                "cluster": o.cluster,
                "fu_index": o.fu_index,
            }
            for o in sched.ops.values()
        ]
        assert data["communications"] == [
            {
                "producer": c.producer,
                "src_cluster": c.src_cluster,
                "bus": c.bus,
                "start_cycle": c.start_cycle,
                "readers": sorted(c.readers),
            }
            for c in sched.comms
        ]
        assert data["attempt_failures"] == [asdict(f) for f in sched.attempt_failures]

    def test_body_decodes_only_against_its_own_graph(self):
        cfg = two_cluster_config(1, 1)
        graph = daxpy()
        sched = BsaScheduler(cfg).schedule(graph)
        body = loads(dumps(schedule_body_to_rows(sched)))
        assert "graph" not in body and "machine" not in body
        back = schedule_body_from_rows(body, graph, cfg)
        assert back.graph is graph and back.config is cfg
        assert schedule_to_dict(back) == schedule_to_dict(sched)
        with pytest.raises(GraphError, match="not the"):
            schedule_body_from_rows(body, figure7_graph(), cfg)


def figure7_body():
    """Figure 7's body on four clusters: it has communications and a
    failed attempt's log."""
    cfg = four_cluster_config(1, 1)
    graph = figure7_graph()
    return schedule_body_to_rows(BsaScheduler(cfg).schedule(graph)), graph, cfg


class TestBodyRows:
    """Every row of a body is a list of exactly its record's fields."""

    @pytest.mark.parametrize(
        "key, row",
        [
            ("operations", "x"),
            ("operations", {"node": 0, "cycle": 0, "cluster": 0, "fu_index": 0}),
            ("operations", [0, 0, 0]),
            ("operations", [0, 0, 0, 0, 0]),
            ("communications", [0, 0, 0, 0]),
            ("communications", [0, 0, 0, 0, [1], 0]),
            ("attempt_failures", [0, 0, 0]),
            ("attempt_failures", (0, 0, 0, 0)),
        ],
    )
    def test_misshapen_row_rejected(self, key, row):
        body, graph, cfg = figure7_body()
        body[key][0] = row
        with pytest.raises(GraphError, match="row"):
            schedule_body_from_rows(body, graph, cfg)

    @pytest.mark.parametrize("key", ["ii", "mii"])
    @pytest.mark.parametrize("value", [0, -1, 1.0, "2", None])
    def test_ii_and_mii_must_be_positive_ints(self, key, value):
        body, graph, cfg = figure7_body()
        body[key] = value
        with pytest.raises(GraphError, match=f"{key} must be a positive integer"):
            schedule_body_from_rows(body, graph, cfg)


MACHINES = [unified_config(), two_cluster_config(1, 1), four_cluster_config(1, 4)]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_ops=st.integers(min_value=3, max_value=8),
    carried=st.sampled_from([0.0, 0.4]),
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    config=st.sampled_from(MACHINES),
)
def test_rows_round_trip_generated_loops(seed, n_ops, carried, scheduler, config):
    """Encoding a schedule's body as rows and decoding them, through JSON
    text, gives back the schedule: every registered scheduler, generated
    loops, unified and clustered machines."""
    graph = generate_loop(
        LoopShape("rows", seed=seed, n_ops=n_ops, carried_edge_prob=carried)
    )
    try:
        sched = make_scheduler(scheduler, config).schedule(graph)
    except SchedulingError:
        return
    body = loads(dumps(schedule_body_to_rows(sched)))
    back = schedule_body_from_rows(body, graph, config)
    assert (back.ii, back.mii, back.bus_utilisation) == (
        sched.ii, sched.mii, sched.bus_utilisation
    )
    assert back.attempt_failures == sched.attempt_failures
    assert list(back.ops.items()) == list(sched.ops.items())
    assert back.comms == sched.comms
    assert back.was_bus_limited == sched.was_bus_limited
