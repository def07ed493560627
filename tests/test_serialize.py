"""Round-trip tests for JSON serialisation."""

import pytest

from repro.arch.configs import four_cluster_config, two_cluster_config, unified_config
from repro.arch.resources import BusSpec, FuSet
from repro.core.bsa import BsaScheduler
from repro.core.verify import verify_schedule
from repro.errors import GraphError
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
    schedule_body_from_dict,
    schedule_body_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
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

    def test_body_decodes_only_against_its_own_graph(self):
        cfg = two_cluster_config(1, 1)
        graph = daxpy()
        sched = BsaScheduler(cfg).schedule(graph)
        body = loads(dumps(schedule_body_to_dict(sched)))
        assert "graph" not in body and "machine" not in body
        back = schedule_body_from_dict(body, graph, cfg)
        assert back.graph is graph and back.config is cfg
        assert schedule_to_dict(back) == schedule_to_dict(sched)
        with pytest.raises(GraphError, match="not the"):
            schedule_body_from_dict(body, figure7_graph(), cfg)
