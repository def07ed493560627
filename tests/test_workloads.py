"""Tests for the kernels, the generator and the synthetic SPECfp95 suite."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mii import rec_mii
from repro.errors import GraphError
from repro.ir.loop import MIN_MODULO_TRIP_COUNT
from repro.ir.operation import FuClass
from repro.workloads.generator import LoopShape, RecurrenceSpec, generate_loop
from repro.workloads.kernels import figure7_graph, ladder_graph
from repro.workloads.registry import resolve_workload, workload, workloads
from repro.workloads.specfp import PROGRAM_NAMES, specfp95_suite


class TestKernels:
    def test_all_kernels_validate(self):
        for spec in workloads(tag="kernel"):
            g = spec.factory()
            g.validate()
            assert len(g) >= 2, spec.name

    def test_kernels_are_fresh_instances(self):
        g1 = workload("daxpy").factory()
        g2 = workload("daxpy").factory()
        assert g1 is not g2

    def test_figure7_matches_paper_parameters(self):
        g = figure7_graph()
        assert len(g) == 6
        assert rec_mii(g) == 2

    def test_ladder_parameters(self):
        g = ladder_graph()
        assert len(g) == 12
        assert rec_mii(g) == 3


class TestGenerator:
    def shape(self, **kw):
        defaults = dict(name="t", seed=42, n_ops=30)
        defaults.update(kw)
        return LoopShape(**defaults)

    def test_deterministic(self):
        g1 = generate_loop(self.shape())
        g2 = generate_loop(self.shape())
        assert len(g1) == len(g2)
        assert [op.opcode.name for op in g1.operations()] == [
            op.opcode.name for op in g2.operations()
        ]
        assert [(d.src, d.dst, d.distance) for d in g1.edges] == [
            (d.src, d.dst, d.distance) for d in g2.edges
        ]

    def test_different_seeds_differ(self):
        g1 = generate_loop(self.shape(seed=1))
        g2 = generate_loop(self.shape(seed=2))
        sig1 = [(d.src, d.dst) for d in g1.edges]
        sig2 = [(d.src, d.dst) for d in g2.edges]
        assert sig1 != sig2

    def test_op_count_close_to_requested(self):
        g = generate_loop(self.shape(n_ops=40))
        assert 30 <= len(g) <= 50

    def test_long_range_prob_monotonic(self):
        """More long-range knob -> more long-range operand edges.

        Regression test for the knob gating the wrong branch: counts
        (averaged over seeds) must increase monotonically in the knob and
        be exactly zero when it is zero.
        """

        def long_edges(prob: float) -> int:
            total = 0
            for seed in range(10):
                shape = self.shape(seed=seed, n_ops=60, long_range_prob=prob)
                g = generate_loop(shape)
                # operands reaching further back than twice the locality
                # window can only come from the long-range draw
                total += sum(
                    1 for d in g.edges if d.dst - d.src > 2 * shape.locality_window
                )
            return total

        counts = [long_edges(p) for p in (0.0, 0.25, 0.5, 1.0)]
        assert counts[0] == 0
        assert counts == sorted(counts)
        assert counts[0] < counts[1] < counts[3]

    def test_mem_fraction_respected(self):
        g = generate_loop(self.shape(n_ops=60, mem_fraction=0.5))
        counts = g.op_count_by_class()
        mem = counts.get(FuClass.MEM, 0)
        assert 0.3 <= mem / len(g) <= 0.65

    def test_recurrences_create_cycles(self):
        g = generate_loop(
            self.shape(recurrences=(RecurrenceSpec(3, 1), RecurrenceSpec(2, 2)))
        )
        from repro.core.sms import recurrence_sets

        assert len(recurrence_sets(g)) == 2

    def test_rec_mii_reflects_recurrence(self):
        g = generate_loop(self.shape(recurrences=(RecurrenceSpec(4, 1),)))
        assert rec_mii(g) >= 4  # at least one cycle of >= 4 unit-latency ops

    def test_carried_edges_present(self):
        g = generate_loop(self.shape(n_ops=50, carried_edge_prob=0.5))
        assert any(d.distance > 0 for d in g.edges)

    def test_validation_errors(self):
        with pytest.raises(GraphError):
            LoopShape(name="bad", seed=1, n_ops=2)
        with pytest.raises(GraphError):
            LoopShape(name="bad", seed=1, n_ops=10, mem_fraction=1.5)
        with pytest.raises(GraphError):
            RecurrenceSpec(0, 1)
        with pytest.raises(GraphError):
            RecurrenceSpec(2, 0)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_ops=st.integers(min_value=5, max_value=60),
        mem=st.floats(min_value=0.1, max_value=0.6),
        fp=st.floats(min_value=0.0, max_value=1.0),
        carried=st.floats(min_value=0.0, max_value=0.3),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_graphs_always_valid(self, seed, n_ops, mem, fp, carried):
        shape = LoopShape(
            name="p",
            seed=seed,
            n_ops=n_ops,
            mem_fraction=mem,
            fp_fraction=fp,
            carried_edge_prob=carried,
            recurrences=(RecurrenceSpec(2, 1),) if seed % 3 == 0 else (),
        )
        g = generate_loop(shape)
        g.validate()  # raises on broken structure
        assert len(g) >= 3


class TestSpecfpSuite:
    def test_all_programs_present(self):
        suite = specfp95_suite()
        assert [p.name for p in suite] == list(PROGRAM_NAMES)

    def test_unknown_program_rejected(self):
        with pytest.raises(KeyError):
            resolve_workload("gcc", kind="program")

    def test_every_program_has_eligible_loops(self):
        for program in specfp95_suite():
            assert len(program.eligible_loops()) >= 3, program.name

    def test_loops_validate(self):
        for program in specfp95_suite():
            for loop in program.loops:
                loop.graph.validate()
                assert loop.trip_count > MIN_MODULO_TRIP_COUNT

    def test_deterministic_suite(self):
        s1 = specfp95_suite()
        s2 = specfp95_suite()
        for p1, p2 in zip(s1, s2):
            assert [len(lp.graph) for lp in p1.loops] == [
                len(lp.graph) for lp in p2.loops
            ]

    def test_program_character(self):
        """Spot-check the documented profiles."""
        fpppp = workload("fpppp").factory()
        sizes = [len(lp.graph) for lp in fpppp.loops]
        assert max(sizes) >= 60  # famous big bodies

        swim = workload("swim").factory()
        from repro.core.sms import recurrence_sets

        rec_loops = sum(
            1 for lp in swim.loops if recurrence_sets(lp.graph)
        )
        assert rec_loops == 0  # parallel stencils

        applu = workload("applu").factory()
        rec_loops = sum(1 for lp in applu.loops if recurrence_sets(lp.graph))
        assert rec_loops >= 4  # wavefront recurrences

    def test_dynamic_operation_weighting(self):
        prog = workload("swim").factory()
        assert prog.dynamic_operations > 0
        # weights count trip * runs * ops
        lp = prog.eligible_loops()[0]
        assert lp.dynamic_operations == (
            lp.ops_per_iteration * lp.trip_count * lp.times_executed
        )
