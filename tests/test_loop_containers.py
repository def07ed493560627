"""Tests for Loop / Program containers and the errors hierarchy."""

import pytest

from repro.errors import (
    ConfigError,
    GraphError,
    ReproError,
    SchedulingError,
    VerificationError,
)
from repro.ir.loop import MIN_MODULO_TRIP_COUNT, Loop, Program
from repro.workloads.kernels import daxpy


class TestLoop:
    def test_basic_properties(self):
        lp = Loop(graph=daxpy(), trip_count=100, times_executed=3)
        assert lp.name == "daxpy"
        assert lp.ops_per_iteration == 5
        assert lp.dynamic_operations == 5 * 100 * 3

    def test_eligibility_threshold(self):
        at = Loop(graph=daxpy(), trip_count=MIN_MODULO_TRIP_COUNT)
        above = Loop(graph=daxpy(), trip_count=MIN_MODULO_TRIP_COUNT + 1)
        assert not at.eligible_for_modulo_scheduling
        assert above.eligible_for_modulo_scheduling

    def test_invalid_trip_count(self):
        with pytest.raises(GraphError):
            Loop(graph=daxpy(), trip_count=0)

    def test_invalid_times_executed(self):
        with pytest.raises(GraphError):
            Loop(graph=daxpy(), trip_count=10, times_executed=-1)

    def test_str(self):
        text = str(Loop(graph=daxpy(), trip_count=10))
        assert "daxpy" in text and "trip=10" in text


class TestProgram:
    def test_iteration_and_len(self):
        p = Program("p")
        p.add(Loop(graph=daxpy(), trip_count=10))
        p.add(Loop(graph=daxpy().copy("d2"), trip_count=2))
        assert len(p) == 2
        assert len(list(p)) == 2

    def test_eligible_filter(self):
        p = Program("p")
        p.add(Loop(graph=daxpy(), trip_count=10))
        p.add(Loop(graph=daxpy().copy("short"), trip_count=2))
        assert [lp.name for lp in p.eligible_loops()] == ["daxpy"]

    def test_dynamic_operations_counts_eligible_only(self):
        p = Program("p")
        p.add(Loop(graph=daxpy(), trip_count=10))
        p.add(Loop(graph=daxpy().copy("short"), trip_count=2))
        assert p.dynamic_operations == 5 * 10

    def test_describe(self):
        p = Program("p", [Loop(graph=daxpy(), trip_count=10)])
        assert "p" in p.describe()
        assert "daxpy" in p.describe()


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (GraphError, ConfigError, SchedulingError, VerificationError):
            assert issubclass(exc, ReproError)

    def test_scheduling_error_carries_ii(self):
        err = SchedulingError("nope", ii_tried=17)
        assert err.ii_tried == 17

    def test_scheduling_error_default_ii(self):
        assert SchedulingError("nope").ii_tried is None

    def test_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            raise VerificationError("bad schedule")
