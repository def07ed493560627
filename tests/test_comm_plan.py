"""Tests for communication-plan dataclasses (repro.core.comm) and the
pressure overlay the reference checks build from them."""

from oracles import phantom, pressure_comms

from repro.core.comm import AddReader, CommPlan, NewTransfer, empty_plan
from repro.core.schedule import Communication


class TestNewTransfer:
    def test_as_communication(self):
        t = NewTransfer(producer=3, src_cluster=0, bus=1, start_cycle=7, reader=2)
        c = t.as_communication()
        assert c.producer == 3
        assert c.src_cluster == 0
        assert c.bus == 1
        assert c.start_cycle == 7
        assert c.readers == {2}


class TestAddReader:
    def test_phantom_has_only_new_reader(self):
        existing = Communication(3, 0, 1, 7, frozenset({1}))
        a = AddReader(existing=existing, reader=2)
        stand_in = phantom(a)
        assert stand_in.readers == {2}  # pressure overlay counts only the add
        assert stand_in.start_cycle == existing.start_cycle
        assert stand_in.bus == existing.bus


class TestCommPlan:
    def test_empty(self):
        plan = empty_plan()
        assert plan.new_transfers == [] and plan.added_readers == []
        assert pressure_comms(plan) == []

    def test_pressure_comms_combines_both(self):
        t = NewTransfer(1, 0, 0, 4, 1)
        a = AddReader(Communication(2, 0, 0, 5, frozenset({1})), 0)
        plan = CommPlan(new_transfers=[t], added_readers=[a])
        overlay = pressure_comms(plan)
        assert len(overlay) == 2
        assert {c.producer for c in overlay} == {1, 2}
