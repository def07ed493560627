"""Unit tests for the modulo reservation table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bus_free, fu_slot_free, per_start_scan

from repro.arch.configs import four_cluster_config, two_cluster_config, unified_config
from repro.core.mrt import ReservationTable
from repro.errors import SchedulingError
from repro.ir.operation import FuClass


class TestFuTables:
    def test_occupy_and_conflict(self):
        mrt = ReservationTable(four_cluster_config(), ii=4)
        unit = mrt.occupy_fu(0, FuClass.FP, 2, "a")
        assert unit == 0
        assert not fu_slot_free(mrt, 0, FuClass.FP, 2)
        with pytest.raises(SchedulingError):
            mrt.occupy_fu(0, FuClass.FP, 2, "b")

    def test_modulo_wrapping(self):
        mrt = ReservationTable(four_cluster_config(), ii=3)
        mrt.occupy_fu(0, FuClass.INT, 1, "a")
        # cycle 4 maps to row 1 -> occupied
        assert not fu_slot_free(mrt, 0, FuClass.INT, 4)
        assert fu_slot_free(mrt, 0, FuClass.INT, 5)

    def test_negative_cycles_wrap(self):
        mrt = ReservationTable(four_cluster_config(), ii=4)
        mrt.occupy_fu(0, FuClass.MEM, -1, "a")  # row 3
        assert not fu_slot_free(mrt, 0, FuClass.MEM, 3)

    def test_units_fill_in_order(self):
        mrt = ReservationTable(unified_config(), ii=2)
        units = [mrt.occupy_fu(0, FuClass.FP, 0, f"op{i}") for i in range(4)]
        assert units == [0, 1, 2, 3]
        assert not fu_slot_free(mrt, 0, FuClass.FP, 0)
        assert fu_slot_free(mrt, 0, FuClass.FP, 1)

    def test_release(self):
        mrt = ReservationTable(four_cluster_config(), ii=2)
        unit = mrt.occupy_fu(1, FuClass.INT, 0, "a")
        mrt.release_fu(1, FuClass.INT, 0, unit, "a")
        assert fu_slot_free(mrt, 1, FuClass.INT, 0)

    def test_release_wrong_owner_rejected(self):
        mrt = ReservationTable(four_cluster_config(), ii=2)
        unit = mrt.occupy_fu(1, FuClass.INT, 0, "a")
        with pytest.raises(SchedulingError):
            mrt.release_fu(1, FuClass.INT, 0, unit, "b")

    def test_clusters_are_independent(self):
        mrt = ReservationTable(four_cluster_config(), ii=2)
        mrt.occupy_fu(0, FuClass.FP, 0, "a")
        assert fu_slot_free(mrt, 1, FuClass.FP, 0)

    def test_bad_ii_rejected(self):
        with pytest.raises(SchedulingError):
            ReservationTable(unified_config(), ii=0)


class TestBusTables:
    def test_bus_latency_rows(self):
        cfg = two_cluster_config(n_buses=1, bus_latency=2)
        mrt = ReservationTable(cfg, ii=4)
        assert mrt.bus_rows(3) == [3, 0]  # wraps

    def test_occupy_blocks_whole_transfer(self):
        cfg = two_cluster_config(n_buses=1, bus_latency=2)
        mrt = ReservationTable(cfg, ii=4)
        bus = bus_free(mrt, 0)
        assert bus == 0
        mrt.occupy_bus(0, bus, "t0")
        assert bus_free(mrt, 0) is None  # rows 0,1 taken
        assert bus_free(mrt, 1) is None  # rows 1,2 -> 1 taken
        assert bus_free(mrt, 2) == 0  # rows 2,3 free

    def test_second_bus_picked_up(self):
        cfg = two_cluster_config(n_buses=2, bus_latency=1)
        mrt = ReservationTable(cfg, ii=2)
        mrt.occupy_bus(0, 0, "a")
        assert bus_free(mrt, 0) == 1

    def test_transfer_longer_than_ii_impossible(self):
        cfg = two_cluster_config(n_buses=1, bus_latency=4)
        mrt = ReservationTable(cfg, ii=3)
        assert bus_free(mrt, 0) is None

    def test_no_buses_machine(self):
        mrt = ReservationTable(unified_config(), ii=4)
        assert bus_free(mrt, 0) is None
        assert mrt.bus_utilisation() == 0.0

    def test_release_bus(self):
        cfg = two_cluster_config(n_buses=1, bus_latency=2)
        mrt = ReservationTable(cfg, ii=4)
        mrt.occupy_bus(1, 0, "t")
        mrt.release_bus(1, 0, "t")
        assert bus_free(mrt, 1) == 0


@st.composite
def bus_scans(draw):
    """An MRT with random committed transfers, a scan window, pending ones."""
    n_buses = draw(st.integers(1, 3))
    latency = draw(st.integers(1, 4))
    mrt = ReservationTable(
        two_cluster_config(n_buses=n_buses, bus_latency=latency),
        ii=draw(st.integers(1, 8)),
    )
    everyone = (1 << n_buses) - 1
    for start, bus in draw(
        st.lists(st.tuples(st.integers(-8, 8), st.integers(0, n_buses - 1)), max_size=8)
    ):
        # Claim the bus only when it is free for the whole transfer.
        if bus_free(mrt, start, everyone & ~(1 << bus)) == bus:
            mrt.occupy_bus(start, bus, (start, bus))
    first = draw(st.integers(-8, 8))
    last = first + draw(st.integers(-1, 2 * mrt.ii))
    pending = draw(
        st.lists(st.tuples(st.integers(-8, 8), st.integers(0, n_buses - 1)), max_size=3)
    )
    return mrt, first, last, pending


class TestFirstFreeBus:
    @settings(max_examples=300, deadline=None)
    @given(bus_scans())
    def test_matches_a_per_start_scan(self, scan):
        mrt, first, last, pending = scan
        assert mrt.first_free_bus(first, last, pending) == per_start_scan(
            mrt, first, last, pending
        )

    def test_pending_transfer_blocks_overlapping_starts(self):
        cfg = two_cluster_config(n_buses=1, bus_latency=2)
        mrt = ReservationTable(cfg, ii=4)
        # A pending transfer at 0 holds rows 0-1: starts 0 and 1 overlap it.
        assert mrt.first_free_bus(0, 3, [(0, 0)]) == (2, 0)
        assert mrt.first_free_bus(0, 1, [(0, 0)]) is None
        assert mrt.first_free_bus(0, 3, []) == (0, 0)


class TestUtilisation:
    def test_bus_utilisation(self):
        cfg = two_cluster_config(n_buses=1, bus_latency=2)
        mrt = ReservationTable(cfg, ii=4)
        mrt.occupy_bus(0, 0, "t")
        assert mrt.bus_utilisation() == pytest.approx(0.5)

    def test_fu_utilisation(self):
        cfg = four_cluster_config()
        mrt = ReservationTable(cfg, ii=1)
        # 12 FU cells at II=1; occupy 3.
        mrt.occupy_fu(0, FuClass.INT, 0, "a")
        mrt.occupy_fu(0, FuClass.FP, 0, "b")
        mrt.occupy_fu(1, FuClass.MEM, 0, "c")
        assert mrt.fu_utilisation() == pytest.approx(3 / 12)
