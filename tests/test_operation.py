"""Unit tests for the opcode catalog and operation records."""

import pytest

from repro.ir.operation import DEFAULT_CATALOG, FuClass, Opcode, Operation


class TestOpcode:
    def test_basic_fields(self):
        op = DEFAULT_CATALOG["fadd"]
        assert op.fu_class is FuClass.FP
        assert op.latency == 3
        assert op.writes_register

    def test_store_writes_no_register(self):
        assert not DEFAULT_CATALOG["store"].writes_register

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Opcode("bad", FuClass.INT, -1)

    def test_zero_latency_allowed(self):
        assert Opcode("move", FuClass.INT, 0).latency == 0


class TestCatalog:
    def test_unknown_opcode_raises_with_candidates(self):
        with pytest.raises(KeyError, match="unknown opcode"):
            DEFAULT_CATALOG["madeup"]

    def test_contains(self):
        assert "load" in DEFAULT_CATALOG
        assert "madeup" not in DEFAULT_CATALOG

    def test_by_class_partitions_catalog(self):
        total = sum(len(DEFAULT_CATALOG.by_class(fc)) for fc in FuClass)
        assert total == len(DEFAULT_CATALOG.names())

    def test_every_class_is_populated(self):
        for fc in FuClass:
            assert DEFAULT_CATALOG.by_class(fc), f"no opcodes for {fc}"

    def test_with_latency_creates_new_catalog(self):
        fast = DEFAULT_CATALOG.with_latency("fdiv", 8)
        assert fast["fdiv"].latency == 8
        assert DEFAULT_CATALOG["fdiv"].latency == 17  # original untouched

    def test_with_latency_preserves_other_fields(self):
        fast = DEFAULT_CATALOG.with_latency("store", 2)
        assert not fast["store"].writes_register

    def test_memory_latencies(self):
        assert DEFAULT_CATALOG["load"].latency == 2
        assert DEFAULT_CATALOG["store"].latency == 1

    def test_gen_is_single_cycle_int(self):
        # The Figure 7 walk-through relies on 1-cycle general-purpose ops.
        gen = DEFAULT_CATALOG["gen"]
        assert gen.latency == 1
        assert gen.fu_class is FuClass.INT


class TestOperation:
    def test_properties_delegate_to_opcode(self):
        op = Operation(3, DEFAULT_CATALOG["fmul"], "a*b")
        assert op.fu_class is FuClass.FP
        assert op.latency == 4
        assert op.writes_register

    def test_str_includes_tag(self):
        op = Operation(0, DEFAULT_CATALOG["load"], "x[i]")
        assert "x[i]" in str(op)
        assert "load" in str(op)

    def test_str_without_tag(self):
        op = Operation(7, DEFAULT_CATALOG["iadd"])
        assert str(op) == "n7:iadd"

    def test_operations_are_frozen(self):
        op = Operation(0, DEFAULT_CATALOG["iadd"])
        with pytest.raises(AttributeError):
            op.node_id = 5
