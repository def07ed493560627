"""Tests for modulo variable expansion (repro.codegen.rename).

MVE is the codegen layer that turns a verified modulo schedule into an
executable (unrolled, register-renamed) kernel.  The invariants under
test come straight from Lam (1988):

* ``n_v = max(1, ceil(lifetime_v / II))`` rotating names per value and
  ``KUF = lcm(n_v)`` unroll copies;
* in copy ``u`` the definition of ``v`` writes ``r<v>.<u % n_v>`` and a
  reader at iteration distance ``d`` reads ``r<v>.<(u - d) % n_v>`` —
  checked op-by-op over every copy of real kernels;
* tampered lifetimes (a rotation period shorter than a def-to-read
  span) must raise :class:`VerificationError`, not emit wrong code.
"""

from __future__ import annotations

import math

import pytest

from repro.arch.configs import four_cluster_config, two_cluster_config, unified_config
from repro.codegen import rename_kernel
from repro.codegen.rename import _lifetimes
from repro.core.verify import verify_schedule
from repro.errors import VerificationError
from repro.runner import make_scheduler
from repro.workloads.kernels import resolve_kernel
from repro.workloads.registry import workloads

KERNELS = ("daxpy", "dot", "sqrtnorm", "tridiag", "fib", "hydro")
CONFIGS = {
    "unified": unified_config(),
    "2c": two_cluster_config(1, 1),
    "4c": four_cluster_config(1, 1),
}


def schedule_for(kernel, config_key="unified"):
    config = CONFIGS[config_key]
    _name, factory = resolve_kernel(kernel)
    graph = factory()
    sched = make_scheduler("bsa", config).schedule(graph)
    verify_schedule(sched)
    return sched


class TestExpansionArithmetic:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("config_key", sorted(CONFIGS))
    def test_copies_and_kuf(self, kernel, config_key):
        sched = schedule_for(kernel, config_key)
        renamed = rename_kernel(sched)
        assert renamed.ii == sched.ii
        assert renamed.stage_count == sched.stage_count
        for node, span in renamed.lifetimes.items():
            assert renamed.register_copies[node] == max(
                1, math.ceil(span / sched.ii)
            )
        assert renamed.kuf == math.lcm(*renamed.register_copies.values())
        assert renamed.total_registers == sum(renamed.register_copies.values())
        assert len(renamed.copies) == renamed.kuf
        assert all(len(rows) == renamed.ii for rows in renamed.copies)

    def test_long_lifetime_forces_expansion(self):
        # daxpy's loads feed an fmul 4-cycle chain; on the unified
        # machine II is small enough that at least one value must rotate
        # through more than one name (that is the whole point of MVE).
        renamed = rename_kernel(schedule_for("daxpy"))
        assert any(n > 1 for n in renamed.register_copies.values())
        assert renamed.kuf > 1

    def test_lifetimes_cover_carried_uses(self):
        sched = schedule_for("dot")
        spans = _lifetimes(sched)
        graph = sched.graph
        for node, span in spans.items():
            assert span >= graph.operation(node).latency
            for dep in graph.flow_consumers(node):
                reach = (
                    sched.ops[dep.dst].cycle
                    + sched.ii * dep.distance
                    - sched.ops[node].cycle
                )
                assert span >= reach


class TestRenamingCorrectness:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_rotation_rule_holds_for_every_op(self, kernel):
        sched = schedule_for(kernel, "2c")
        renamed = rename_kernel(sched)
        graph = sched.graph
        reads_of = {
            node: {dep.dst: dep.distance for dep in graph.flow_consumers(node)}
            for node in sched.ops
        }
        for u, rows in enumerate(renamed.copies):
            for ops in rows:
                for op in ops:
                    n = renamed.register_copies.get(op.node)
                    if op.dest is not None:
                        assert op.dest == f"r{op.node}.{u % n}"
                    for src in op.sources:
                        name, _, k = src.partition(".")
                        producer = int(name[1:])
                        distance = reads_of[producer][op.node]
                        n_p = renamed.register_copies[producer]
                        assert int(k) == (u - distance) % n_p

    def test_every_scheduled_op_appears_in_every_copy(self):
        sched = schedule_for("hydro")
        renamed = rename_kernel(sched)
        for rows in renamed.copies:
            nodes = [op.node for ops in rows for op in ops]
            assert sorted(nodes) == sorted(sched.ops)

    def test_all_kernels_self_verify(self):
        # rename_kernel raises VerificationError internally if any span
        # escapes its rotation period; sweeping the whole catalogue is
        # the cheap way to prove the arithmetic is airtight.
        for spec in workloads(tag="kernel"):
            rename_kernel(schedule_for(spec.name, "2c"))


class TestSelfCheck:
    def test_tampered_lifetimes_raise(self, monkeypatch):
        import repro.codegen.rename as rename_mod

        sched = schedule_for("daxpy")
        honest = _lifetimes(sched)
        assert any(span > sched.ii for span in honest.values())
        monkeypatch.setattr(
            rename_mod,
            "_lifetimes",
            lambda s: {node: 1 for node in honest},
        )
        with pytest.raises(VerificationError, match="rotates every"):
            rename_kernel(sched)


class TestRendering:
    def test_describe_and_render(self):
        renamed = rename_kernel(schedule_for("daxpy"))
        text = renamed.render()
        assert text.startswith("renamed kernel of 'daxpy':")
        assert f"KUF={renamed.kuf}" in text
        assert "copy 0:" in text
        assert f"copy {renamed.kuf - 1}:" in text
        # Rotated names actually show up in the listing.
        expanded = [v for v, n in renamed.register_copies.items() if n > 1]
        assert expanded
        assert f"r{expanded[0]}.1" in text

    def test_store_has_no_dest(self):
        renamed = rename_kernel(schedule_for("daxpy"))
        stores = [
            op
            for rows in renamed.copies
            for ops in rows
            for op in ops
            if op.opcode == "store"
        ]
        assert stores
        assert all(op.dest is None for op in stores)
        assert all("= store" not in op.render() for op in stores)
