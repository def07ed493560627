"""Seeded synthetic loop-body generator.

Stands in for the SPECfp95 innermost loops the paper extracts with the
ICTINEO compiler: there is no ICTINEO and no SPECfp95 binary here, so
seeded loops follow each program's published shape
(:mod:`repro.workloads.specfp`).  Generated bodies have the structure of
numerical inner loops:

* a layer of loads (optionally behind integer address arithmetic),
* a DAG of compute operations, each consuming one or two previously
  produced values (loads or earlier computes),
* explicit recurrence chains ``r1 -> r2 -> ... -> rL ->(distance d) r1``,
* optional extra loop-carried flow edges between unrelated nodes,
* a layer of stores consuming compute results.

All randomness flows from the ``seed``; the same :class:`LoopShape` always
yields the identical graph, keeping every experiment reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..errors import GraphError
from ..ir.ddg import DependenceGraph
from ..ir.operation import DEFAULT_CATALOG, OpCatalog

#: Compute opcodes drawn for FP work (weights approximate numeric codes:
#: adds/subs dominate, then multiplies, rare divides/roots).
_FP_OPS = ["fadd", "fsub", "fmul", "fmac"]
_FP_WEIGHTS = [4, 2, 4, 1]
_FP_LONG_OPS = ["fdiv", "fsqrt"]
_INT_OPS = ["iadd", "isub", "imul", "ilogic", "ishift"]
_INT_WEIGHTS = [4, 2, 1, 1, 1]


@dataclass(frozen=True)
class RecurrenceSpec:
    """One recurrence chain: *length* ops closed at iteration *distance*."""

    length: int
    distance: int = 1

    def __post_init__(self) -> None:
        if self.length < 1:
            raise GraphError(f"recurrence length must be >= 1, got {self.length}")
        if self.distance < 1:
            raise GraphError(f"recurrence distance must be >= 1, got {self.distance}")


@dataclass(frozen=True)
class LoopShape:
    """All knobs of one synthetic loop body.

    Attributes
    ----------
    name, seed:
        Identity; the seed fully determines the graph.
    n_ops:
        Total operations (approximate: recurrences and the load/store
        layers are carved out of this budget).
    mem_fraction:
        Share of operations that are loads/stores.
    store_fraction:
        Share of the memory operations that are stores.
    fp_fraction:
        Share of the *compute* operations that are floating point (the
        rest are integer).
    long_latency_fraction:
        Share of FP computes drawn from {fdiv, fsqrt}.
    addr_fraction:
        Share of loads fed by an explicit integer address computation.
    recurrences:
        Explicit recurrence chains to embed.
    carried_edge_prob:
        Probability (per compute op) of an extra loop-carried flow edge
        from it to a random earlier op, at distance 1 or 2.
    fanin:
        Operand count for compute ops (1 or 2, biased towards 2).
    locality_window:
        Operands are drawn mostly from the last *locality_window* produced
        values (real loop bodies consume recent temporaries; this keeps
        live sets realistic).  ``long_range_prob`` is the chance of an
        operand reaching anywhere in the body instead.
    """

    name: str
    seed: int
    n_ops: int
    mem_fraction: float = 0.35
    store_fraction: float = 0.3
    fp_fraction: float = 0.8
    long_latency_fraction: float = 0.0
    addr_fraction: float = 0.15
    recurrences: tuple[RecurrenceSpec, ...] = field(default_factory=tuple)
    carried_edge_prob: float = 0.0
    fanin: float = 1.7
    locality_window: int = 6
    long_range_prob: float = 0.03

    def __post_init__(self) -> None:
        if self.n_ops < 3:
            raise GraphError(f"loop {self.name!r}: need at least 3 ops")
        for frac_name in (
            "mem_fraction",
            "store_fraction",
            "fp_fraction",
            "long_latency_fraction",
            "addr_fraction",
            "carried_edge_prob",
        ):
            value = getattr(self, frac_name)
            if not 0.0 <= value <= 1.0:
                raise GraphError(f"loop {self.name!r}: {frac_name}={value} not in [0,1]")


def generate_loop(
    shape: LoopShape, catalog: OpCatalog = DEFAULT_CATALOG
) -> DependenceGraph:
    """Build the dependence graph described by *shape* (deterministic)."""
    rng = random.Random(shape.seed)
    g = DependenceGraph(shape.name, catalog)

    n_mem = max(1, round(shape.n_ops * shape.mem_fraction))
    n_stores = max(1, round(n_mem * shape.store_fraction))
    n_loads = max(1, n_mem - n_stores)
    rec_budget = sum(spec.length for spec in shape.recurrences)
    n_compute = max(1, shape.n_ops - n_loads - n_stores - rec_budget)

    values: list[int] = []  # node ids usable as operands

    def pick_operand() -> int:
        # With probability ``long_range_prob`` the operand may reach
        # anywhere in the body, otherwise it stays in the locality
        # window.  Written so the comparison *positively* gates the
        # long-range draw — a knob like this is one inverted comparison
        # away from meaning its opposite, so the monotonicity is also
        # locked by a statistical test (test_long_range_prob_monotonic).
        if len(values) > shape.locality_window and not rng.random() < shape.long_range_prob:
            return rng.choice(values[-shape.locality_window:])
        return rng.choice(values)

    def pick_compute_opcode() -> str:
        if rng.random() < shape.fp_fraction:
            if shape.long_latency_fraction and rng.random() < shape.long_latency_fraction:
                return rng.choice(_FP_LONG_OPS)
            return rng.choices(_FP_OPS, weights=_FP_WEIGHTS)[0]
        return rng.choices(_INT_OPS, weights=_INT_WEIGHTS)[0]

    # 1. loads (some behind an address computation)
    for i in range(n_loads):
        if rng.random() < shape.addr_fraction:
            addr = g.add_operation("iaddr", f"&a{i}")
            load = g.add_operation("load", f"ld{i}")
            g.add_dependence(addr, load)
        else:
            load = g.add_operation("load", f"ld{i}")
        values.append(load)

    # 2. recurrence chains (ops consume the previous chain element, first
    # element additionally consumes the last at the given distance)
    for r_idx, spec in enumerate(shape.recurrences):
        chain: list[int] = []
        for j in range(spec.length):
            node = g.add_operation(pick_compute_opcode(), f"r{r_idx}.{j}")
            if chain:
                g.add_dependence(chain[-1], node)
            elif values and rng.random() < 0.5:
                g.add_dependence(rng.choice(values), node)
            chain.append(node)
        g.add_dependence(chain[-1], chain[0], distance=spec.distance)
        values.extend(chain)

    # 3. compute DAG (operands mostly local, see LoopShape.locality_window)
    compute_nodes: list[int] = []
    for i in range(n_compute):
        node = g.add_operation(pick_compute_opcode(), f"c{i}")
        operands = 2 if rng.random() < (shape.fanin - 1.0) else 1
        for _ in range(min(operands, len(values))):
            g.add_dependence(pick_operand(), node)
        values.append(node)
        compute_nodes.append(node)

    # 4. extra loop-carried edges (cross-iteration value reuse)
    if shape.carried_edge_prob and compute_nodes:
        for node in compute_nodes:
            if rng.random() < shape.carried_edge_prob:
                target_pool = [v for v in values if v != node]
                if not target_pool:
                    continue
                target = rng.choice(target_pool)
                if not g.operation(node).writes_register:
                    continue
                g.add_dependence(node, target, distance=rng.choice((1, 1, 2)))

    # 5. stores (consume recent results, like writing back a computed row)
    producers = [v for v in values if g.operation(v).writes_register]
    recent = producers[-max(shape.locality_window, n_stores):]
    for i in range(n_stores):
        store = g.add_operation("store", f"st{i}")
        g.add_dependence(rng.choice(recent), store)

    g.validate()
    return g
