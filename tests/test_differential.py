"""Differential tests: every heuristic cross-checked against the oracle.

A pinned-seed corpus of small synthetic loops (the same generator the
workload suite uses) is scheduled by the exact scheduler and by every
heuristic; the oracle must never lose on II, its schedules must pass the
independent verifier and execute cycle-exactly on the simulator, and its
pressure accounting must agree with the incremental tracker.  Random
graph/machine soups can be genuinely unschedulable for a *heuristic*
(register pressure without spill code); those points are skipped for
that heuristic only — the oracle itself must always succeed on this
corpus.
"""

from __future__ import annotations

import pytest

from repro.arch.configs import two_cluster_config, unified_config
from repro.core.bsa import BsaScheduler
from repro.core.exact import ExactScheduler
from repro.core.lifetimes import cluster_pressures, max_pressure
from repro.core.mii import mii
from repro.core.pressure import PressureTracker
from repro.core.twophase import TwoPhaseScheduler
from repro.core.unified import UnifiedScheduler
from repro.core.verify import verify_schedule
from repro.errors import SchedulingError
from repro.sim import crosscheck_schedule
from repro.workloads.generator import LoopShape, RecurrenceSpec, generate_loop

#: Pinned corpus: every shape is deterministic (seeded) and small enough
#: for the exhaustive search to finish in well under a second.
CORPUS = (
    LoopShape("diff-plain", seed=11, n_ops=6),
    LoopShape("diff-rec", seed=23, n_ops=7, recurrences=(RecurrenceSpec(2, 1),)),
    LoopShape("diff-mem", seed=37, n_ops=8, mem_fraction=0.5),
    LoopShape("diff-rec2", seed=41, n_ops=9, recurrences=(RecurrenceSpec(3, 2),)),
    LoopShape("diff-int", seed=53, n_ops=6, fp_fraction=0.3),
    LoopShape("diff-carried", seed=67, n_ops=8, carried_edge_prob=0.3),
    LoopShape("diff-addr", seed=71, n_ops=7, addr_fraction=0.5),
    LoopShape(
        "diff-deep",
        seed=83,
        n_ops=9,
        recurrences=(RecurrenceSpec(2, 2),),
        fp_fraction=0.6,
    ),
)
_IDS = [shape.name for shape in CORPUS]

HEURISTICS = (BsaScheduler, TwoPhaseScheduler)


def exact(config) -> ExactScheduler:
    return ExactScheduler(config, time_budget_s=30.0)


@pytest.mark.parametrize("shape", CORPUS, ids=_IDS)
class TestExactNeverLoses:
    def test_clustered(self, shape):
        config = two_cluster_config()
        g = generate_loop(shape)
        best = exact(config).schedule(g)
        assert best.ii >= mii(g, config)
        for scheduler_cls in HEURISTICS:
            try:
                heuristic = scheduler_cls(config).schedule(g)
            except SchedulingError:
                continue
            assert best.ii <= heuristic.ii, scheduler_cls.__name__

    def test_unified(self, shape):
        config = unified_config()
        g = generate_loop(shape)
        best = exact(config).schedule(g)
        baseline = UnifiedScheduler(config).schedule(g)
        assert best.ii <= baseline.ii


@pytest.mark.parametrize("shape", CORPUS, ids=_IDS)
class TestExactSchedulesAreReal:
    def test_verifies_and_simulates_exactly(self, shape):
        config = two_cluster_config()
        g = generate_loop(shape)
        best = exact(config).schedule(g)
        verify_schedule(best)
        check = crosscheck_schedule(best, 20, ops_per_source_iteration=len(g))
        assert check.simulated_cycles == check.analytic_cycles

    def test_pressure_agrees_with_incremental_tracker(self, shape):
        config = two_cluster_config()
        best = exact(config).schedule(generate_loop(shape))
        tracker = PressureTracker(best)
        tracker.rebuild()
        assert tracker.pressures() == cluster_pressures(best)
        assert max_pressure(best) == max(cluster_pressures(best).values())


def test_corpus_is_pinned():
    """The corpus must not drift: same shapes -> same graphs, forever.

    A content fingerprint (node count + opcode multiset + edge list) per
    shape; if the generator changes, these hashes change, and the
    optimality claims above would silently cover different graphs.
    """
    from repro.runner.scenario import graph_content_hash

    fingerprints = {
        shape.name: graph_content_hash(generate_loop(shape))[:12]
        for shape in CORPUS
    }
    assert fingerprints == {
        "diff-plain": "7e541f08b497",
        "diff-rec": "75d001850b01",
        "diff-mem": "174584771727",
        "diff-rec2": "fca0342e4ca0",
        "diff-int": "1497441e1667",
        "diff-carried": "5783ddf2dc07",
        "diff-addr": "90ef86450f7c",
        "diff-deep": "390b89250743",
    }
