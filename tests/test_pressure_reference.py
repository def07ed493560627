"""Reference-model check: the difference-array MaxLive equals naive counting.

``cluster_pressures`` folds each live range into a difference array over
the doubled modulo range; this test pins it to a straightforward
per-cycle counter on real scheduler outputs and on random schedules.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.configs import four_cluster_config, two_cluster_config
from repro.core.bsa import BsaScheduler
from repro.core.lifetimes import _intervals, cluster_pressures
from repro.core.schedule import ModuloSchedule, ScheduledOp
from repro.ir.ddg import DependenceGraph
from repro.workloads.registry import workloads


def naive_pressures(schedule):
    ii = schedule.ii
    counts = {c: [0] * ii for c in schedule.config.clusters()}
    for cluster, start, end in _intervals(schedule):
        for t in range(start, end):
            counts[cluster][t % ii] += 1
    return {c: (max(v) if v else 0) for c, v in counts.items()}


class TestAgainstSchedulerOutputs:
    def test_all_kernels_both_machines(self):
        for spec in workloads(tag="kernel"):
            for cfg in (two_cluster_config(1, 1), four_cluster_config(1, 2)):
                sched = BsaScheduler(cfg).schedule(spec.factory())
                assert cluster_pressures(sched) == naive_pressures(sched), (
                    spec.name,
                    cfg.name,
                )


@st.composite
def random_partial_schedule(draw):
    """A hand-rolled (not scheduler-produced) partial schedule."""
    n = draw(st.integers(min_value=1, max_value=10))
    g = DependenceGraph("rand")
    ids = [
        g.add_operation(draw(st.sampled_from(["fadd", "fmul", "load", "store"])))
        for _ in range(n)
    ]
    # random forward flow edges
    for dst in ids:
        for src in ids:
            if src < dst and g.operation(src).writes_register and draw(st.booleans()):
                g.add_dependence(src, dst, distance=draw(st.integers(0, 2)))
    cfg = two_cluster_config(1, draw(st.sampled_from([1, 2])))
    ii = draw(st.integers(min_value=1, max_value=12))
    sched = ModuloSchedule(g, cfg, ii)
    cycle = 0
    for node in ids:
        if draw(st.booleans()):
            continue  # leave some nodes unscheduled (partial schedules)
        cluster = draw(st.integers(0, 1))
        sched.place(ScheduledOp(node, cycle, cluster, 0))
        cycle += draw(st.integers(0, 5))
    return sched


class TestAgainstRandomSchedules:
    @given(sched=random_partial_schedule())
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matches_naive(self, sched):
        assert cluster_pressures(sched) == naive_pressures(sched)
