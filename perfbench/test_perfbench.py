"""Tests for the benchmark's own helpers (not for the program it measures)."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from perfbench import common, inputs, serving, stats, tracing


# ---------------------------------------------------------------------------
# Tail percentile: only with ten samples beyond it, never the maximum
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, q",
    [(19, None), (20, 0.5), (39, 0.5), (40, 0.75), (99, 0.75), (100, 0.9),
     (260, 0.95), (999, 0.95), (1000, 0.99), (10_000, 0.999)],
)
def test_tail_needs_ten_samples_beyond(n, q):
    values = [float(i) for i in range(1, n + 1)]
    tail = stats.tail_percentile(values)
    if q is None:
        assert tail is None
        return
    assert tail[0] == q
    beyond = sum(1 for v in values if v > tail[1])
    assert beyond >= stats.MIN_BEYOND
    assert tail[1] < max(values)


def test_small_sample_reports_its_median_as_tail():
    assert stats.latency_summary([3.0, 1.0, 2.0]) == (2.0, 0.5, 2.0)
    p50, q, tail = stats.latency_summary([float(i) for i in range(1, 101)])
    assert (p50, q, tail) == (50.0, 0.9, 90.0)


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 8
    assert stats.tail_percentile(values) == stats.tail_percentile(sorted(values))


# ---------------------------------------------------------------------------
# Busy time: wall time less CPU steal
# ---------------------------------------------------------------------------
def test_busy_time_takes_steal_out_up_to_half_the_interval():
    assert common.busy_s((100.0, 7.0), (110.0, 10.0)) == pytest.approx(7.0)
    # Steal on the other vCPU can push the count past the work's own loss.
    assert common.busy_s((100.0, 7.0), (110.0, 19.0)) == pytest.approx(5.0)


def test_latency_samples_come_from_the_least_stolen_batches():
    groups = [(0.30, [9.0, 9.5]), (0.0, [1.0, 8.0]), (0.02, [2.0]), (0.10, [3.0])]
    # Half of four batches, chosen by steal alone: the slow 8.0 stays.
    assert stats.least_stolen_half(groups) == [1.0, 8.0, 2.0]
    assert stats.least_stolen_half(groups[:3]) == [1.0, 8.0, 2.0]


def test_pace_scale_is_reference_over_median_kernel_time_nearby():
    ref = common.PACE_REFERENCE_S
    samples = [(t / 10, ref * (2.0 if t < 20 else 0.5)) for t in range(40)]
    # A slow second (kernel at twice the reference) halves measured time...
    assert common.pace_scale(samples, 0.5, 1.5) == pytest.approx(0.5)
    # ...and a short interval is widened to the 1 s around it.
    assert common.pace_scale(samples, 3.0, 3.0) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------
def _span(id_, parent, start, end, name="core.x", pid=1, tid=1, trace=None):
    return {
        "id": id_, "parent": parent, "name": name, "start": start, "end": end,
        "pid": pid, "tid": tid, "trace": trace, "attrs": {},
    }


def test_self_time_subtracts_children_once():
    spans = [
        _span("r", None, 0, 100),
        _span("a", "r", 10, 40),
        _span("b", "r", 30, 60),  # overlaps a: covered time counted once
        _span("c", "a", 15, 25),
    ]
    own = stats.self_times(spans)
    assert own == {"r": 50, "a": 20, "b": 30, "c": 10}


def test_self_time_clips_children_to_their_parent():
    own = stats.self_times([_span("r", None, 0, 10), _span("a", "r", 5, 30)])
    assert own["r"] == 5
    assert own["a"] == 25


def test_link_attaches_server_spans_to_the_client_call():
    spans = [
        _span("w", None, 0, 1000, name=tracing.WINDOW, trace="run"),
        _span("c", "w", 100, 200, name="service.client", trace="t1"),
        _span("h", None, 110, 190, name="service.http", pid=2, tid=7, trace="t1"),
        _span("d", None, 120, 180, name="service.batch", pid=2, tid=8, trace="t1"),
        _span("x", "d", 130, 170, name="core.schedule", pid=2, tid=8, trace="t1"),
        _span("late", None, 2000, 3000, name="core.mii", pid=2, tid=8),
    ]
    parents = {s["id"]: s["parent"] for s in tracing.link(spans)}
    assert parents == {"w": None, "c": "w", "h": "c", "d": "h", "x": "d"}


def test_layer_shares_and_unattributed_residual():
    spans = [
        _span("w", None, 0, 100, name=tracing.WINDOW),
        _span("p", "w", 0, 60, name="core.policy"),
        _span("s", "p", 10, 50, name="core.schedule"),
        _span("g", "w", 70, 80, name="runner.cache.get"),
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["core.share"] == pytest.approx(0.6)
    assert metrics["runner.share"] == pytest.approx(0.1)
    assert metrics["unattributed_ratio"] == pytest.approx(0.3)
    assert metrics["core.schedule.calls"] == 1
    assert metrics["core.schedule.self_s"] == pytest.approx(40e-9)


# ---------------------------------------------------------------------------
# failed_ratio accounting
# ---------------------------------------------------------------------------
def _response(rendered, cached):
    return {"status": "done", "result": {
        "rendered": rendered, "sim": None, "cached": cached}}


def test_mismatching_response_is_counted_as_failed():
    stream = [{"kernel": "daxpy"}, {"kernel": "dot"}, {"kernel": "daxpy"}]
    good = {"daxpy": "D", "dot": "P"}
    responses = [_response("D", False), _response("WRONG", False), _response("D", True)]
    tally = stats.Tally()
    serving.check_responses(
        stream, responses, tally,
        lambda payload: {"rendered": good[payload["kernel"]], "sim": None},
    )
    # 3 requests + 2 scenarios x (reference, executed-once) = 7 checks.
    assert (tally.attempted, tally.failed) == (7, 1)  # failed_ratio 1/7
    assert "differs from the direct path" in tally.reasons[0]


def test_failed_request_and_repeat_drift_are_counted():
    stream = [{"kernel": "daxpy"}, {"kernel": "daxpy"}, {"kernel": "daxpy"}]
    responses = [_response("D", False), RuntimeError("HTTP 500"), _response("E", True)]
    tally = stats.Tally()
    serving.check_responses(
        stream, responses, tally, lambda payload: {"rendered": "D", "sim": None}
    )
    assert tally.failed == 2  # the error, and the repeat that changed answer


def test_scenario_answered_from_a_shared_memo_entry_passes():
    # A simulate request for the same kernel and machine computed the
    # schedule first, so this scenario's first answer is already cached.
    tally = stats.Tally()
    serving.check_responses(
        [{"kernel": "rec1"}], [_response("R", True)], tally,
        lambda payload: {"rendered": "R", "sim": None},
    )
    assert (tally.attempted, tally.failed) == (3, 0)


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------
def test_same_seed_same_inputs_other_seed_same_shape():
    expected = inputs.load_expected()
    suite_a, digest_a = inputs.sweep_slice(3, expected)
    _suite, digest_again = inputs.sweep_slice(3, expected)
    assert digest_a == digest_again
    digests = {inputs.sweep_slice(seed, expected)[1] for seed in range(8)}
    assert len(digests) > 1
    for seed in range(8):
        suite_b, _ = inputs.sweep_slice(seed, expected)
        mix_a = [(p.name, len(p.eligible_loops())) for p in suite_a]
        assert [(p.name, len(p.eligible_loops())) for p in suite_b] == mix_a


def test_http_stream_shape_is_seed_independent():
    def shape(stream):
        return [("program" in p, p.get("simulate", False)) for p in stream]

    def pool_cells(stream):
        return Counter(
            (p["kernel"], p["policy"]) for p in {
                json.dumps(p, sort_keys=True): p for p in stream if "policy" in p
            }.values()
        )

    a, digest_a = inputs.http_stream(1, 3000)
    assert inputs.http_stream(1, 3000)[1] == digest_a
    b, digest_b = inputs.http_stream(2, 3000)
    assert digest_b != digest_a
    # Fresh requests sit at the same positions; every kernel of the pool
    # meets every policy once (45 scenarios, all seen in 3000 requests).
    assert shape(a) == shape(b)
    assert sum(1 for p in a if "program" in p) == 3000 // inputs.FRESH_EVERY // 2
    for stream in (a, b):
        cells = pool_cells(stream)
        assert len(cells) == len(inputs.KERNELS) * len(inputs.POLICIES)
        assert set(cells.values()) == {1}


def test_fabric_grid_is_one_set_of_points_in_a_seeded_order():
    items_a, digest_a = inputs.fabric_grid(1)
    assert inputs.fabric_grid(1)[1] == digest_a
    items_b, digest_b = inputs.fabric_grid(5)
    assert digest_b != digest_a
    points_a = [point.canonical() for point, _loop in items_a]
    assert len(set(points_a)) == len(points_a)
    assert sorted(points_a) == sorted(point.canonical() for point, _loop in items_b)
