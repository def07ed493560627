"""Small statistics helpers shared by every workload.

Percentiles use the nearest-rank definition.  A tail percentile is only
reported when at least :data:`MIN_BEYOND` samples lie beyond it, and a
maximum is never reported: on a shared 2-vCPU host the slowest sample is
whatever the neighbours did, not what the program did.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

#: Samples that must rank above a percentile before it may be reported.
MIN_BEYOND = 10

#: Percentiles considered for the tail, lowest first.
TAIL_CANDIDATES = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The nearest-rank *q* percentile of an already sorted sample."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples rank above the nearest-rank *q* percentile."""
    return n - max(1, math.ceil(q * n))


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """``(q, value)`` for the highest candidate percentile with at least
    :data:`MIN_BEYOND` samples beyond it, or ``None`` when the sample is
    too small for any."""
    ordered = sorted(values)
    best = None
    for q in TAIL_CANDIDATES:
        if samples_beyond(len(ordered), q) >= MIN_BEYOND:
            best = (q, nearest_rank(ordered, q))
    return best


def latency_summary(values: list[float]) -> tuple[float, float, float]:
    """``(p50, q, tail)`` of a latency sample: its median and the
    :func:`tail_percentile` ``q`` with its value.  A sample too small for
    any tail percentile reports its median as the tail (``q`` = 0.5)."""
    ordered = sorted(values)
    p50 = nearest_rank(ordered, 0.5)
    q, tail = tail_percentile(ordered) or (0.5, p50)
    return p50, q, tail


def least_stolen_half(groups: list[tuple[float, list[float]]]) -> list[float]:
    """The samples of the half of *groups* -- ``(stolen_s, samples)``
    pairs, one per batch or pass, odd counts rounded up -- that lost the
    least CPU to steal.

    A single request's latency cannot be corrected for steal, which is
    counted in 10 ms ticks over all vCPUs.  Choosing whole batches by the
    steal they saw, never by their latencies, keeps the host's slow
    spells out of the percentiles without trimming the program's own slow
    requests.
    """
    ranked = sorted(groups, key=lambda group: group[0])
    kept = ranked[: (len(ranked) + 1) // 2]
    return [x for _stolen, samples in kept for x in samples]


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median, with quartiles from ``statistics.quantiles(values, n=4)``."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of every span: its duration minus the time its children
    cover.

    Each span is a dict with ``id``, ``parent`` (an id or ``None``),
    ``start`` and ``end``.  Children are clipped to their parent, and
    overlapping children (concurrent threads or processes) are counted
    once, so self time is never negative.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append((start, end))
    return {
        span["id"]: (span["end"] - span["start"])
        - union_length(children.get(span["id"], []))
        for span in spans
    }


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def check(self, ok: bool, reason: str) -> bool:
        """Count one checked operation; *reason* is kept when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok
