"""Structured run reports for sweeps: record, aggregate, render.

A sweep that only prints figure series throws away exactly the metadata
the paper's methodology needs to be auditable: which (kernel, config)
points ran, what II/MaxLive each achieved, which came from cache, and
how long the slow ones took.  This module keeps that:

* :class:`RunRecorder` — handed to the runner (via
  ``run_sweep(..., recorder=...)``); collects one :class:`PointRecord`
  per point with its outcome *source* (``executed`` / ``memo`` /
  ``disk``), wall time, and trace id.  Thread-safe; recording is opt-in
  and happens outside the scheduling hot path.
* :class:`RunReport` — the JSON document ``--report-out`` writes: run
  metadata plus all records.  Round-trips through :meth:`to_dict` /
  :meth:`from_dict`.
* :func:`aggregate` / :func:`render_report` — the ``repro-vliw report``
  verb: group records by kernel / config / scheduler / policy and emit
  per-group II, MaxLive, cache hit/miss and wall-time percentile columns
  as text, markdown or JSON.

Records are derived *from* results and never feed back into scheduling,
cache keys, or rendered output — reports observe, they do not perturb.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.selective import ScheduledLoopResult
    from ..runner.scenario import ScenarioPoint

__all__ = [
    "GROUP_KEYS",
    "PointRecord",
    "RunRecorder",
    "RunReport",
    "aggregate",
    "render_report",
]

#: Version of the report document layout.
REPORT_FORMAT = 1

#: Valid ``--by`` grouping keys and the record field each reads.
GROUP_KEYS = {
    "kernel": "loop",
    "config": "machine",
    "scheduler": "scheduler",
    "policy": "policy",
}


@dataclass(frozen=True)
class PointRecord:
    """The observable outcome of one scenario point in one sweep."""

    loop: str
    machine: str
    scheduler: str
    policy: str
    rule: str
    source: str  # "executed" | "memo" | "disk"
    ii: int
    mii: int
    stage_count: int
    max_live: int
    unroll_factor: int
    fallback: bool
    simulate: bool
    wall_s: float
    trace_id: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PointRecord":
        return cls(**data)


def record_for(
    point: "ScenarioPoint",
    result: "ScheduledLoopResult",
    *,
    source: str,
    wall_s: float = 0.0,
    trace_id: str | None = None,
) -> PointRecord:
    """Build the record of *point*, resolved to *result*.

    MaxLive is computed from the schedule here, a cost only paid when a
    recorder is attached.
    """
    from ..core.lifetimes import cluster_pressures

    schedule = result.schedule
    pressures = cluster_pressures(schedule)
    return PointRecord(
        loop=point.loop,
        machine=point.config().name,
        scheduler=point.scheduler,
        policy=point.policy,
        rule=point.rule,
        source=source,
        ii=schedule.ii,
        mii=schedule.mii,
        stage_count=schedule.stage_count,
        max_live=max(pressures.values(), default=0),
        unroll_factor=result.unroll_factor,
        fallback=result.fallback,
        simulate=point.simulate,
        wall_s=wall_s,
        trace_id=trace_id,
    )


class RunRecorder:
    """Thread-safe collector the runner feeds while a sweep executes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[PointRecord] = []

    def record(
        self,
        point: "ScenarioPoint",
        result: "ScheduledLoopResult",
        *,
        source: str,
        wall_s: float = 0.0,
        trace_id: str | None = None,
    ) -> None:
        record = record_for(
            point, result, source=source, wall_s=wall_s, trace_id=trace_id
        )
        with self._lock:
            self._records.append(record)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def report(self, *, sweep: str, meta: dict[str, Any] | None = None) -> "RunReport":
        """Snapshot the collected records into a :class:`RunReport`."""
        with self._lock:
            records = list(self._records)
        return RunReport(sweep=sweep, records=records, meta=dict(meta or {}))


@dataclass
class RunReport:
    """One sweep's structured run report (the ``--report-out`` document)."""

    sweep: str
    records: list[PointRecord] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": REPORT_FORMAT,
            "sweep": self.sweep,
            "meta": dict(self.meta),
            "records": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunReport":
        if data.get("format") != REPORT_FORMAT:
            raise ValueError(
                f"unsupported run-report format {data.get('format')!r}"
            )
        return cls(
            sweep=data["sweep"],
            records=[PointRecord.from_dict(r) for r in data["records"]],
            meta=dict(data.get("meta", {})),
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunReport":
        return cls.from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Aggregation and rendering
# ---------------------------------------------------------------------------
def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[max(0, min(len(sorted_values), rank) - 1)]


def aggregate(
    records: list[PointRecord], *, by: str = "kernel"
) -> list[dict[str, Any]]:
    """Per-group aggregation rows for the report table.

    Groups by *by* (one of :data:`GROUP_KEYS`); each row carries point
    counts per outcome source, mean II / MII, worst-case MaxLive,
    fallback count and wall-time percentiles across the group.
    """
    try:
        attr = GROUP_KEYS[by]
    except KeyError:
        raise ValueError(
            f"unknown grouping {by!r}; expected one of {sorted(GROUP_KEYS)}"
        ) from None
    groups: dict[str, list[PointRecord]] = {}
    for record in records:
        groups.setdefault(getattr(record, attr), []).append(record)

    rows = []
    for key in sorted(groups):
        members = groups[key]
        walls = sorted(r.wall_s for r in members)
        executed = sum(r.source == "executed" for r in members)
        rows.append(
            {
                by: key,
                "points": len(members),
                "executed": executed,
                "memo_hits": sum(r.source == "memo" for r in members),
                "disk_hits": sum(r.source == "disk" for r in members),
                "ii_mean": sum(r.ii for r in members) / len(members),
                "mii_mean": sum(r.mii for r in members) / len(members),
                "max_live": max(r.max_live for r in members),
                "fallbacks": sum(r.fallback for r in members),
                "wall_p50_ms": _percentile(walls, 0.50) * 1e3,
                "wall_p95_ms": _percentile(walls, 0.95) * 1e3,
            }
        )
    return rows


def render_report(
    report: RunReport, *, by: str = "kernel", fmt: str = "text"
) -> str:
    """Render *report* as an aggregation table (``repro-vliw report``)."""
    # Imported here, not at module level: repro.obs must stay importable
    # from the scheduler core without dragging in the perf/experiment
    # layers (which themselves import the core).
    from ..perf.report import format_markdown, format_table

    rows = aggregate(report.records, by=by)
    columns = [by] + [c for c in (rows[0] if rows else {}) if c != by]
    total = len(report.records)
    hits = sum(r.source != "executed" for r in report.records)
    summary = (
        f"sweep {report.sweep}: {total} point(s), "
        f"{hits} from cache ({hits / total:.1%} hit rate)"
        if total
        else f"sweep {report.sweep}: no recorded points"
    )
    if fmt == "json":
        return json.dumps(
            {"sweep": report.sweep, "by": by, "meta": report.meta, "rows": rows},
            indent=2,
        )
    if fmt == "markdown":
        header = f"**{summary}**"
        if not rows:
            return header
        return header + "\n\n" + format_markdown(rows, columns)
    if fmt == "text":
        table = format_table(rows, columns, floatfmt=".2f") if rows else "(empty)"
        return summary + "\n" + table
    raise ValueError(f"unknown report format {fmt!r}")
