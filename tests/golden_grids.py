"""Golden digests and per-point fingerprints of every named grid's
``--quick`` output.

Each entry of :data:`repro.runner.grids.GRIDS` is run through a fresh,
cache-less :class:`~repro.experiments.common.ExperimentContext`; the
rendered tables plus the context's :meth:`SweepStats.render` line are
hashed and compared with ``tests/golden/quick_grids.json``.  Beside the
digest, every scheduled point of the grid has a fingerprint row in
``tests/golden/quick_fingerprints.json``: the emitted schedule's II and
stage count, its unroll factor, whether the point fell back to list
scheduling, and the schedule's ``was_bus_limited`` (the paper's
LimitedByBus, which no table prints for an unrolled schedule).  A check
that fails names every point whose row moved.  The tier-1 suite
(``test_golden.py``) recomputes a fast slice; the full set is a CI
step.  It also re-runs EXP-A7, the register-file sweep, the one
golden run below the 16 registers per cluster of every quick grid
(where placement fit checks most often need the exact pressure
histogram), and compares each point's
``repr(mean_ipc)`` and fallback count with
``tests/golden/register_sweep.json``.  The ``ablations`` record runs
EXP-A3 to A6 and A8, which no named grid covers, on the same sub-suite
and compares each point's ``repr`` and each ablation's stats line with
``tests/golden/ablations.json``::

    PYTHONPATH=src python tests/golden_grids.py --check     # all grids, A7, ablations
    PYTHONPATH=src python tests/golden_grids.py --check fig8
    PYTHONPATH=src python tests/golden_grids.py --check register-sweep ablations
    PYTHONPATH=src python tests/golden_grids.py --write     # regenerate

A change that alters figure output on purpose regenerates the files
with ``--write`` and says why in its description.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "quick_grids.json"
FINGERPRINTS = GOLDEN.parent / "quick_fingerprints.json"
REGISTER_SWEEP = GOLDEN.parent / "register_sweep.json"
ABLATIONS = GOLDEN.parent / "ablations.json"

#: The register sweep's name on the command line, beside the grid names.
SWEEP = "register-sweep"
#: The ablations record's name on the command line.
ABLATION_RECORD = "ablations"
#: EXP-A7's sub-suite (as in benchmarks/bench_ablations_substrate.py).
SWEEP_PROGRAMS = ("tomcatv", "swim", "applu", "fpppp")
#: The ablations the record covers, by EXP id and run function name.
ABLATION_RUNS = {
    "A3": "run_ordering_ablation",
    "A4": "run_default_cluster_ablation",
    "A5": "run_unroll_factor_sweep",
    "A6": "run_stall_sensitivity",
    "A8": "run_pipelining_gain",
}


def record(name: str) -> tuple[dict[str, str], dict[str, str]]:
    """One grid's quick run, uncached: its digest and its fingerprints.

    The digest is the output+stats sha256 and the stats line; the
    fingerprints map a point label to its row (see :func:`fingerprints`).
    """
    from repro.experiments.common import ExperimentContext
    from repro.runner.grids import GRIDS

    ctx = ExperimentContext()
    output = GRIDS[name].run(ctx, True)
    stats = ctx.stats.render()
    text = f"{output}\n{stats}\n"
    digest = {"sha256": hashlib.sha256(text.encode()).hexdigest(), "stats": stats}
    return digest, fingerprints(ctx)


def fingerprints(ctx) -> dict[str, str]:
    """A row per scheduled point of *ctx*, keyed by a readable label.

    The label names the loop, machine, scheduler, policy and rule, plus
    a short hash of the point's canonical identity, which keeps labels
    unique where two points differ only in fields the label omits.
    """
    from repro.experiments.common import config_label
    from repro.runner.scenario import ScenarioPoint

    fallbacks = {point.canonical() for point in ctx.fallbacks}
    rows = {}
    for key, result in ctx.memo.items():
        point = ScenarioPoint(**json.loads(key))
        label = (
            f"{point.loop} @ {config_label(point.config())} "
            f"[{point.scheduler}/{point.policy}/{point.rule}] "
            f"{hashlib.sha256(key.encode()).hexdigest()[:8]}"
        )
        sched = result.schedule
        rows[label] = (
            f"ii={sched.ii} sc={sched.stage_count} unroll={result.unroll_factor} "
            f"fallback={int(key in fallbacks)} bus_limited={int(sched.was_bus_limited)}"
        )
    return dict(sorted(rows.items()))


def sweep_suite() -> list:
    """The programs of :data:`SWEEP_PROGRAMS`, freshly built."""
    from repro.workloads import resolve_workload

    return [resolve_workload(name, kind="program")[1]() for name in SWEEP_PROGRAMS]


def register_sweep() -> dict[str, str]:
    """EXP-A7 at its default register sizes: a row per (size, policy)."""
    from repro.experiments import run_register_sweep

    return {
        f"regs={p.regs_per_cluster} policy={p.policy}": (
            f"mean_ipc={p.mean_ipc!r} fallbacks={p.fallback_loops}"
        )
        for p in run_register_sweep(sweep_suite())
    }


def ablations(names: tuple[str, ...] = tuple(ABLATION_RUNS)) -> dict[str, str]:
    """The ablations *names* at their defaults, each in a fresh context:
    a row per point (its ``repr``) and a row for the context's stats line."""
    from repro import experiments

    suite = sweep_suite()
    rows = {}
    for name in names:
        ctx = experiments.ExperimentContext(suite=suite)
        points = getattr(experiments, ABLATION_RUNS[name])(ctx)
        for i, point in enumerate(points):
            rows[f"{name} point {i}"] = repr(point)
        rows[f"{name} stats"] = ctx.stats.render()
    return rows


def load_ablations() -> dict[str, str]:
    """The committed ablations record's rows."""
    return json.loads(ABLATIONS.read_text())["points"]


def moved(golden: dict[str, str], got: dict[str, str]) -> list[str]:
    """One line per point whose fingerprint differs, appeared or vanished."""
    lines = []
    for label in sorted(set(golden) | set(got)):
        before = golden.get(label, "(absent)")
        after = got.get(label, "(absent)")
        if before != after:
            lines.append(f"{label}: {before} -> {after}")
    return lines


def load() -> dict[str, dict[str, str]]:
    """The committed golden digests, by grid name."""
    return json.loads(GOLDEN.read_text())["grids"]


def load_fingerprints() -> dict[str, dict[str, str]]:
    """The committed fingerprint rows, by grid name."""
    return json.loads(FINGERPRINTS.read_text())["grids"]


def main(argv: list[str] | None = None) -> int:
    from repro.runner.grids import GRIDS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the files")
    mode.add_argument("--write", action="store_true", help="regenerate the files")
    parser.add_argument("grids", nargs="*", help="grid names (default: all)")
    args = parser.parse_args(argv)
    # The records that are not a named grid: their file and their rows.
    runs = {
        SWEEP: (REGISTER_SWEEP, register_sweep),
        ABLATION_RECORD: (ABLATIONS, ablations),
    }
    names = args.grids or [*sorted(GRIDS), *runs]
    if args.write:
        records = {name: record(name) for name in sorted(GRIDS)}
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        digests = {name: digest for name, (digest, _rows) in records.items()}
        rows = {name: rows for name, (_digest, rows) in records.items()}
        GOLDEN.write_text(json.dumps({"grids": digests}, indent=2) + "\n")
        FINGERPRINTS.write_text(json.dumps({"grids": rows}, indent=1) + "\n")
        for path, rows_of in runs.values():
            path.write_text(json.dumps({"points": rows_of()}, indent=1) + "\n")
        print(
            f"wrote {len(records)} golden record(s) to {GOLDEN} and {FINGERPRINTS}, "
            f"the register sweep to {REGISTER_SWEEP} and the ablations to {ABLATIONS}"
        )
        return 0
    golden, golden_rows = load(), load_fingerprints()
    bad = 0
    for name in names:
        if name in runs:
            path, rows_of = runs[name]
            rows = rows_of()
            lines = moved(json.loads(path.read_text())["points"], rows)
            bad += bool(lines)
            print(f"{'DIFF' if lines else 'ok  '} {name}: {len(rows)} point(s)")
            for line in lines:
                print(f"     moved {line}")
            continue
        digest, rows = record(name)
        lines = moved(golden_rows.get(name, {}), rows)
        ok = digest == golden.get(name) and not lines
        bad += not ok
        print(f"{'ok  ' if ok else 'DIFF'} {name}: {digest['stats']}")
        for line in lines:
            print(f"     moved {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
