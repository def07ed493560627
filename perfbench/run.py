"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints every metric by name with its
unit, the input digest and a host record, then -- as the last line of
standard output -- one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``.  Exits 1
when any output check failed, and without a result when there is no
program to measure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit("perfbench: no program at src/repro under the working tree")
sys.path.insert(1, str(ROOT / "src"))

from perfbench.common import RunDir, host_record, precompile, steal_ticks  # noqa: E402

#: End-to-end metrics and their units.
END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "mean_ipc": "ipc",
}


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics and their units (the traced run's output)."""
    from perfbench.tracing import CALLS_ONLY, COUNTED, LAYERS, SELF_ONLY

    units = {"cli.import_s": "s", "workloads.build_s": "s"}
    for name in CALLS_ONLY:
        units[f"{name}.calls"] = "count"
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    units.update(
        {
            "core.schedule.distinct_ratio": "ratio",
            "core.ii_attempts": "count",
            "core.ii_wasted_ratio": "ratio",
            "core.policy.self_s": "s",
            "sim.cycles_per_s": "1/s",
            "runner.cache.hit_ratio": "ratio",
            "runner.cache.bytes_per_entry": "bytes",
            "runner.result.materialise_s": "s",
            "experiments.reduce_s": "s",
            "service.queue_wait_ms": "ms",
            "service.run_ms": "ms",
            "service.http_overhead_ms": "ms",
            "service.memo_hit_ratio": "ratio",
            "fabric.lease_turnaround_ms": "ms",
            "fabric.worker.busy_ratio": "ratio",
            "fabric.commit_ratio": "ratio",
        }
    )
    for layer in LAYERS:
        units[f"{layer}.share"] = "ratio"
    units["unattributed_ratio"] = "ratio"
    units["trace_overhead_ratio"] = "ratio"
    return units


def workloads() -> dict:
    from perfbench.fabric_pull import run_fabric_workload
    from perfbench.serving import run_http_workload
    from perfbench.sweeps import run_sweep_workload

    return {
        "sweep_cold": lambda *a: run_sweep_workload(a[0], "cold", *a[1:]),
        "sweep_warm": lambda *a: run_sweep_workload(a[0], "warm", *a[1:]),
        "serve_http": run_http_workload,
        "fabric_pull": run_fabric_workload,
    }


def main(argv: list[str] | None = None) -> int:
    table = workloads()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(table))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    start_steal = steal_ticks()
    precompile()
    with RunDir() as run:
        result = table[args.workload](run, args.seed, args.seconds, bool(args.trace))
    host = host_record(start_steal)

    if args.trace:
        units = per_layer_units()
        values = {name: result["layers"].get(name, 0.0) for name in units}
    else:
        units = END_TO_END
        values = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}, input digest {result['digest']}")
    for note in result["notes"]:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(f"  failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} checks)")
    for reason in result["reasons"][:10]:
        print(f"  FAILED: {reason}")
    print(f"  host {json.dumps(host, sort_keys=True)}")
    doc = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(doc), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
