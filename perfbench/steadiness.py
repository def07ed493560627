"""Run the benchmark on several seeds and record how steady it is.

    python3 perfbench/steadiness.py [--workloads A,B] [--seeds 0-9] [--sets 2]
                                    [--out FILE]

Runs ``perfbench/run.py`` once per (workload, seed, set), one run at a
time and the sets interleaved (seed 0 of every set, then seed 1, ...),
with the run length from ``BENCHMARK.json``.  For every end-to-end metric
and set it records the quartiles over the runs (``statistics.quantiles(
values, n=4)``), the median and the spread -- the distance between the
first and third quartile as a share of the median -- next to the metric's
bound, plus each run's host record (steal ticks, load, nproc, Python,
commit).  With two or more sets it prints how much worse each later
set's median reads than the first's.  That is what tells a later change
"unresolved" from "unchanged".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if lines else {}
    host = next((json.loads(x.split("host ", 1)[1]) for x in lines if "  host {" in x), {})
    return {
        "seed": seed,
        "exit": proc.returncode,
        "correct": doc.get("correct", False),
        "attempted": doc.get("attempted"),
        "failed": doc.get("failed"),
        "metrics": {name: m["value"] for name, m in doc.get("metrics", {}).items()},
        "host": host,
    }


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict:
    from perfbench.stats import quartile_spread

    out = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name] for run in runs]
        out[name] = {
            "quartiles": statistics.quantiles(values, n=4),
            "median": statistics.median(values),
            "spread": quartile_spread(values),
            "bound": bounds.get(name),
            "values": values,
        }
    return out


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse *later* reads than *first*, as a share of *first*."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    bounds = {name: m["bound"] for name, m in metrics.items()}
    seeds = parse_seeds(args.seeds)
    report = {
        "seconds": spec["run_seconds"],
        "seeds": seeds,
        "sets": args.sets,
        "workloads": {},
    }
    ok = True
    for workload in args.workloads.split(","):
        sets: list[list[dict]] = [[] for _ in range(args.sets)]
        for seed in seeds:
            for number, runs in enumerate(sets):
                t0 = time.monotonic()
                run = one_run(workload, seed, spec["run_seconds"], args.trace)
                run["wall_s"] = time.monotonic() - t0
                runs.append(run)
                print(
                    f"{workload} seed {seed} set {number}: exit {run['exit']} "
                    f"in {run['wall_s']:.1f}s",
                    file=sys.stderr,
                    flush=True,
                )
                ok &= run["exit"] == 0 and run["correct"]
        if len(sets[0]) < 2:
            continue
        summaries = [summarise(runs, bounds) for runs in sets]
        for runs in sets:
            for run in runs:
                del run["metrics"]  # kept once, as each summary's "values"
        report["workloads"][workload] = [
            {"metrics": summary, "runs": runs} for summary, runs in zip(summaries, sets)
        ]
        for name, row in summaries[0].items():
            spreads = " ".join(f"{s[name]['spread']:.3f}" for s in summaries)
            line = (
                f"{workload:12s} {name:16s} median {row['median']:10.4g} "
                f"spread {spreads} (bound {row['bound']})"
            )
            if name in metrics and len(summaries) > 1:
                drift = max(
                    worse_by(row["median"], s[name]["median"], metrics[name]["better"])
                    for s in summaries[1:]
                )
                line += f" later sets worse by {drift:+.3f}"
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
