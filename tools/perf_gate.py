#!/usr/bin/env python3
"""Gate benchmark runs: exact work counters, and timing against a base run.

    python tools/perf_gate.py counters TRACED
    python tools/perf_gate.py timing BASE HEAD

Each argument is a file holding the standard output of one
``python3 perfbench/run.py`` run; its last line is the run's JSON result.

* ``counters`` -- TRACED is a ``--trace 1`` run of ``sweep_cold`` (seed 0,
  15 s).  It passes when the run is correct and every counter in
  ``tests/golden/sweep_cold_counters.json`` equals its recorded value.
  The counters count work (schedules built, II attempts, unrolled
  graphs, selective-unrolling decisions, cache writes), not time, so they
  are exact on any host.  A change that alters the work edits the record
  by hand and says why.
* ``timing`` -- BASE and HEAD are ``--trace 0`` runs of one workload and
  seed on one machine, at the base commit and at the head.  It passes
  when both are correct and no end-to-end metric of HEAD reads worse
  than BASE's by more than its bound, with the bounds and ``better``
  directions read from ``BENCHMARK.json``.

Used by the CI perfbench job.  Exit status is non-zero on any failure,
with one line per problem.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "golden" / "sweep_cold_counters.json"
BENCHMARK = ROOT / "BENCHMARK.json"


def load_result(path: Path) -> dict:
    """The JSON result on the last line of one run's standard output."""
    return json.loads(path.read_text(encoding="utf-8").splitlines()[-1])


def counter_problems(result: dict, record: dict[str, int]) -> list[str]:
    """Why *result* fails the counter record (empty when it passes)."""
    problems = [] if result["correct"] else ["the run is not correct"]
    for name, want in record.items():
        got = result["metrics"].get(name, {}).get("value")
        if got != want:
            problems.append(f"{name}: {got} != recorded {want}")
    return problems


def timing_problems(base: dict, head: dict, end_to_end: list[dict]) -> list[str]:
    """Why *head* fails against *base* (empty when it passes)."""
    problems = [
        f"the {side} run is not correct"
        for side, result in (("base", base), ("head", head))
        if not result["correct"]
    ]
    for metric in end_to_end:
        name = metric["name"]
        before = base["metrics"][name]["value"]
        after = head["metrics"][name]["value"]
        change = (after - before) / before
        worse = change if metric["better"] == "lower" else -change
        if worse > metric["bound"]:
            problems.append(
                f"{name}: {before:.6g} -> {after:.6g}, {worse:.1%} worse "
                f"(bound {metric['bound']:.0%})"
            )
    return problems


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "counters":
        record = json.loads(RECORD.read_text(encoding="utf-8"))
        problems = counter_problems(load_result(Path(argv[1])), record)
        checked = f"{len(record)} counter(s) against {RECORD.relative_to(ROOT)}"
    elif len(argv) == 3 and argv[0] == "timing":
        spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
        base, head = (load_result(Path(arg)) for arg in argv[1:])
        problems = timing_problems(base, head, spec)
        checked = f"{len(spec)} end-to-end metric(s) against BENCHMARK.json bounds"
    else:
        sys.exit("usage: python tools/perf_gate.py counters TRACED | timing BASE HEAD")
    for problem in problems:
        print(problem)
    print(f"checked {checked}: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
