"""The CI benchmark gate (``tools/perf_gate.py``), without running the benchmark.

The counter record must name count metrics that ``perfbench/run.py``
prints, so renaming a perfbench counter fails tier-1 and not only CI.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "tools" / "perf_gate.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

RECORD = json.loads(gate.RECORD.read_text())
END_TO_END = json.loads(gate.BENCHMARK.read_text())["end_to_end"]


def result(values: dict[str, float], correct: bool = True) -> dict:
    """A ``perfbench/run.py`` JSON result carrying *values*."""
    return {
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {
            name: {"value": float(value), "unit": "count"}
            for name, value in values.items()
        },
    }


def test_every_recorded_counter_is_a_perfbench_count():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    code = (
        "import json; from perfbench.run import per_layer_units; "
        "print(json.dumps(per_layer_units()))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    units = json.loads(proc.stdout)
    assert RECORD
    assert {name: units.get(name) for name in RECORD} == dict.fromkeys(RECORD, "count")


class TestCounters:
    def test_result_equal_to_the_record_passes(self):
        assert gate.counter_problems(result(RECORD), RECORD) == []

    @pytest.mark.parametrize("name", sorted(RECORD))
    def test_a_counter_off_by_one_fails_and_is_named(self, name):
        values = dict(RECORD, **{name: RECORD[name] + 1})
        [problem] = gate.counter_problems(result(values), RECORD)
        assert problem.startswith(f"{name}: ")

    def test_a_missing_counter_fails(self):
        name = sorted(RECORD)[0]
        values = {k: v for k, v in RECORD.items() if k != name}
        [problem] = gate.counter_problems(result(values), RECORD)
        assert problem.startswith(f"{name}: ")

    def test_an_incorrect_run_fails(self):
        assert gate.counter_problems(result(RECORD, correct=False), RECORD) == [
            "the run is not correct"
        ]

    def test_main_reads_the_last_line_of_a_run(self, tmp_path, capsys):
        out = tmp_path / "run.txt"
        out.write_text("workload sweep_cold, seed 0\n" + json.dumps(result(RECORD)))
        assert gate.main(["counters", str(out)]) == 0
        capsys.readouterr()
        name = sorted(RECORD)[0]
        out.write_text(json.dumps(result(dict(RECORD, **{name: 0}))) + "\n")
        assert gate.main(["counters", str(out)]) == 1
        assert capsys.readouterr().out.startswith(f"{name}: 0.0 != recorded")


BASE = result({m["name"]: 100.0 for m in END_TO_END})


def head_with(metric: dict, worse_by: float) -> dict:
    """BASE with *metric* moved by *worse_by* (a share) in its worse direction."""
    value = 100.0 * (1 + worse_by if metric["better"] == "lower" else 1 - worse_by)
    metrics = dict(BASE["metrics"], **{metric["name"]: {"value": value}})
    return dict(BASE, metrics=metrics)


class TestTiming:
    @pytest.mark.parametrize("metric", END_TO_END, ids=lambda m: m["name"])
    def test_worse_than_the_bound_fails(self, metric):
        head = head_with(metric, metric["bound"] + 0.01)
        [problem] = gate.timing_problems(BASE, head, END_TO_END)
        assert problem.startswith(f"{metric['name']}: ")

    @pytest.mark.parametrize("metric", END_TO_END, ids=lambda m: m["name"])
    def test_inside_the_bound_or_better_passes(self, metric):
        for worse_by in (metric["bound"] - 0.01, 0.0, -0.5):
            head = head_with(metric, worse_by)
            assert gate.timing_problems(BASE, head, END_TO_END) == []

    def test_an_incorrect_side_fails(self):
        broken = dict(BASE, correct=False)
        assert gate.timing_problems(BASE, broken, END_TO_END) == [
            "the head run is not correct"
        ]
        assert gate.timing_problems(broken, BASE, END_TO_END) == [
            "the base run is not correct"
        ]

    def test_main_compares_two_runs(self, tmp_path):
        base, head = tmp_path / "base.txt", tmp_path / "head.txt"
        base.write_text(json.dumps(BASE))
        head.write_text(json.dumps(BASE))
        assert gate.main(["timing", str(base), str(head)]) == 0
        slow = next(m for m in END_TO_END if m["name"] == "points_per_s")
        head.write_text(json.dumps(head_with(slow, 0.5)))
        assert gate.main(["timing", str(base), str(head)]) == 1


def test_usage_without_arguments():
    with pytest.raises(SystemExit) as exc:
        gate.main([])
    assert "perf_gate.py counters" in str(exc.value.code)
