"""Golden digests of every named grid's ``--quick`` output.

Each entry of :data:`repro.runner.grids.GRIDS` is run through a fresh,
cache-less :class:`~repro.experiments.common.ExperimentContext`; the
rendered tables plus the context's :meth:`SweepStats.render` line are
hashed and compared with ``tests/golden/quick_grids.json``.  The tier-1
suite (``test_golden.py``) recomputes a fast slice; the full set is a
CI step::

    PYTHONPATH=src python tests/golden_grids.py --check     # all grids
    PYTHONPATH=src python tests/golden_grids.py --check fig8
    PYTHONPATH=src python tests/golden_grids.py --write     # regenerate

A change that alters figure output on purpose regenerates the file with
``--write`` and says why in its description.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "quick_grids.json"


def render_grid(name: str) -> tuple[str, str]:
    """``(tables, stats_line)`` of one grid's quick run, uncached."""
    from repro.experiments.common import ExperimentContext
    from repro.runner.grids import GRIDS

    ctx = ExperimentContext()
    output = GRIDS[name].run(ctx, True)
    return output, ctx.stats.render()


def digest(name: str) -> dict[str, str]:
    """The golden record of one grid: output+stats sha256 and the stats."""
    output, stats = render_grid(name)
    text = f"{output}\n{stats}\n"
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "stats": stats}


def load() -> dict[str, dict[str, str]]:
    """The committed golden records, by grid name."""
    return json.loads(GOLDEN.read_text())["grids"]


def main(argv: list[str] | None = None) -> int:
    from repro.runner.grids import GRIDS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the file")
    mode.add_argument("--write", action="store_true", help="regenerate the file")
    parser.add_argument("grids", nargs="*", help="grid names (default: all)")
    args = parser.parse_args(argv)
    names = args.grids or sorted(GRIDS)
    if args.write:
        records = {name: digest(name) for name in sorted(GRIDS)}
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps({"grids": records}, indent=2) + "\n")
        print(f"wrote {len(records)} golden record(s) to {GOLDEN}")
        return 0
    golden = load()
    bad = 0
    for name in names:
        got = digest(name)
        ok = got == golden.get(name)
        bad += not ok
        print(f"{'ok  ' if ok else 'DIFF'} {name}: {got['stats']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
