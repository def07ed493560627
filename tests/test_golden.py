"""Committed golden digests and fingerprints of the quick grids
(``tests/golden/``).

Tier-1 recomputes the fast grids and ablations; ``python
tests/golden_grids.py --check`` (a CI step) recomputes all of them.
"""

from __future__ import annotations

import pytest

from golden_grids import (
    ablations,
    load,
    load_ablations,
    load_fingerprints,
    moved,
    record,
)
from repro.runner.grids import GRIDS


def test_golden_file_covers_every_grid():
    assert sorted(load()) == sorted(GRIDS)
    assert sorted(load_fingerprints()) == sorted(GRIDS)


@pytest.mark.parametrize("name", ["smoke", "gap", "fig9"])
def test_quick_grid_matches_golden(name):
    digest, rows = record(name)
    assert digest == load()[name]
    assert moved(load_fingerprints()[name], rows) == []


def test_fast_ablations_match_golden():
    """EXP-A3, A6 and A8: each point's repr and each stats line."""
    names = ("A3", "A6", "A8")
    golden = {k: v for k, v in load_ablations().items() if k.split()[0] in names}
    assert moved(golden, ablations(names)) == []


def test_moved_names_every_changed_point():
    golden = {"a": "ii=2", "b": "ii=3", "c": "ii=4"}
    got = {"a": "ii=2", "b": "ii=5", "d": "ii=1"}
    assert moved(golden, got) == [
        "b: ii=3 -> ii=5",
        "c: ii=4 -> (absent)",
        "d: (absent) -> ii=1",
    ]
