"""Committed golden digests and fingerprints of the quick grids
(``tests/golden/``).

Tier-1 recomputes the fast grids; ``python tests/golden_grids.py
--check`` (a CI step) recomputes all of them.
"""

from __future__ import annotations

import pytest

from golden_grids import load, load_fingerprints, moved, record
from repro.runner.grids import GRIDS


def test_golden_file_covers_every_grid():
    assert sorted(load()) == sorted(GRIDS)
    assert sorted(load_fingerprints()) == sorted(GRIDS)


@pytest.mark.parametrize("name", ["smoke", "gap", "fig9"])
def test_quick_grid_matches_golden(name):
    digest, rows = record(name)
    assert digest == load()[name]
    assert moved(load_fingerprints()[name], rows) == []


def test_moved_names_every_changed_point():
    golden = {"a": "ii=2", "b": "ii=3", "c": "ii=4"}
    got = {"a": "ii=2", "b": "ii=5", "d": "ii=1"}
    assert moved(golden, got) == [
        "b: ii=3 -> ii=5",
        "c: ii=4 -> (absent)",
        "d: (absent) -> ii=1",
    ]
