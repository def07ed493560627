"""Committed golden digests of the quick grids (``tests/golden/``).

Tier-1 recomputes the fast grids; ``python tests/golden_grids.py
--check`` (a CI step) recomputes all of them.
"""

from __future__ import annotations

import pytest

from golden_grids import digest, load
from repro.runner.grids import GRIDS


def test_golden_file_covers_every_grid():
    assert sorted(load()) == sorted(GRIDS)


@pytest.mark.parametrize("name", ["smoke", "gap", "fig9"])
def test_quick_grid_matches_golden(name):
    assert digest(name) == load()[name]
