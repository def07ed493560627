"""The citation detector of ``tools/check_links.py``.

Every Markdown file a Python source under ``src/``, ``tools/``,
``tests/``, ``benchmarks/`` or ``examples/`` names must exist.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "check_links", ROOT / "tools" / "check_links.py"
)
check_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_links)

#: Built at run time, so this file cites no missing Markdown file itself.
MISSING = "GONE" + ".md"


def write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_reports_a_dangling_citation(tmp_path):
    # Cited from the root and from the citing file's directory; both
    # names also resolve from this file, which the detector scans too.
    write(tmp_path / "docs/API.md", "# API\n")
    write(tmp_path / "EXPERIMENTS.md", "# Experiments\n")
    write(
        tmp_path / "src" / "mod.py",
        '"""See docs/API.md and ../EXPERIMENTS.md; a glob (*.md) cites nothing."""\n',
    )
    write(
        tmp_path / "tools" / "tool.py",
        f'"""Usage."""\n# see https://example.org/{MISSING}\n# see {MISSING}\n',
    )
    assert check_links.dangling_citations(tmp_path) == [
        (tmp_path.resolve() / "tools" / "tool.py", 3, MISSING)
    ]


def test_checkout_cites_only_existing_files():
    assert check_links.dangling_citations(ROOT) == []
