"""The citation and CLI detectors of ``tools/check_links.py``.

Every Markdown file a Python source under ``src/``, ``tools/``,
``tests/``, ``benchmarks/`` or ``examples/`` names must exist, and every
``repro-vliw`` command line a Markdown file cites must name a registered
verb and only flags that verb registers.
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


def test_reports_a_stale_cli_flag(tmp_path):
    # A continued command line, a comment and a pipe: only --quik is stale.
    write(
        tmp_path / "README.md",
        "Run `repro-vliw fig8 --quik`, or\n\n"
        "```sh\nrepro-vliw sweep fig8 \\\n  --quick --jobs 2  # not --quik\n"
        "repro-vliw fig9 --quick | grep --count IPC\n```\n",
    )
    commands = check_links.cli_commands(tmp_path / "README.md")
    assert commands == [
        ("sweep", ["--quick", "--jobs"]),
        ("fig9", ["--quick"]),
        ("fig8", ["--quik"]),
    ]
    assert check_links.stale_cli(commands, check_links.registered_options(ROOT)) == [
        "'repro-vliw fig8 --quik': fig8 registers no --quik option"
    ]


def test_checkout_cites_only_registered_cli_usage():
    options = check_links.registered_options(ROOT)
    assert "--quick" in options["fig8"]
    for md_file in check_links.iter_markdown_files(ROOT):
        commands = check_links.cli_commands(md_file)
        assert check_links.stale_cli(commands, options) == [], md_file
