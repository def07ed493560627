#!/usr/bin/env python3
"""Fail on broken intra-repo links, stale CLI verbs and dangling citations.

Two drift detectors over every ``*.md`` file (repo root, ``docs/``, and
any other tracked directory):

* **links** — extracts ``[text](target)`` links and checks that every
  relative target resolves to an existing file or directory.  External
  links (``http(s)://``, ``mailto:``) and pure in-page anchors (``#…``)
  are skipped; a ``path#fragment`` target is checked for the path part
  only.
* **CLI verbs** — every ``repro-vliw <subcommand>`` mention must name a
  subcommand that ``repro.cli.build_parser()`` registers, so the docs
  cannot drift as verbs are added or renamed.

and a third over the Python sources of ``src/``, ``tools/``, ``tests/``,
``benchmarks/`` and ``examples/``:

* **citations** — every Markdown file a docstring or comment names
  (``docs/API.md``, ``EXPERIMENTS.md``) must be a file of the checkout,
  relative to its root or to the citing file's directory.

Used by the CI docs job (importing ``repro.cli`` needs the package's
dependencies installed)::

    python tools/check_links.py

Exit status is non-zero if anything is broken, with one line per
offender.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

#: Inline Markdown links: [text](target).  Deliberately simple — the
#: repo's docs do not use reference-style links or angle brackets.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Directories never scanned (caches, VCS internals, virtualenvs).
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules", ".venv"}


def iter_markdown_files(root: Path) -> list[Path]:
    """Every ``*.md`` file under *root*, skipping junk directories."""
    files = []
    for path in sorted(root.rglob("*.md")):
        if any(part in SKIP_DIRS for part in path.parts):
            continue
        files.append(path)
    return files


def broken_links(md_file: Path) -> list[tuple[str, str]]:
    """The (target, reason) pairs of broken relative links in one file."""
    problems = []
    text = md_file.read_text(encoding="utf-8")
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if target.startswith("#"):  # in-page anchor
            continue
        path_part = target.split("#", 1)[0]
        if not path_part:
            continue
        resolved = (md_file.parent / path_part).resolve()
        if not resolved.exists():
            problems.append((target, f"no such file: {resolved}"))
    return problems


#: ``repro-vliw <word>`` command mentions.  Only bare lowercase words
#: are candidate subcommands; flags (``--jobs``), placeholders
#: (``<command>``) and upper-case words (``KERNEL``, ``GRID``) are not
#: matched.
CLI_MENTION_RE = re.compile(r"repro-vliw\s+([a-z][a-z0-9_-]*)")

#: Fenced code blocks and inline code spans — the only places a
#: ``repro-vliw`` mention is a command line rather than prose ("the
#: repro-vliw package").
FENCED_RE = re.compile(r"```.*?```", re.S)
INLINE_CODE_RE = re.compile(r"`[^`\n]+`")


def registered_subcommands(root: Path) -> set[str]:
    """Subcommand names the checkout's ``repro-vliw`` parser registers."""
    sys.path.insert(0, str(root / "src"))
    from repro.cli import build_parser

    return {
        name
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
        for name in action.choices
    }


def cli_mentions(md_file: Path) -> list[str]:
    """Every ``repro-vliw <verb>`` inside a code block or code span."""
    text = md_file.read_text(encoding="utf-8")
    fenced = FENCED_RE.findall(text)
    inline = INLINE_CODE_RE.findall(FENCED_RE.sub("", text))
    code = "\n".join(fenced + inline)
    return CLI_MENTION_RE.findall(code)


#: Directories whose ``*.py`` files may cite Markdown files by name.
CITING_DIRS = ("src", "tools", "tests", "benchmarks", "examples")

#: A cited Markdown path.  A word character must precede its ``.md``
#: suffix, so a glob or a bare suffix is no citation, and it may not
#: start inside a longer token, so a URL is never one.
MD_CITATION_RE = re.compile(r"(?<![\w./:-])[\w./-]*\w\.md\b")


def dangling_citations(root: Path) -> list[tuple[Path, int, str]]:
    """The (file, line, name) of every cited Markdown file that is missing."""
    root = root.resolve()
    problems = []
    for top in CITING_DIRS:
        for py_file in sorted((root / top).rglob("*.py")):
            if any(part in SKIP_DIRS for part in py_file.parts):
                continue
            bases = (root, py_file.parent)
            lines = py_file.read_text(encoding="utf-8").splitlines()
            for number, line in enumerate(lines, 1):
                for name in MD_CITATION_RE.findall(line):
                    targets = [(base / name).resolve() for base in bases]
                    if not any(t.is_file() and t.is_relative_to(root) for t in targets):
                        problems.append((py_file, number, name))
    return problems


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    failures = 0
    files = iter_markdown_files(root)
    known = registered_subcommands(root)
    mentions = 0
    for py_file, number, name in dangling_citations(root):
        print(
            f"{py_file.relative_to(root)}:{number}: cites {name}, which is "
            "no file of the checkout"
        )
        failures += 1
    for md_file in files:
        for target, reason in broken_links(md_file):
            print(f"{md_file.relative_to(root)}: broken link ({target}): {reason}")
            failures += 1
        verbs = cli_mentions(md_file)
        mentions += len(verbs)
        for verb in verbs:
            if verb in known:
                continue
            print(
                f"{md_file.relative_to(root)}: 'repro-vliw {verb}' names no "
                f"registered subcommand (known: {', '.join(sorted(known))})"
            )
            failures += 1
    print(
        f"checked {len(files)} markdown file(s), {mentions} CLI mention(s) "
        f"against {len(known)} registered subcommand(s): "
        f"{failures} problem(s)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
