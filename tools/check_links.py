#!/usr/bin/env python3
"""Fail on broken intra-repo links, stale CLI usage and dangling citations.

Three drift detectors over every ``*.md`` file (repo root, ``docs/``, and
any other tracked directory):

* **links** — extracts ``[text](target)`` links and checks that every
  relative target resolves to an existing file or directory.  External
  links (``http(s)://``, ``mailto:``) and pure in-page anchors (``#…``)
  are skipped; a ``path#fragment`` target is checked for the path part
  only.
* **CLI verbs** — every ``repro-vliw <subcommand>`` mention must name a
  subcommand that ``repro.cli.build_parser()`` registers, so the docs
  cannot drift as verbs are added or renamed.
* **CLI flags** — every ``--flag`` that follows such a mention on its
  command line (backslash continuations joined; a shell comment, pipe or
  list operator ends the command) must be an option that subcommand
  registers, so a deleted or renamed flag cannot linger in the docs.
  ``CHANGES.md`` is exempt from both CLI detectors: a change log
  records the tree as it was, removed verbs and flags included.

and a fourth over the Python sources of ``src/``, ``tools/``, ``tests/``,
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

#: Markdown files that record the tree as it was: links only, no CLI check.
HISTORY_FILES = {"CHANGES.md"}


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


#: ``repro-vliw <word>`` command mentions and the rest of their command
#: line.  Only bare lowercase words are candidate subcommands; flags
#: (``--jobs``), placeholders (``<command>``) and upper-case words
#: (``KERNEL``, ``GRID``) are not matched.  The command ends at a shell
#: comment, a pipe, a list operator or the next mention.
CLI_COMMAND_RE = re.compile(
    r"repro-vliw\s+([a-z][a-z0-9_-]*)((?:(?!repro-vliw)[^#|;&\n])*)"
)

#: A long option on a command line (``--jobs`` of ``--jobs=2``).
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")

#: Fenced code blocks and inline code spans — the only places a
#: ``repro-vliw`` mention is a command line rather than prose ("the
#: repro-vliw package").
FENCED_RE = re.compile(r"```.*?```", re.S)
INLINE_CODE_RE = re.compile(r"`[^`\n]+`")


def registered_options(root: Path) -> dict[str, set[str]]:
    """Each subcommand the checkout's ``repro-vliw`` parser registers,
    with the option strings it takes (``--jobs``, ``-h``, ...)."""
    sys.path.insert(0, str(root / "src"))
    from repro.cli import build_parser

    return {
        name: {flag for option in parser._actions for flag in option.option_strings}
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
        for name, parser in action.choices.items()
    }


def cli_commands(md_file: Path) -> list[tuple[str, list[str]]]:
    """Every ``repro-vliw <verb>`` inside a code block or code span, with
    the ``--flags`` its command line passes (none in a history file)."""
    if md_file.name in HISTORY_FILES:
        return []
    text = md_file.read_text(encoding="utf-8")
    fenced = [block.replace("\\\n", " ") for block in FENCED_RE.findall(text)]
    inline = INLINE_CODE_RE.findall(FENCED_RE.sub("", text))
    code = "\n".join(fenced + inline)
    return [
        (verb, FLAG_RE.findall(rest)) for verb, rest in CLI_COMMAND_RE.findall(code)
    ]


def stale_cli(
    commands: list[tuple[str, list[str]]], options: dict[str, set[str]]
) -> list[str]:
    """What *commands* (:func:`cli_commands`) cite that *options*
    (:func:`registered_options`) lacks: a verb, or a verb's flag."""
    problems = []
    for verb, flags in commands:
        if verb not in options:
            problems.append(
                f"'repro-vliw {verb}' names no registered subcommand "
                f"(known: {', '.join(sorted(options))})"
            )
            continue
        problems.extend(
            f"'repro-vliw {verb} {flag}': {verb} registers no {flag} option"
            for flag in flags
            if flag not in options[verb]
        )
    return problems


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
    options = registered_options(root)
    mentions = flags = 0
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
        commands = cli_commands(md_file)
        mentions += len(commands)
        flags += sum(len(cited) for _verb, cited in commands)
        for problem in stale_cli(commands, options):
            print(f"{md_file.relative_to(root)}: {problem}")
            failures += 1
    print(
        f"checked {len(files)} markdown file(s), {mentions} CLI mention(s) "
        f"and {flags} flag(s) against {len(options)} registered "
        f"subcommand(s): {failures} problem(s)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
