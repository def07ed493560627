"""Plain-text table rendering for experiment outputs.

Keeps the benchmark harnesses free of formatting noise: they produce rows
(lists of dicts), and these helpers align them the way the paper's tables
and figure captions read.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


def format_table(
    rows: Sequence[dict[str, Any]],
    columns: Sequence[str] | None = None,
    *,
    floatfmt: str = ".3f",
    title: str | None = None,
) -> str:
    """Render dict rows as an aligned monospace table."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    if columns is None:
        columns = list(rows[0])

    def fmt(value: Any) -> str:
        if isinstance(value, float):
            return format(value, floatfmt)
        return str(value)

    table = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in table))
        for i, col in enumerate(columns)
    ]
    out = []
    if title:
        out.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    out.append(header)
    out.append("  ".join("-" * w for w in widths))
    for line in table:
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
    return "\n".join(out)


def format_markdown(rows: Sequence[dict[str, Any]], columns: Sequence[str]) -> str:
    """Render dict rows as a Markdown table (floats to two decimals)."""

    def fmt(value: Any) -> str:
        return format(value, ".2f") if isinstance(value, float) else str(value)

    lines = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(fmt(row.get(col, "")) for col in columns) + " |"
        )
    return "\n".join(lines)


def format_series(
    label: str, points: Iterable[tuple[Any, float]], floatfmt: str = ".3f"
) -> str:
    """Render an (x, y) series as a one-line summary (figure data)."""
    body = ", ".join(f"{x}:{format(y, floatfmt)}" for x, y in points)
    return f"{label}: {body}"
