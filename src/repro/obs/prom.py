"""Prometheus text exposition (format 0.0.4) rendering.

:func:`render` turns a registry's collected families into the canonical
``# HELP`` / ``# TYPE`` / sample-line layout Prometheus scrapes.  Its
strict inverse is a test oracle, ``tests/prom_oracle.py``, which the
test-suite and the CI scrape gates run over ``GET /metrics``.
"""

from __future__ import annotations

from .metrics import MetricFamily, MetricsRegistry, Sample

__all__ = ["CONTENT_TYPE", "render"]

#: The scrape Content-Type the service answers ``GET /metrics`` with.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _render_sample(sample: Sample) -> str:
    if sample.labels:
        labels = ",".join(
            f'{name}="{_escape_label_value(value)}"'
            for name, value in sample.labels
        )
        return f"{sample.name}{{{labels}}} {_format_value(sample.value)}"
    return f"{sample.name} {_format_value(sample.value)}"


def render(families: list[MetricFamily] | MetricsRegistry) -> str:
    """Prometheus text for *families* (or a registry, collected now)."""
    if isinstance(families, MetricsRegistry):
        families = families.collect()
    lines: list[str] = []
    for family in families:
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for sample in family.samples:
            lines.append(_render_sample(sample))
    return "\n".join(lines) + "\n" if lines else ""
