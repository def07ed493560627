"""A strict Prometheus text exposition (0.0.4) parser: the test oracle of
``repro.obs.prom.render``.

:func:`parse` rejects unknown line shapes, malformed labels, samples
without a preceding ``# TYPE`` and histograms whose cumulative buckets
decrease, all with :class:`PromParseError`.  The service, fabric and
observability tests round-trip ``GET /metrics`` through it, so a
formatting regression fails the build instead of silently breaking
dashboards.

Run as a script it is the CI scrape gate::

    curl -fsS localhost:8123/metrics | \
        python tests/prom_oracle.py --require repro_requests_total ...

which exits non-zero when the body does not parse or a required metric
family is missing.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field

from repro.obs.metrics import Sample

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)


class PromParseError(ValueError):
    """The scraped body is not valid Prometheus text exposition."""


def _unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


@dataclass
class ParsedFamily:
    """One metric family reconstructed from exposition text."""

    name: str
    kind: str
    help: str = ""
    samples: list[Sample] = field(default_factory=list)


def _family_for(name: str, families: dict[str, ParsedFamily]) -> ParsedFamily:
    """The declared family a sample line belongs to (histograms have
    ``_bucket``/``_sum``/``_count`` suffixes on their sample names)."""
    if name in families:
        return families[name]
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            family = families.get(base)
            if family is not None and family.kind == "histogram":
                return family
    raise PromParseError(f"sample {name!r} has no preceding # TYPE line")


def _parse_labels(raw: str) -> tuple[tuple[str, str], ...]:
    if not raw:
        return ()
    pairs = []
    for chunk in raw.split(","):
        match = _LABEL_PAIR_RE.match(chunk.strip())
        if not match:
            raise PromParseError(f"malformed label pair {chunk!r}")
        pairs.append((match.group("name"), _unescape(match.group("value"))))
    return tuple(pairs)


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return float("inf")
    if raw == "-Inf":
        return float("-inf")
    try:
        return float(raw)
    except ValueError:
        raise PromParseError(f"malformed sample value {raw!r}") from None


def parse(text: str) -> dict[str, ParsedFamily]:
    """Strictly parse exposition *text* into ``{family name: family}``.

    Raises :class:`PromParseError` on anything Prometheus itself would
    reject, plus two extra sanity rules that catch renderer bugs:
    duplicate family declarations, and histogram bucket counts that are
    not cumulative.
    """
    families: dict[str, ParsedFamily] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            if line.startswith("# HELP "):
                parts = line[len("# HELP ") :].split(" ", 1)
                name = parts[0]
                if name in families:
                    raise PromParseError(f"duplicate family {name!r}")
                families[name] = ParsedFamily(
                    name=name,
                    kind="untyped",
                    help=_unescape(parts[1]) if len(parts) > 1 else "",
                )
            elif line.startswith("# TYPE "):
                parts = line[len("# TYPE ") :].split()
                if len(parts) != 2:
                    raise PromParseError(f"malformed TYPE line {line!r}")
                name, kind = parts
                if kind not in ("counter", "gauge", "histogram", "untyped"):
                    raise PromParseError(f"unknown metric type {kind!r}")
                family = families.setdefault(
                    name, ParsedFamily(name=name, kind=kind)
                )
                if family.samples:
                    raise PromParseError(
                        f"TYPE for {name!r} appears after its samples"
                    )
                family.kind = kind
            elif line.startswith("#"):
                continue  # free-form comment
            else:
                match = _SAMPLE_RE.match(line)
                if not match:
                    raise PromParseError(f"malformed sample line {line!r}")
                family = _family_for(match.group("name"), families)
                family.samples.append(
                    Sample(
                        name=match.group("name"),
                        labels=_parse_labels(match.group("labels") or ""),
                        value=_parse_value(match.group("value")),
                    )
                )
        except PromParseError as exc:
            raise PromParseError(f"line {lineno}: {exc}") from None
    _check_histograms(families)
    return families


def _check_histograms(families: dict[str, ParsedFamily]) -> None:
    for family in families.values():
        if family.kind != "histogram":
            continue
        # Group bucket samples by their non-le label set and verify the
        # cumulative invariant within each series.
        series: dict[tuple[tuple[str, str], ...], list[tuple[float, float]]] = {}
        for sample in family.samples:
            if not sample.name.endswith("_bucket"):
                continue
            bound = None
            rest = []
            for label, value in sample.labels:
                if label == "le":
                    bound = _parse_value(value)
                else:
                    rest.append((label, value))
            if bound is None:
                raise PromParseError(
                    f"{sample.name}: histogram bucket without le label"
                )
            series.setdefault(tuple(rest), []).append((bound, sample.value))
        for key, buckets in series.items():
            buckets.sort(key=lambda item: item[0])
            if not buckets or buckets[-1][0] != float("inf"):
                raise PromParseError(
                    f"{family.name}{dict(key)}: missing le=\"+Inf\" bucket"
                )
            counts = [count for _bound, count in buckets]
            if counts != sorted(counts):
                raise PromParseError(
                    f"{family.name}{dict(key)}: bucket counts not cumulative"
                )


# ---------------------------------------------------------------------------
# CI gate: parse stdin, require families
# ---------------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tests/prom_oracle.py",
        description=(
            "Strictly validate Prometheus exposition text from stdin; "
            "exit non-zero if it fails to parse or required metric "
            "families are absent."
        ),
    )
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="METRIC",
        help="metric family that must be present (repeatable)",
    )
    args = parser.parse_args(argv)

    text = sys.stdin.read()
    try:
        families = parse(text)
    except PromParseError as exc:
        print(f"invalid exposition: {exc}", file=sys.stderr)
        return 1
    missing = [name for name in args.require if name not in families]
    if missing:
        print(f"missing metric families: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(f"ok: {len(families)} metric families")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
