"""Tracing spans.

:class:`Tracer` — nestable, named spans (``with tracer.span("x"):``)
with W3C-style trace/span identifiers, **zero-cost when disabled** (a
single attribute check on the hot path, no object allocation).  The
current span lives in a :mod:`contextvars` context variable, so
concurrent server threads each see their own stack.  Crossing a
*process* boundary is explicit: :meth:`Tracer.carrier` snapshots the
current context into a plain dict, and :meth:`Tracer.adopt` re-installs
it inside the worker — the runner's spawn-pool shards do exactly that,
so a span recorded in a worker links back to the submitting request's
trace.

Spans never feed scheduling decisions, scenario identities or cache
keys — observability must not perturb byte-identical schedules.
"""

from __future__ import annotations

import contextvars
import os
import time
import uuid
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "TRACER",
    "Span",
    "TraceContext",
    "Tracer",
    "new_trace_id",
]

#: Environment variable that enables the process-default tracer.
TRACE_ENV_VAR = "REPRO_VLIW_TRACE"

#: Spans retained in a tracer's in-memory ring buffer.
SPAN_BUFFER = 2048


def new_trace_id() -> str:
    """A fresh 32-hex-digit trace identifier."""
    return uuid.uuid4().hex


def _new_span_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of the active span: where new spans attach."""

    trace_id: str
    span_id: str

    def to_carrier(self) -> dict[str, str]:
        """Plain-dict form for crossing process boundaries (picklable)."""
        return {"trace_id": self.trace_id, "parent_span_id": self.span_id}

    @classmethod
    def from_carrier(cls, carrier: dict[str, str]) -> "TraceContext":
        return cls(
            trace_id=carrier["trace_id"], span_id=carrier["parent_span_id"]
        )


@dataclass
class Span:
    """One finished (or in-flight) named span."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start_unix: float
    duration_s: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready record (what run reports and workers ship around)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
        }


class _NullSpan:
    """The shared do-nothing context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Nestable spans with thread-safe context propagation.

    Parameters
    ----------
    enabled:
        When ``False`` (the default for the process-wide :data:`TRACER`
        unless ``$REPRO_VLIW_TRACE`` is set) every :meth:`span` call
        returns a shared no-op context manager.

    The last :data:`SPAN_BUFFER` finished spans are retained in memory
    (oldest evicted first); :meth:`drain` hands them to whoever
    aggregates (run reports, tests).
    """

    def __init__(self, *, enabled: bool = False):
        self.enabled = enabled
        self._finished: deque[Span] = deque(maxlen=SPAN_BUFFER)
        self._current: contextvars.ContextVar[TraceContext | None] = (
            contextvars.ContextVar("repro_trace_ctx", default=None)
        )

    # ------------------------------------------------------------------
    def current_context(self) -> TraceContext | None:
        """The active span's context in this thread, or ``None``."""
        return self._current.get()

    def carrier(self) -> dict[str, str] | None:
        """The current context as a picklable dict (``None`` when idle)."""
        ctx = self._current.get()
        return ctx.to_carrier() if ctx is not None else None

    @contextmanager
    def adopt(self, carrier: dict[str, str] | None) -> Iterator[None]:
        """Install a remote context (e.g. inside a pool worker).

        Spans opened inside the ``with`` block become children of the
        carrier's span; a ``None`` carrier is a no-op, so call sites need
        no conditional.
        """
        if not self.enabled or carrier is None:
            yield
            return
        token = self._current.set(TraceContext.from_carrier(carrier))
        try:
            yield
        finally:
            self._current.reset(token)

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any):
        """Open a nested span (a context manager).

        Disabled tracers return a shared null context manager — no
        allocation, no clock reads.
        """
        if not self.enabled:
            return _NULL_SPAN
        return self._live_span(name, attrs)

    @contextmanager
    def _live_span(self, name: str, attrs: dict[str, Any]) -> Iterator[Span]:
        parent = self._current.get()
        span = Span(
            name=name,
            trace_id=parent.trace_id if parent else new_trace_id(),
            span_id=_new_span_id(),
            parent_id=parent.span_id if parent else None,
            start_unix=time.time(),
            attrs=attrs,
        )
        token = self._current.set(
            TraceContext(trace_id=span.trace_id, span_id=span.span_id)
        )
        t0 = time.perf_counter()
        try:
            yield span
        finally:
            span.duration_s = time.perf_counter() - t0
            self._current.reset(token)
            self._finished.append(span)

    # ------------------------------------------------------------------
    def record(self, span_dict: dict[str, Any]) -> None:
        """Append a span that finished elsewhere (shipped from a worker)."""
        self._finished.append(
            Span(
                name=span_dict["name"],
                trace_id=span_dict["trace_id"],
                span_id=span_dict["span_id"],
                parent_id=span_dict.get("parent_id"),
                start_unix=span_dict.get("start_unix", 0.0),
                duration_s=span_dict.get("duration_s", 0.0),
                attrs=dict(span_dict.get("attrs", {})),
            )
        )

    def drain(self) -> list[Span]:
        """Remove and return every buffered finished span."""
        out = list(self._finished)
        self._finished.clear()
        return out


#: Process-wide default tracer (enabled via ``$REPRO_VLIW_TRACE``).
TRACER = Tracer(enabled=bool(os.environ.get(TRACE_ENV_VAR)))
