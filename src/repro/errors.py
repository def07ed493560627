"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(ReproError):
    """A dependence graph is malformed (unknown node, bad edge, ...)."""


class WorkloadError(ReproError, KeyError):
    """A workload name, alias or parametrisation cannot be resolved.

    Also subclasses :class:`KeyError`, so a failed lookup can be caught
    like any missing mapping key.  ``suggestion`` carries a did-you-mean
    candidate when one is close enough to print.
    """

    def __init__(self, message: str, *, suggestion: str | None = None):
        super().__init__(message)
        self.suggestion = suggestion

    def __str__(self) -> str:
        # KeyError.__str__ repr()s the message; restore plain text and
        # append the did-you-mean hint when there is one.
        message = self.args[0] if self.args else ""
        if self.suggestion:
            return f"{message} (did you mean {self.suggestion!r}?)"
        return str(message)


class ParseError(ReproError):
    """A textual loop-IR program is malformed (:mod:`repro.ir.frontend`).

    Carries the 1-based ``line`` and ``col`` of the offending token and
    the ``source`` label (file name or ``<string>``); the rendered
    message always leads with ``source:line:col`` so editors and CI logs
    can jump straight to the problem.
    """

    def __init__(
        self, message: str, *, source: str = "<loop>", line: int = 0, col: int = 0
    ):
        super().__init__(f"{source}:{line}:{col}: {message}")
        self.source = source
        self.line = line
        self.col = col


class ConfigError(ReproError):
    """A machine configuration is inconsistent or unsupported."""


class SchedulingError(ReproError):
    """A scheduler could not produce a valid schedule within its II budget."""

    def __init__(self, message: str, *, ii_tried: int | None = None):
        super().__init__(message)
        #: Largest initiation interval attempted before giving up, if known.
        self.ii_tried = ii_tried


class ExactTimeout(SchedulingError):
    """The exact scheduler's search exceeded its size or time budget.

    Subclasses :class:`SchedulingError` so the experiment harness treats a
    blown budget like any other scheduling failure (fall back to the list
    schedule, flag the point) instead of crashing a runner worker; callers
    that care about the distinction — the gap experiment, the differential
    tests — catch this type specifically.
    """


class VerificationError(ReproError):
    """An independently checked schedule violated a correctness invariant."""


class ServiceError(ReproError):
    """Base class for scheduling-service failures (:mod:`repro.service`).

    Subclasses distinguish malformed requests (client's fault, HTTP 400),
    submissions to a closing service (HTTP 503) and client-side transport
    errors; all stay catchable under :class:`ReproError`.
    """


class SimulationError(ReproError):
    """Cycle-accurate execution of emitted code hit an impossible state.

    Raised by :mod:`repro.sim` when the dynamic machine state contradicts
    the schedule: an operation reading a value before its producer's
    latency has elapsed, a bus transfer starting before its source value
    exists, or two transfers contending for the same bus cycle.  Unlike
    :class:`VerificationError` (a static check), this is caught while
    actually executing the prologue/kernel/epilogue code.
    """
