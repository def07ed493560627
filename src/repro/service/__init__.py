"""Batch scheduling service: a persistent front end over the runner.

The one-shot CLI pays pool start-up, cold caches and full process
start per invocation.  This package keeps all three warm behind a
JSON-over-HTTP API:

* :mod:`repro.service.core` — validated :class:`ScheduleRequest` work
  units, :class:`Job` lifecycle, and :class:`SchedulingService`: a
  dispatcher thread that coalesces queued jobs into batches, dedupes
  them against the in-process payload memo, and resolves the rest
  through :func:`repro.runner.engine.run_sweep` — the content-addressed
  :class:`~repro.runner.cache.ResultCache`, then one shared
  spawn-context worker pool
  (:func:`repro.runner.engine.execute_points`);
* :mod:`repro.service.server` — the stdlib ``ThreadingHTTPServer``
  adapter (``POST /schedule``, ``POST /sweep``, ``GET /jobs/<id>``,
  ``GET /healthz``, ``GET /stats``);
* :mod:`repro.service.client` — the ``http.client`` client (one
  persistent connection per calling thread) and the
  ``repro-vliw loadtest`` driver (p50/p95 latency, cache-hit rate,
  byte-identity verification against the direct execution path).

CLI: ``repro-vliw serve`` / ``submit`` / ``loadtest``.  See
``docs/API.md`` for the wire format and ``docs/ARCHITECTURE.md`` for
how the service layers over the runner.
"""

from .client import (
    ClientError,
    LoadtestReport,
    ServiceClient,
    default_mix,
    run_loadtest,
)
from .core import (
    Job,
    RequestError,
    ScheduleRequest,
    SchedulingService,
    ServiceClosed,
    reference_payload,
)
from .server import DEFAULT_HOST, DEFAULT_PORT, ServiceServer

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ClientError",
    "Job",
    "LoadtestReport",
    "RequestError",
    "ScheduleRequest",
    "SchedulingService",
    "ServiceClient",
    "ServiceClosed",
    "ServiceServer",
    "default_mix",
    "reference_payload",
    "run_loadtest",
]
