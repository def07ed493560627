"""Thin HTTP client for the scheduling service, plus the loadtest driver.

:class:`ServiceClient` wraps the JSON API with stdlib ``http.client``
(no new dependencies): one persistent connection per calling thread,
reused across calls, each request sent in one write.  It raises
:class:`ClientError` carrying the HTTP status and the server's ``error``
message.  Every call sends its request and then reads the reply;
``results(payload, wait=False)`` returns the unread reply as a
:class:`PendingReply`, so a fabric worker can compute while the
coordinator handles its post.

:func:`run_loadtest` is the synthetic-traffic harness behind
``repro-vliw loadtest``: N concurrent clients replay a deterministic mix
of scheduling scenarios against a running server and the report carries
p50/p95 latency, success rate and cache-hit rate.  With ``verify`` on
(the default) every distinct scenario's response is additionally diffed
byte-for-byte against the direct in-process execution path
(:func:`repro.service.core.reference_payload`) — the service must be a
cache, never a different compiler.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..errors import ServiceError
from ..obs.metrics import LATENCY_BUCKETS_S, _format_bound
from ..obs.report import _percentile
from ..obs.trace import new_trace_id
from .core import ScheduleRequest, reference_payload
from .server import DEFAULT_HOST, DEFAULT_PORT

__all__ = [
    "ClientError",
    "LoadtestReport",
    "PendingReply",
    "ServiceClient",
    "default_mix",
    "run_loadtest",
]


class ClientError(ServiceError):
    """An HTTP request to the service failed (transport or server side)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        #: HTTP status code; ``0`` for transport-level failures.
        self.status = status


class _Connection(http.client.HTTPConnection):
    """An ``HTTPConnection`` that sends a request's head and body in one
    write.  The stock one sends them as two, and under ``TCP_NODELAY``
    each write is a segment of its own and a wake-up of the server."""

    def _send_output(self, message_body=None, encode_chunked=False):
        if encode_chunked or not isinstance(message_body, bytes):
            return super()._send_output(message_body, encode_chunked)
        self._buffer.extend((b"", message_body))
        message = b"\r\n".join(self._buffer)
        del self._buffer[:]
        self.send(message)


class PendingReply:
    """The unread reply to a request sent without waiting.

    :meth:`read` it on the thread that sent the request, before that
    thread's next request: a connection carries at most one outstanding
    request, and the client refuses to send another until this one's
    reply is read.
    """

    def __init__(self, client: "ServiceClient", conn: http.client.HTTPConnection):
        self._client = client
        self._conn = conn

    def read(self) -> dict[str, Any]:
        """The reply's JSON body; raises :class:`ClientError` as a call would."""
        return self._client._read(self._conn)


class ServiceClient:
    """JSON-over-HTTP client for one ``repro-vliw serve`` instance.

    Each thread that calls it gets one persistent connection, reused
    across calls.  A connection the server closed while it sat idle is
    reopened before the next request; a request is never sent twice, so
    a transport failure once it may have reached the server is a
    :class:`ClientError` with status 0.  :meth:`close` ends every
    connection this client opened.  A thread with an unread
    :class:`PendingReply` sends nothing until it reads it.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        timeout: float = 120.0,
    ):
        self.host = host
        self.port = port
        self.base_url = f"http://{host}:{port}"
        self.timeout = timeout
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close every connection this client opened (a later call reopens).

        A reply this thread left unread is dropped with its connection.
        """
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()
        self._local.unread = False

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection, ready to carry one request."""
        if getattr(self._local, "unread", False):
            # The readiness check below would take the reply for EOF.
            raise RuntimeError(
                f"{self.base_url}: read the pending reply before the next request"
            )
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = _Connection(self.host, self.port, timeout=self.timeout)
            self._local.conn = conn
            with self._lock:
                self._connections.append(conn)
        elif conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            # An idle connection has nothing to read unless the server
            # closed it (EOF): reopen before sending.
            conn.close()
        return conn

    # ------------------------------------------------------------------
    def _call(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
        *,
        headers: dict[str, str] | None = None,
    ) -> dict[str, Any]:
        return self._send(method, path, payload, headers=headers).read()

    def _send(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
        *,
        headers: dict[str, str] | None = None,
    ) -> PendingReply:
        """Send one request on this thread's connection; its reply is unread."""
        data = json.dumps(payload).encode() if payload is not None else None
        request_headers = {"Content-Type": "application/json"}
        if headers:
            request_headers.update(headers)
        conn = self._connection()
        try:
            conn.request(method, path, body=data, headers=request_headers)
        except (OSError, http.client.HTTPException) as exc:
            raise self._transport_error(conn, exc) from None
        self._local.unread = True
        return PendingReply(self, conn)

    def _read(self, conn: http.client.HTTPConnection) -> dict[str, Any]:
        """Read the reply to the request this thread sent on *conn*."""
        self._local.unread = False
        try:
            resp = conn.getresponse()
            body = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            raise self._transport_error(conn, exc) from None
        if not 200 <= resp.status < 300:
            try:
                message = json.loads(body)["error"]
            except (ValueError, KeyError, TypeError):
                message = body.decode(errors="replace") or resp.reason
            raise ClientError(resp.status, f"HTTP {resp.status}: {message}")
        return json.loads(body or b"{}")

    def _transport_error(
        self, conn: http.client.HTTPConnection, exc: Exception
    ) -> ClientError:
        # Status 0 means the transport failed, not the request: the
        # server is gone, refused the connection, or closed it
        # mid-response (e.g. coordinator shutdown under a polling
        # fabric worker).
        conn.close()
        return ClientError(0, f"{self.base_url}: {type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        return self._call("GET", "/healthz")

    def stats(self) -> dict[str, Any]:
        return self._call("GET", "/stats")

    def lease(self, payload: dict[str, Any]) -> dict[str, Any]:
        """``POST /leases`` — fabric worker claim/renew (raw protocol body)."""
        return self._call("POST", "/leases", payload)

    def results(
        self, payload: dict[str, Any], *, wait: bool = True
    ) -> dict[str, Any] | PendingReply:
        """``POST /results`` — fabric worker result post (raw protocol body).

        With ``wait=False`` the post is sent and its verdict returned
        unread, as a :class:`PendingReply`.
        """
        reply = self._send("POST", "/results", payload)
        return reply.read() if wait else reply

    def job(self, job_id: str) -> dict[str, Any]:
        return self._call("GET", f"/jobs/{job_id}")

    def _server_wait_budget(self) -> float:
        """Server-side wait that keeps the 202+poll fallback reachable.

        The server must give up waiting *before* this client's HTTP
        timeout fires, otherwise a slow job kills the transport and the
        caller loses the job id it would need to poll.
        """
        return max(1.0, self.timeout - 5.0)

    def schedule(
        self, request: dict[str, Any] | ScheduleRequest, *, wait: bool = True,
        timeout_s: float | None = None, trace_id: str | None = None,
    ) -> dict[str, Any]:
        """``POST /schedule``; returns the server's JSON response.

        *trace_id* (when given) is sent as ``X-Trace-Id`` and adopted by
        the server, so the caller can later find the job it spawned.
        """
        payload = (
            request.to_dict()
            if isinstance(request, ScheduleRequest)
            else dict(request)
        )
        payload["wait"] = wait
        payload["timeout_s"] = (
            timeout_s if timeout_s is not None else self._server_wait_budget()
        )
        headers = {"X-Trace-Id": trace_id} if trace_id else None
        return self._call("POST", "/schedule", payload, headers=headers)

    def sweep(
        self,
        requests: list[dict[str, Any] | ScheduleRequest] | None = None,
        *,
        grid: str | None = None,
        quick: bool = False,
        jobs: int | None = None,
        distributed: bool = False,
        wait: bool = True,
        timeout_s: float | None = None,
    ) -> dict[str, Any]:
        """``POST /sweep`` — a batch of requests or a named grid.

        *distributed* (grids only) runs the grid's misses on the
        server's fabric workers instead of its local pool.
        """
        payload: dict[str, Any] = {
            "wait": wait,
            "timeout_s": (
                timeout_s if timeout_s is not None else self._server_wait_budget()
            ),
        }
        if grid is not None:
            payload["grid"] = grid
            payload["quick"] = quick
            if jobs is not None:
                payload["jobs"] = jobs
            if distributed:
                payload["distributed"] = True
        else:
            payload["requests"] = [
                r.to_dict() if isinstance(r, ScheduleRequest) else dict(r)
                for r in (requests or [])
            ]
        return self._call("POST", "/sweep", payload)

    def poll_job(
        self, job_id: str, *, timeout: float = 300.0, interval: float = 0.05
    ) -> dict[str, Any]:
        """Poll ``/jobs/<id>`` until the job finishes (or raise on timeout)."""
        deadline = time.monotonic() + timeout
        while True:
            doc = self.job(job_id)
            if doc["status"] in ("done", "failed", "cancelled"):
                return doc
            if time.monotonic() >= deadline:
                raise ClientError(0, f"job {job_id} still {doc['status']!r}")
            time.sleep(interval)

    def wait_until_healthy(
        self, *, timeout: float = 15.0, interval: float = 0.1
    ) -> bool:
        """True once ``/healthz`` answers; False if *timeout* elapses."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                self.healthz()
                return True
            except ClientError:
                time.sleep(interval)
        return False


# ---------------------------------------------------------------------------
# Loadtest
# ---------------------------------------------------------------------------
def default_mix() -> list[dict[str, Any]]:
    """The deterministic scenario mix loadtests replay.

    Eight hand-written kernels on two clustered machine shapes — 16
    distinct scenarios, so a 64-request loadtest exercises dedupe (4
    requests per scenario) without collapsing to a single cache line.
    """
    kernels = (
        "daxpy", "dot", "fir4", "hydro",
        "stencil3", "stencil5", "tridiag", "vadd",
    )
    machines = ((4, 1, 1), (2, 1, 1))
    return [
        {
            "kernel": kernel,
            "clusters": clusters,
            "buses": buses,
            "latency": latency,
        }
        for kernel in kernels
        for (clusters, buses, latency) in machines
    ]


@dataclass
class LoadtestReport:
    """Outcome of one :func:`run_loadtest` run."""

    clients: int
    requests: int
    successes: int
    duration_s: float
    latencies_s: list[float] = field(default_factory=list)
    cache_hits: int = 0
    errors: list[str] = field(default_factory=list)
    verified: int = 0
    mismatches: list[str] = field(default_factory=list)
    #: One entry per failed request or mismatched scenario, carrying the
    #: trace id the request was sent with (matches the server-side job).
    failures: list[dict[str, Any]] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        return self.successes / self.requests if self.requests else 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.successes if self.successes else 0.0

    @property
    def p50_s(self) -> float:
        return _percentile(sorted(self.latencies_s), 0.50)

    @property
    def p95_s(self) -> float:
        return _percentile(sorted(self.latencies_s), 0.95)

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.duration_s if self.duration_s else 0.0

    @property
    def ok(self) -> bool:
        """100% success and no byte-identity mismatches."""
        return self.successes == self.requests and not self.mismatches

    def latency_histogram(self) -> dict[str, Any]:
        """Cumulative latency histogram over the standard bucket ladder.

        Same bucket bounds as the server's
        ``repro_http_request_duration_seconds`` histogram, so client-side
        and server-side latency distributions line up bucket for bucket.
        """
        ordered = sorted(self.latencies_s)
        buckets = []
        cumulative = 0
        i = 0
        for bound in LATENCY_BUCKETS_S:
            while i < len(ordered) and ordered[i] <= bound:
                i += 1
            cumulative = i
            buckets.append({"le": _format_bound(bound), "count": cumulative})
        buckets.append({"le": "+Inf", "count": len(ordered)})
        return {
            "buckets": buckets,
            "count": len(ordered),
            "sum_s": sum(ordered),
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "clients": self.clients,
            "requests": self.requests,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "cache_hits": self.cache_hits,
            "hit_rate": self.hit_rate,
            "p50_ms": self.p50_s * 1e3,
            "p95_ms": self.p95_s * 1e3,
            "throughput_rps": self.throughput_rps,
            "duration_s": self.duration_s,
            "verified": self.verified,
            "mismatches": self.mismatches,
            "errors": self.errors[:10],
            "failures": self.failures,
            "latency_histogram": self.latency_histogram(),
        }

    def render(self) -> str:
        """Human-readable summary (the ``repro-vliw loadtest`` output)."""
        lines = [
            f"loadtest: {self.requests} request(s) over "
            f"{self.clients} client(s) in {self.duration_s:.2f}s "
            f"({self.throughput_rps:.1f} req/s)",
            f"  success:    {self.successes}/{self.requests} "
            f"({self.success_rate:.1%})",
            f"  latency:    p50 {self.p50_s * 1e3:.1f}ms, "
            f"p95 {self.p95_s * 1e3:.1f}ms",
            f"  cache hits: {self.cache_hits}/{self.successes} "
            f"({self.hit_rate:.1%})",
        ]
        if self.verified or self.mismatches:
            lines.append(
                f"  verified:   {self.verified} scenario(s) byte-identical "
                f"to the direct path, {len(self.mismatches)} mismatch(es)"
            )
        for err in self.errors[:5]:
            lines.append(f"  error: {err}")
        return "\n".join(lines)


def run_loadtest(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    *,
    clients: int = 8,
    requests: int = 64,
    mix: list[dict[str, Any]] | None = None,
    verify: bool = True,
    timeout: float = 120.0,
) -> LoadtestReport:
    """Drive *requests* scheduling requests from *clients* threads.

    Request *i* replays ``mix[i % len(mix)]``; requests are dealt
    round-robin across client threads, so the traffic — and therefore
    the server-side dedupe opportunity — is a pure function of
    ``(clients, requests, mix)``.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    mix = mix if mix is not None else default_mix()
    assignments: list[list[tuple[int, dict[str, Any]]]] = [
        [] for _ in range(min(clients, requests))
    ]
    for i in range(requests):
        assignments[i % len(assignments)].append((i, mix[i % len(mix)]))

    lock = threading.Lock()
    latencies: list[float] = []
    errors: list[str] = []
    failures: list[dict[str, Any]] = []
    hits = 0
    successes = 0
    # One (result, trace_id) per distinct scenario, for verification.
    responses: dict[str, tuple[dict[str, Any], str]] = {}

    def worker(batch: list[tuple[int, dict[str, Any]]]) -> None:
        nonlocal hits, successes
        client = ServiceClient(host, port, timeout=timeout)
        for index, payload in batch:
            trace_id = new_trace_id()
            t0 = time.perf_counter()
            try:
                doc = client.schedule(payload, trace_id=trace_id)
                elapsed = time.perf_counter() - t0
                result = doc["result"]
            except (ServiceError, KeyError) as exc:
                with lock:
                    errors.append(f"request {index}: {exc}")
                    failures.append(
                        {
                            "kind": "error",
                            "request": index,
                            "trace_id": trace_id,
                            "detail": str(exc),
                        }
                    )
                continue
            with lock:
                latencies.append(elapsed)
                successes += 1
                hits += bool(result.get("cached"))
                responses.setdefault(
                    json.dumps(payload, sort_keys=True), (result, trace_id)
                )
        client.close()

    threads = [
        threading.Thread(target=worker, args=(batch,), daemon=True)
        for batch in assignments
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - t0

    verified = 0
    mismatches: list[str] = []
    if verify:
        for key, (result, trace_id) in sorted(responses.items()):
            request = ScheduleRequest.from_payload(json.loads(key))
            expected = reference_payload(request)
            if result.get("rendered") == expected["rendered"]:
                verified += 1
            else:
                scenario = (
                    f"{request.kernel} on {request.clusters}c/"
                    f"{request.buses}b/l{request.latency}"
                )
                mismatches.append(
                    f"{scenario}: rendered schedule "
                    "differs from the direct execution path"
                )
                failures.append(
                    {
                        "kind": "mismatch",
                        "scenario": scenario,
                        "trace_id": trace_id,
                        "detail": "rendered schedule differs from the "
                        "direct execution path",
                    }
                )

    return LoadtestReport(
        clients=clients,
        requests=requests,
        successes=successes,
        duration_s=duration,
        latencies_s=latencies,
        cache_hits=hits,
        errors=errors,
        verified=verified,
        mismatches=mismatches,
        failures=failures,
    )
