"""JSON-over-HTTP front end for the scheduling service.

A deliberately dependency-free layer: stdlib
:class:`~http.server.ThreadingHTTPServer` (one handler thread per client
connection) over one shared :class:`~repro.service.core.SchedulingService`.
A handler thread validates its request and submits it, which resolves
the request to its scenario point there: a request the service's memo
already answers is answered on the handler thread, and any other waits
for the service's dispatcher.  All scheduling work happens on the
dispatcher/pool, so slow requests never block health checks.

Connections are persistent (HTTP/1.1 keep-alive) and every response
leaves at once, in one write (``TCP_NODELAY``: no response waits for
the client's delayed ACK).  :meth:`ServiceServer.server_close` ends the
connections that sit idle between requests; a request already read
still gets its answer, with ``Connection: close``.  A request whose
body cannot be framed (a malformed ``Content-Length``) or is too large
gets a 400 and the connection closes, since the next request would be
read from the middle of this one.

Routes::

    POST /schedule   one scheduling request        -> result (or job id)
    POST /sweep      {"requests": [...]} batch, or {"grid": name, ...}
    POST /leases     fabric worker claim/renew (see repro.fabric.protocol)
    POST /results    fabric worker result post
    GET  /jobs/<id>  job status + results when done
    GET  /healthz    liveness probe
    GET  /stats      queue / dedupe / cache counters
    GET  /metrics    Prometheus text exposition of the service registry

``POST /schedule`` takes either a ``"kernel"`` (registered workload
name or alias) or an inline ``"program"`` — textual loop-IR source as
accepted by :mod:`repro.ir.frontend` — never both; malformed programs
come back as 400s whose error text carries the parser's
``source:line:col`` location.  ``POST`` bodies accept ``"wait"``
(default ``true``: block until the job completes and inline its
results) and ``"timeout_s"`` (default 300; on expiry the response is
``202`` with the job id, and the client polls ``/jobs/<id>``).  Errors are JSON too: ``{"error": ...}`` with 400 for
malformed requests, 404 for unknown routes/jobs, 503 while shutting
down; the fabric routes add 409 (version mismatch, duplicate post) and
410 (expired or unknown lease) per the protocol's error taxonomy.

Every request is measured into the service's metrics registry
(``repro_http_requests_total{route,code}`` and the
``repro_http_request_duration_seconds{route}`` histogram).  ``POST``
requests carry a trace id: the ``X-Trace-Id`` request header is adopted
when present (32 hex chars) or generated otherwise, attached to the job
(visible in ``/jobs/<id>``), and echoed on the response — so a failed
loadtest request can name the exact server-side job it spawned.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from .. import __version__
from ..fabric.protocol import FabricError
from ..obs.prom import CONTENT_TYPE as PROM_CONTENT_TYPE
from ..obs.prom import render as render_metrics
from ..obs.trace import new_trace_id
from .core import Job, RequestError, ScheduleRequest, SchedulingService, ServiceClosed

#: Default bind address of ``repro-vliw serve``.
DEFAULT_HOST = "127.0.0.1"

#: Default port of ``repro-vliw serve`` (and the client's default).
DEFAULT_PORT = 8537

#: Ceiling on accepted request bodies (a sweep of a few thousand
#: requests fits comfortably; anything bigger is a client bug).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Default seconds a waiting POST blocks before falling back to 202+poll.
DEFAULT_WAIT_TIMEOUT_S = 300.0


class ServiceServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one scheduling service."""

    daemon_threads = True

    def __init__(
        self,
        service: SchedulingService,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        quiet: bool = True,
    ):
        self.service = service
        self.quiet = quiet
        self.http_requests = service.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by route and status code",
            ("route", "code"),
        )
        self.http_seconds = service.metrics.histogram(
            "repro_http_request_duration_seconds",
            "HTTP request handling latency, by route",
            ("route",),
        )
        self._idle: set[socket.socket] = set()
        self._idle_lock = threading.Lock()
        self._closing = False
        super().__init__((host, port), _Handler)

    def _await_request(self, conn: socket.socket) -> bool:
        """Mark *conn* idle until its next request line; False once closing."""
        with self._idle_lock:
            if self._closing:
                return False
            self._idle.add(conn)
            return True

    def _take_idle(self, conn: socket.socket) -> bool:
        """Take *conn* out of the idle set, so :meth:`server_close` leaves
        it alone; False when :meth:`server_close` has already ended it."""
        with self._idle_lock:
            if conn not in self._idle:
                return False
            self._idle.remove(conn)
            return True

    def shutdown_request(self, request: socket.socket) -> None:
        self._take_idle(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listening socket and every idle connection.

        A client holding an idle connection sees it end at once instead
        of reaching a handler thread that outlives the server.
        """
        with self._idle_lock:
            self._closing = True
            idle, self._idle = self._idle, set()
        for conn in idle:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the client closed it first
        super().server_close()

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` ephemeral binds)."""
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"


class _Handler(BaseHTTPRequestHandler):
    server_version = f"repro-vliw-service/{__version__}"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def handle(self) -> None:
        """Serve requests on this connection until either side closes it.

        A client that goes away mid-exchange (a reset, or a pipe broken
        under a response) ends only its own connection, with no traceback.
        """
        self.close_connection = False
        try:
            while not self.close_connection and self.server._await_request(
                self.connection
            ):
                self.handle_one_request()
        except ConnectionError:
            pass

    def parse_request(self) -> bool:
        if not self.server._take_idle(self.connection):
            # server_close() ended the connection as this request came
            # in: no answer can be sent, so the request is not run.
            self.close_connection = True
            return False
        return super().parse_request()

    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", True):  # pragma: no cover
            super().log_message(format, *args)

    @property
    def service(self) -> SchedulingService:
        return self.server.service  # type: ignore[attr-defined]

    def _route_label(self) -> str:
        """The bounded route label for metrics (no per-id cardinality)."""
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path.startswith("/jobs/"):
            return "/jobs"
        if path in (
            "/schedule",
            "/sweep",
            "/leases",
            "/results",
            "/healthz",
            "/stats",
            "/metrics",
        ):
            return path
        return "other"

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._trace_id:
            self.send_header("X-Trace-Id", self._trace_id)
        if self.close_connection or self.server._closing:
            self.send_header("Connection", "close")
        if self.request_version == "HTTP/0.9":  # an answer with no head
            self.wfile.write(body)
        else:
            # end_headers() would write the head alone and leave the body
            # to a second write (wfile is unbuffered): one write, one
            # segment.
            self._headers_buffer.extend((b"\r\n", body))
            self.flush_headers()
        self._status_code = code

    def _send_json(self, code: int, payload: dict[str, Any]) -> None:
        self._send(code, json.dumps(payload).encode(), "application/json")

    def _read_raw_body(self) -> bytes:
        """The request body as declared by ``Content-Length``.

        A malformed or oversized length raises :class:`RequestError` and
        closes the connection after the response: the body is left
        unread, so the next request would be read from inside it.
        """
        text = (self.headers.get("Content-Length") or "0").strip()
        if not (text.isascii() and text.isdigit()):
            self.close_connection = True
            raise RequestError(f"malformed Content-Length {text!r}")
        length = int(text)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise RequestError(
                f"request body too large ({length} > {MAX_BODY_BYTES} bytes)"
            )
        return self.rfile.read(length)

    def _read_body(self) -> dict[str, Any]:
        raw = self._read_raw_body()
        if not raw:
            raise RequestError("a JSON request body is required")
        try:
            data = json.loads(raw)
        except ValueError:
            raise RequestError("request body is not valid JSON") from None
        if not isinstance(data, dict):
            raise RequestError("request body must be a JSON object")
        return data

    # ------------------------------------------------------------------
    def _measured(self, handler) -> None:
        """Run one request handler, recording latency and status code."""
        route = self._route_label()
        self._status_code = 0
        self._trace_id = None  # reset per request (keep-alive reuses handlers)
        t0 = time.perf_counter()
        try:
            handler()
        finally:
            elapsed = time.perf_counter() - t0
            server = self.server
            server.http_seconds.labels(route=route).observe(elapsed)
            server.http_requests.labels(
                route=route, code=str(self._status_code or 500)
            ).inc()

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._measured(self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._measured(self._handle_post)

    def _handle_get(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, self.service.healthz())
        elif path == "/stats":
            self._send_json(200, self.service.stats())
        elif path == "/metrics":
            self._send(
                200, render_metrics(self.service.metrics).encode(), PROM_CONTENT_TYPE
            )
        elif path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            job = self.service.job(job_id)
            if job is None:
                self._send_json(404, {"error": f"unknown job {job_id!r}"})
            else:
                self._send_json(200, job.snapshot())
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def _handle_post(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        if path not in ("/schedule", "/sweep", "/leases", "/results"):
            # Unknown routes are 404 regardless of body validity (and
            # the body must still be drained for HTTP/1.1 keep-alive).
            try:
                self._read_raw_body()
            except RequestError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        self._trace_id = self._request_trace_id()
        try:
            data = self._read_body()
            if path == "/schedule":
                self._post_schedule(data)
            elif path == "/sweep":
                self._post_sweep(data)
            elif path == "/leases":
                self._send_json(200, self.service.fabric_claim(data))
            else:
                self._send_json(200, self.service.fabric_results(data))
        except FabricError as exc:
            self._send_json(exc.http_status, {"error": str(exc)})
        except RequestError as exc:
            self._send_json(400, {"error": str(exc)})
        except ServiceClosed as exc:
            self._send_json(503, {"error": str(exc)})

    def _request_trace_id(self) -> str:
        """The client's ``X-Trace-Id`` when plausible, else a fresh one."""
        supplied = (self.headers.get("X-Trace-Id") or "").strip().lower()
        if supplied and len(supplied) <= 64 and supplied.isalnum():
            return supplied
        return new_trace_id()

    # ------------------------------------------------------------------
    @staticmethod
    def _wait_params(data: dict[str, Any]) -> tuple[bool, float]:
        wait = data.pop("wait", True)
        if not isinstance(wait, bool):
            raise RequestError("'wait' must be true or false")
        timeout = data.pop("timeout_s", DEFAULT_WAIT_TIMEOUT_S)
        if not isinstance(timeout, (int, float)) or timeout <= 0:
            raise RequestError("'timeout_s' must be a positive number")
        return wait, float(timeout)

    def _respond_job(self, job: Job, wait: bool, timeout: float) -> None:
        """Answer with *job*'s snapshot, its status mapped to the code.

        202 when the client does not wait (``wait: false``) or the job
        is still queued or running after *timeout*; 200 once done; 500
        when it failed or was cancelled.  A ``schedule`` job (``POST
        /schedule``) carries its one result as ``result``.
        """
        if wait:
            job.wait(timeout)
        inline = job.kind == "schedule"
        doc = job.snapshot(include_results=wait and not inline)
        if not wait or doc["status"] in ("queued", "running"):
            code = 202  # poll /jobs/<id>
        elif doc["status"] == "done":
            code = 200
            if inline:
                doc["result"] = job.results[0]
        else:  # failed / cancelled
            code = 500
        self._send_json(code, doc)

    def _post_schedule(self, data: dict[str, Any]) -> None:
        wait, timeout = self._wait_params(data)
        request = ScheduleRequest.from_payload(data)
        job = self.service.submit_schedule(request, trace_id=self._trace_id)
        self._respond_job(job, wait, timeout)

    def _post_sweep(self, data: dict[str, Any]) -> None:
        wait, timeout = self._wait_params(data)
        distributed = data.pop("distributed", False)
        if not isinstance(distributed, bool):
            raise RequestError("'distributed' must be true or false")
        grid = data.pop("grid", None)
        if grid is not None:
            if data.get("requests") is not None:
                raise RequestError("'grid' and 'requests' are mutually exclusive")
            quick = data.pop("quick", False)
            if not isinstance(quick, bool):
                raise RequestError("'quick' must be true or false")
            jobs = data.pop("jobs", None)
            if jobs is not None and (
                not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1
            ):
                raise RequestError("'jobs' must be a positive integer")
            unknown = sorted(set(data))
            if unknown:
                raise RequestError(f"unknown request field(s): {unknown}")
            job = self.service.submit_grid(
                grid,
                quick=quick,
                jobs=jobs,
                distributed=distributed,
                trace_id=self._trace_id,
            )
            self._respond_job(job, wait, timeout)
            return
        if distributed:
            raise RequestError("'distributed' requires 'grid'")
        requests = data.pop("requests", None)
        if not isinstance(requests, list) or not requests:
            raise RequestError(
                "'requests' (a non-empty list) or 'grid' is required"
            )
        unknown = sorted(set(data))
        if unknown:
            raise RequestError(f"unknown request field(s): {unknown}")
        parsed = [ScheduleRequest.from_payload(item) for item in requests]
        job = self.service.submit_sweep(parsed, trace_id=self._trace_id)
        self._respond_job(job, wait, timeout)
