"""The fabric worker: pull shards, execute, post results, repeat.

A :class:`FabricWorker` is the whole client side of the fabric protocol
in one loop: claim a lease (``POST /leases``), execute the shard's
points one at a time through the exact same batch core the local
``--jobs`` path uses (:func:`~repro.runner.engine._run_batch`, with one
schedule memo per family across the lease's points, and each loop
decoded once per sweep), renewing the lease between points when a
heartbeat is due, and post the shard's results (``POST /results``).
Because the worker runs the same code version as the coordinator
(enforced at claim time) and the same deterministic per-point
scheduler, whatever it computes is byte-identical to what any other
worker — or the local path — would have computed for the same points.

The loop is software-pipelined, the way a modulo schedule starts
iteration i+1 before iteration i ends.  Once shard k has run, the
worker reads the verdict (the coordinator's reply) on shard k-1's post,
claims shard k+1, sends shard k's post without waiting, and runs shard
k+1 while the coordinator decodes, verifies and commits shard k::

    run k | verdict k-1 | claim k+1 | send k | run k+1 | verdict k | ...

Every verdict is read before the worker's next request of any kind
(claim, renewal or post) and before it exits or dies, so its one
connection never carries more than one outstanding request, and no
thread is started.

A worker keeps every loop it decodes, with the memos derived from its
graph, while its leases come from one sweep (the lease reply's
``sweep`` id), so each loop of a sweep is decoded and analysed once
per worker, not once per family.  A kept loop is reused only when its
document equals the shipped one; a lease from another sweep starts an
empty map, which bounds what is kept to one sweep's loops.

Failure handling is deliberately boring: a lost or expired lease
(HTTP 410) just drops the shard on the floor, because the coordinator
has already re-issued it; a duplicate-post conflict (409) is counted
and ignored, because first-write-wins upstream means someone else's
identical bytes already landed.  :class:`ChaosWorker` in the test tree
overrides the post's two halves (:meth:`FabricWorker._send_results` and
:meth:`FabricWorker._read_verdict`) to inject every one of those
failures on purpose.

``repro-vliw worker --coordinator URL`` wraps this class; ``--fail-after
N`` makes it die (raise :class:`WorkerDied`) after executing N points,
which is how CI kills a worker mid-shard without any process gymnastics.
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass
from typing import Any, Callable
from urllib.parse import urlsplit

from ..errors import ServiceError
from ..runner.cache import default_code_version
from ..runner.engine import LoopMap, _run_batch
from ..service.client import ClientError, PendingReply, ServiceClient
from ..service.server import DEFAULT_HOST, DEFAULT_PORT
from .protocol import PROTOCOL_VERSION

__all__ = ["FabricWorker", "WorkerDied", "WorkerStats", "client_from_url"]


class WorkerDied(ServiceError):
    """Injected worker death (``--fail-after``); the lease is abandoned."""


def client_from_url(url: str, *, timeout: float = 120.0) -> ServiceClient:
    """A :class:`ServiceClient` for a coordinator URL.

    Accepts ``http://host:port``, ``host:port`` or bare ``host`` (the
    default port fills the gaps).  Anything that is not plain HTTP is
    rejected — the fabric speaks the service's JSON-over-HTTP only.
    """
    raw = url if "//" in url else f"http://{url}"
    parts = urlsplit(raw)
    if parts.scheme not in ("", "http"):
        raise ValueError(f"unsupported coordinator URL scheme {parts.scheme!r}")
    return ServiceClient(
        parts.hostname or DEFAULT_HOST,
        parts.port or DEFAULT_PORT,
        timeout=timeout,
    )


@dataclass
class WorkerStats:
    """What one worker run did, for logs and test assertions."""

    worker: str
    shards: int = 0
    points: int = 0
    posted: int = 0
    duplicates: int = 0
    renewals: int = 0
    lost_leases: int = 0
    rejected_posts: int = 0
    idle_polls: int = 0

    def render(self) -> str:
        return (
            f"worker {self.worker}: {self.shards} shard(s), "
            f"{self.points} point(s) executed, {self.posted} accepted, "
            f"{self.duplicates} duplicate(s), {self.renewals} renewal(s), "
            f"{self.lost_leases} lost lease(s), "
            f"{self.rejected_posts} rejected post(s)"
        )


class FabricWorker:
    """One pull-based sweep worker (the ``repro-vliw worker`` loop).

    Parameters
    ----------
    coordinator:
        Coordinator URL (``http://host:port``) or a ready
        :class:`~repro.service.client.ServiceClient`.
    worker_id:
        Stable identity in leases/stats; defaults to pid + random suffix.
    code_version:
        Cache code version announced at claim time; defaults to this
        process's :func:`~repro.runner.cache.default_code_version` —
        override only to *test* the mismatch rejection.
    max_shards:
        Stop after completing this many shards (``--max-shards``).
    fail_after:
        Die (raise :class:`WorkerDied`) after executing this many points
        — possibly mid-shard, which is the point (``--fail-after``).
    idle_exit_s:
        Exit cleanly after this long with no work on offer; ``None``
        polls forever (until the coordinator goes away).  Between idle
        polls the worker sleeps for the reply's ``retry_s``.
    progress:
        Optional ``callable(str)`` for per-shard progress lines.
    """

    def __init__(
        self,
        coordinator: str | ServiceClient,
        *,
        worker_id: str | None = None,
        code_version: str | None = None,
        max_shards: int | None = None,
        fail_after: int | None = None,
        idle_exit_s: float | None = None,
        timeout: float = 120.0,
        wait_healthy_s: float = 10.0,
        progress: Callable[[str], None] | None = None,
    ):
        if isinstance(coordinator, ServiceClient):
            self.client = coordinator
        else:
            self.client = client_from_url(coordinator, timeout=timeout)
        self.worker_id = worker_id or f"w-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.code_version = code_version or default_code_version()
        self.max_shards = max_shards
        self.fail_after = fail_after
        self.idle_exit_s = idle_exit_s
        self.wait_healthy_s = wait_healthy_s
        self.progress = progress
        self.stats = WorkerStats(worker=self.worker_id)
        self._executed = 0
        #: ``(lease doc, reply)`` of the post whose verdict is unread.
        self._pending: tuple[dict[str, Any], PendingReply] | None = None
        #: The sweep of the last lease, and the loops decoded for it.
        self._sweep: str | None = None
        self._loops: LoopMap = {}

    # ------------------------------------------------------------------
    def run(self) -> WorkerStats:
        """Pull and execute shards until there is a reason to stop.

        Stops cleanly on ``max_shards``, ``idle_exit_s`` or coordinator
        shutdown (503/transport failure once healthy).  Raises
        :class:`WorkerDied` on injected death and :class:`ClientError`
        on fatal protocol errors (e.g. 409 code-version mismatch, or an
        error verdict other than 409/410 on a post).  The verdict on the
        last post is read before it returns or dies, and either way the
        client's connection to the coordinator is closed.
        """
        try:
            if not self.client.wait_until_healthy(timeout=self.wait_healthy_s):
                raise ClientError(
                    0, f"coordinator {self.client.base_url} never became healthy"
                )
            self._say(f"worker {self.worker_id} pulling from {self.client.base_url}")
            self._pull()
            return self.stats
        finally:
            self.client.close()

    def _pull(self) -> None:
        idle_since: float | None = None
        doc = self._claim()
        while doc is not None:
            if doc.get("lease"):
                idle_since = None
                doc = self._run_lease(doc)
                continue
            # Nothing to run before the next poll: read the verdict now.
            self._settle()
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            if self.idle_exit_s is not None and now - idle_since >= self.idle_exit_s:
                self._say(f"idle for {self.idle_exit_s:g}s; exiting")
                break
            self.stats.idle_polls += 1
            time.sleep(doc["retry_s"])
            doc = self._claim()
        self._settle()

    def _run_lease(self, doc: dict[str, Any]) -> dict[str, Any] | None:
        """Run shard k and hand over its post; returns the next claim's reply.

        Shard k+1 is claimed *before* shard k's results are sent, so
        the worker executes k+1 while the coordinator decodes, verifies
        and commits k; the verdict on k is read before the next request.
        """
        results = self._execute_shard(doc)
        if results is None:
            return self._claim()  # lease lost mid-shard; the coordinator re-issues
        self.stats.shards += 1
        following = self._claim()
        self._pending = (doc, self._send_results(doc, results))
        self._say(
            f"lease {doc['lease']}: {len(results)} point(s) done "
            f"({self.stats.shards} shard(s) total)"
        )
        return following

    def _claim(self) -> dict[str, Any] | None:
        """``POST /leases`` for the next shard; ``None`` means stop."""
        self._settle()
        if self.max_shards is not None and self.stats.shards >= self.max_shards:
            self._say(f"reached --max-shards {self.max_shards}; exiting")
            return None
        try:
            return self.client.lease(
                {
                    "protocol": PROTOCOL_VERSION,
                    "worker": self.worker_id,
                    "code_version": self.code_version,
                }
            )
        except ClientError as exc:
            if exc.status in (0, 503):
                # Coordinator shutting down (or gone): a clean stop.
                self._say(f"coordinator unavailable ({exc}); exiting")
                return None
            raise

    def _execute_shard(
        self, doc: dict[str, Any]
    ) -> list[dict[str, Any]] | None:
        """Execute the leased items; ``None`` means the lease was lost."""
        heartbeat = float(doc.get("heartbeat_s") or 1.0)
        last_beat = time.monotonic()
        results: list[dict[str, Any]] = []
        memos: dict = {}  # a family's policy points share their schedules
        if doc.get("sweep") != self._sweep:
            # A kept loop is reused only when its document equals the
            # shipped one; the sweep id only bounds what is kept.
            self._sweep, self._loops = doc.get("sweep"), {}
        for item in doc["shard"]:
            if self.fail_after is not None and self._executed >= self.fail_after:
                self._settle()  # the last post's verdict is read first
                raise WorkerDied(
                    f"worker {self.worker_id}: injected failure after "
                    f"{self._executed} point(s) (--fail-after)"
                )
            if time.monotonic() - last_beat >= heartbeat:
                if not self._renew(doc):
                    return None
                last_beat = time.monotonic()
            # One-point batches keep heartbeats timely and make injected
            # deaths land *between* points, i.e. genuinely mid-shard.
            (_key, payload, meta) = _run_batch(
                [item], None, None, doc.get("trace"), memos, self._loops
            )[0]
            self._executed += 1
            self.stats.points += 1
            results.append(
                {"point": item["point"], "result": payload, "meta": meta}
            )
        return results

    def _renew(self, doc: dict[str, Any]) -> bool:
        self._settle()
        try:
            self.client.lease(
                {
                    "protocol": PROTOCOL_VERSION,
                    "worker": self.worker_id,
                    "renew": doc["lease"],
                }
            )
        except ClientError as exc:
            if exc.status in (0, 410):
                self.stats.lost_leases += 1
                self._say(f"lease {doc['lease']} lost ({exc}); dropping shard")
                return False
            raise
        self.stats.renewals += 1
        return True

    # ------------------------------------------------------------------
    # The post of a shard's results: sent, then its verdict read later.
    # ------------------------------------------------------------------
    def _send_results(
        self, doc: dict[str, Any], results: list[dict[str, Any]]
    ) -> PendingReply:
        """Send ``POST /results`` for a shard without waiting for the verdict."""
        return self.client.results(
            {
                "protocol": PROTOCOL_VERSION,
                "worker": self.worker_id,
                "lease": doc["lease"],
                "code_version": self.code_version,
                "results": results,
            },
            wait=False,
        )

    def _read_verdict(self, doc: dict[str, Any], reply: PendingReply) -> int | None:
        """Read and count a post's verdict.

        Returns ``None`` when the post was accepted and the status of a
        409/410 rejection otherwise; any other error verdict raises.
        """
        try:
            verdict = reply.read()
        except ClientError as exc:
            if exc.status not in (409, 410):
                raise
            # Someone else's identical bytes won, or we outlived the
            # lease: either way the sweep is fine without this post.
            self.stats.rejected_posts += 1
            self._say(f"post for lease {doc['lease']} rejected ({exc})")
            return exc.status
        self.stats.posted += int(verdict.get("accepted", 0))
        self.stats.duplicates += int(verdict.get("duplicates", 0))
        return None

    def _settle(self) -> None:
        """Read the verdict on the last post if it is still unread."""
        if self._pending is not None:
            doc, reply = self._pending
            self._pending = None
            self._read_verdict(doc, reply)

    def _say(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)
