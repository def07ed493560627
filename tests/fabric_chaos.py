"""Fault-injection harness for the distributed sweep fabric.

:class:`ChaosWorker` is a :class:`~repro.fabric.worker.FabricWorker`
that misbehaves on purpose, one failure mode per knob:

* ``fail_after=N`` (inherited) — die mid-shard after executing N points,
  leaving the lease to expire;
* ``stall_before_post_s=S`` — execute the shard, then sit on the results
  past the lease deadline before posting (the classic zombie straggler:
  the post must bounce with 410 and the re-issued copy must win);
* ``double_post=True`` — post every shard's results twice (the second
  post must bounce with 409 and change nothing);
* ``corrupt=fn`` — post ``fn(results)`` instead of the honest payload
  (the coordinator must reject the whole post with 400 and commit
  nothing); ``corrupt_recover=True`` follows up with the honest post, so
  the sweep still completes through this worker.  ``corrupt=swap_cycles``
  is the lying worker: a well-formed post whose schedules are wrong.

The injections sit on the worker's two post hooks: the send
(:meth:`~repro.fabric.worker.FabricWorker._send_results`) and the
verdict (:meth:`~repro.fabric.worker.FabricWorker._read_verdict`), so a
chaos worker pipelines like an honest one, reading each verdict before
its next request.  Every injected failure and every server rejection is
counted in :attr:`ChaosWorker.chaos`, so property tests can assert both
sides: the fault actually happened, *and* the coordinator converged to
the complete, byte-identical result set anyway.

:func:`spawn` runs workers on daemon threads with captured outcomes;
:func:`drain` finishes a sweep through the coordinator's direct API
(no HTTP) — the reliable mop-up worker that makes convergence
assertions deterministic.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.fabric.coordinator import FabricCoordinator
from repro.fabric.protocol import PROTOCOL_VERSION, FabricGone
from repro.fabric.worker import FabricWorker, WorkerStats
from repro.runner.engine import _run_batch
from repro.service.client import ClientError, PendingReply


#: Index of the cycle in an operation row ``[node, cycle, cluster, fu_index]``.
CYCLE = 1


def swap_cycles(results: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """A lying worker's post: every result well-formed, but in each
    schedule the earliest and the latest operation trade cycles."""
    lied = json.loads(json.dumps(results))
    for item in lied:
        ops = item["result"]["schedule"]["operations"]
        first = min(ops, key=lambda op: op[CYCLE])
        last = max(ops, key=lambda op: op[CYCLE])
        first[CYCLE], last[CYCLE] = last[CYCLE], first[CYCLE]
    return lied


# Point-result payloads (or cache entries) with one row of the wrong
# shape: each must be a cache miss, a raise from a pool return and a 400
# on a fabric post.
def operation_row_not_a_list(result: dict[str, Any]) -> dict[str, Any]:
    """The first operation as a record (the layout before rows)."""
    ops = result["schedule"]["operations"]
    ops[0] = dict(zip(("node", "cycle", "cluster", "fu_index"), ops[0]))
    return result


def operation_row_too_short(result: dict[str, Any]) -> dict[str, Any]:
    result["schedule"]["operations"][0].pop()
    return result


def communication_row_too_short(result: dict[str, Any]) -> dict[str, Any]:
    result["schedule"]["communications"].append([0, 0, 0, 0])
    return result


def attempt_log_row_too_short(result: dict[str, Any]) -> dict[str, Any]:
    """Three counts: a log row that a lenient decoder would pad with 0."""
    result["schedule"]["attempt_failures"].append([0, 0, 0])
    return result


MISSHAPEN_ROWS = (
    operation_row_not_a_list,
    operation_row_too_short,
    communication_row_too_short,
    attempt_log_row_too_short,
)


@dataclass
class ChaosStats:
    """What a :class:`ChaosWorker` injected and what bounced back."""

    stalls: int = 0
    double_posts: int = 0
    corrupt_posts: int = 0
    #: HTTP statuses of rejected chaos posts, in order (409, 410, 400...).
    rejections: list[int] = field(default_factory=list)


class ChaosWorker(FabricWorker):
    """A fabric worker with configurable fault injection (see module doc)."""

    def __init__(
        self,
        coordinator,
        *,
        stall_before_post_s: float | None = None,
        double_post: bool = False,
        corrupt: Callable[[list[dict[str, Any]]], list[dict[str, Any]]]
        | None = None,
        corrupt_recover: bool = False,
        **kwargs: Any,
    ):
        super().__init__(coordinator, **kwargs)
        self.stall_before_post_s = stall_before_post_s
        self.double_post = double_post
        self.corrupt = corrupt
        self.corrupt_recover = corrupt_recover
        self.chaos = ChaosStats()

    def _send_results(
        self, doc: dict[str, Any], results: list[dict[str, Any]]
    ) -> PendingReply:
        if self.stall_before_post_s is not None:
            self.chaos.stalls += 1
            time.sleep(self.stall_before_post_s)
        if self.corrupt is not None:
            self.chaos.corrupt_posts += 1
            corrupt = super()._send_results(doc, self.corrupt(list(results)))
            if not self.corrupt_recover:
                return corrupt
            if self._read_verdict(doc, corrupt) is None:
                # The corrupt payload got through?  Then the harness is
                # not corrupting hard enough — fail loudly in the test.
                raise AssertionError("corrupt post was accepted")
        reply = super()._send_results(doc, results)
        if self.double_post:
            # One request in flight at a time: the first verdict is read
            # before the copy goes out.
            self._read_verdict(doc, reply)
            self.chaos.double_posts += 1
            reply = super()._send_results(doc, results)
        return reply

    def _read_verdict(self, doc: dict[str, Any], reply: PendingReply) -> int | None:
        """The base class's verdict accounting, plus every rejection's
        status recorded in :attr:`chaos`; a chaos post's 400 is expected,
        so no verdict raises."""
        try:
            status = super()._read_verdict(doc, reply)
        except ClientError as exc:
            status = exc.status
        if status is not None:
            self.chaos.rejections.append(status)
        return status


@dataclass
class Outcome:
    """The result box :func:`spawn` fills when a worker thread finishes."""

    worker: FabricWorker
    thread: threading.Thread
    stats: WorkerStats | None = None
    error: BaseException | None = None

    def join(self, timeout: float = 30.0) -> "Outcome":
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "worker thread did not finish"
        return self


def spawn(worker: FabricWorker) -> Outcome:
    """Run ``worker.run()`` on a daemon thread, capturing stats or the
    exception (an injected :class:`WorkerDied` is an *expected* outcome,
    not a test error)."""
    outcome = Outcome(worker=worker, thread=None)  # type: ignore[arg-type]

    def _run() -> None:
        try:
            outcome.stats = worker.run()
        except BaseException as exc:  # noqa: BLE001 - captured for asserts
            outcome.error = exc

    outcome.thread = threading.Thread(target=_run, daemon=True)
    outcome.thread.start()
    return outcome


def drain(
    coordinator: FabricCoordinator,
    *,
    worker_id: str = "drain",
    deadline_s: float = 30.0,
) -> int:
    """Complete every claimable shard through the direct (no-HTTP) API.

    Keeps claiming and honestly executing until the coordinator has
    nothing to offer and no sweep is waiting; returns the number of
    points executed.  Used as the mop-up worker after chaos so tests
    always converge.
    """
    executed = 0
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        doc = coordinator.claim(
            {
                "protocol": PROTOCOL_VERSION,
                "worker": worker_id,
                "code_version": coordinator.code_version,
            }
        )
        if doc["lease"] is None:
            if coordinator.stats()["sweeps_active"] == 0:
                return executed
            time.sleep(0.01)
            continue
        results = []
        for item in doc["shard"]:
            (_key, payload, meta) = _run_batch(
                [item], None, None, doc.get("trace")
            )[0]
            executed += 1
            results.append(
                {"point": item["point"], "result": payload, "meta": meta}
            )
        try:
            coordinator.submit_results(
                {
                    "protocol": PROTOCOL_VERSION,
                    "worker": worker_id,
                    "lease": doc["lease"],
                    "code_version": coordinator.code_version,
                    "results": results,
                }
            )
        except FabricGone:
            continue  # lost the race against a re-issued copy; fine
    raise AssertionError(f"drain did not converge within {deadline_s}s")
