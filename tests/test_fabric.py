"""Tests for the distributed sweep fabric (repro.fabric).

Covers the acceptance criteria of the fabric work:

* protocol conformance: golden request fixtures, pinned response
  document shapes, and the 400/409/410 error taxonomy over real HTTP;
* byte-identity: a distributed sweep converges to exactly the results
  the local ``--jobs`` path computes — including a reduced Figure 8
  grid — with every point stored in the shared cache exactly once;
* fault injection (via :mod:`fabric_chaos`): workers that die
  mid-shard, stall past their lease deadline, double-post, or post
  corrupted payloads; the sweep must converge anyway;
* straggler re-issue: deterministic slowest-shard selection, with
  first-write-wins resolving the duplicated work;
* the ``repro-vliw worker`` / ``sweep --distributed`` CLI surface.

HTTP tests run over a real server on an ephemeral port, exactly like
the service suite; coordinator-level tests use the direct (no-HTTP)
API the handlers call.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.request
from collections import Counter
from contextlib import contextmanager

import pytest
from fabric_chaos import MISSHAPEN_ROWS, ChaosWorker, drain, spawn, swap_cycles
from prom_oracle import parse as parse_metrics

from repro.arch.configs import clustered_config
from repro.cli import main
from repro.core.base import SchedulerBase
from repro.core.selective import UnrollPolicy
from repro.experiments import ExperimentContext, fig8_rows, run_fig8
from repro.fabric import (
    PROTOCOL_VERSION,
    FabricBadRequest,
    FabricConflict,
    FabricCoordinator,
    FabricError,
    FabricGone,
)
from repro.fabric.protocol import MAX_ID_LEN, validate_claim, validate_results
from repro.fabric.worker import FabricWorker, WorkerDied, client_from_url
from repro.runner import ResultCache, execute_points, scenario_for
from repro.runner import engine
from repro.runner.engine import _run_batch, run_sweep, work_item
from repro.runner.grids import GRIDS
from repro.runner.scenario import ScenarioPoint
from repro.service import (
    ClientError,
    SchedulingService,
    ServiceClient,
    ServiceServer,
)
from repro.workloads.kernels import kernel_loop
from repro.workloads.specfp import specfp95_suite

CODE_VERSION = "test-fabric"


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def make_misses(
    kernels=("daxpy", "dot", "fir4"),
    cluster_counts=(2, 4),
    schedulers=("bsa",),
    trip_count=100,
):
    """A small, deterministic list of cache misses (the sweep input)."""
    misses = []
    for name in kernels:
        loop = kernel_loop(name, trip_count=trip_count)
        for n_clusters in cluster_counts:
            for scheduler in schedulers:
                point = scenario_for(
                    loop,
                    clustered_config(n_clusters, 1, 1),
                    scheduler,
                    UnrollPolicy.NONE,
                )
                misses.append((point.canonical(), (point, loop)))
    return misses


def reference_docs(misses):
    """What the local execution path computes, as comparable dicts."""
    executed = execute_points(list(misses), jobs=1)
    return {key: result.to_dict() for key, result in executed.items()}


def as_docs(results):
    return {key: result.to_dict() for key, result in results.items()}


def claim_body(worker, code_version):
    return {
        "protocol": PROTOCOL_VERSION,
        "worker": worker,
        "code_version": code_version,
    }


def renew_body(worker, lease_id):
    return {"protocol": PROTOCOL_VERSION, "worker": worker, "renew": lease_id}


def results_body(worker, lease_id, code_version, results):
    return {
        "protocol": PROTOCOL_VERSION,
        "worker": worker,
        "lease": lease_id,
        "code_version": code_version,
        "results": results,
    }


def execute_items(items, trace=None):
    """Honestly execute leased shard items (what a worker posts back)."""
    out = []
    for item in items:
        (_key, payload, meta) = _run_batch([item], None, None, trace)[0]
        out.append({"point": item["point"], "result": payload, "meta": meta})
    return out


def item_key(item):
    return ScenarioPoint(**item["point"]).canonical()


def wait_for(predicate, *, timeout=15.0, interval=0.01, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


@contextmanager
def fabric_sweep(coordinator, misses, *, join_s=60.0):
    """Run ``coordinator.execute(misses)`` on a thread; yield its result box.

    Yields once the coordinator counts the sweep as active, since a claim
    made before then comes back idle, or once the thread has ended (an
    empty sweep never registers).
    """
    box = {}
    active = coordinator.stats()["sweeps_active"]

    def _run():
        try:
            box["results"] = coordinator.execute(misses)
        except BaseException as exc:  # noqa: BLE001 - surfaced via the box
            box["error"] = exc

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    try:
        wait_for(
            lambda: coordinator.stats()["sweeps_active"] > active
            or not thread.is_alive(),
            message="the sweep to register",
        )
        yield box
    finally:
        thread.join(join_s)
        box["finished"] = not thread.is_alive()


def make_coordinator(tmp_path, sub="fabric-cache", **opts):
    opts.setdefault("sweep_timeout_s", 60.0)
    cache = ResultCache(tmp_path / sub, code_version=CODE_VERSION)
    return FabricCoordinator(cache=cache, **opts)


def _serve_until(coordinator, stop, *, worker_id="svc-loop"):
    """A minimal honest worker loop over the direct API (no HTTP)."""
    while not stop.is_set():
        doc = coordinator.claim(
            claim_body(worker_id, coordinator.code_version)
        )
        if not doc.get("lease"):
            time.sleep(0.005)
            continue
        results = execute_items(doc["shard"], doc.get("trace"))
        try:
            coordinator.submit_results(
                results_body(
                    worker_id, doc["lease"], coordinator.code_version, results
                )
            )
        except FabricGone:
            pass  # lost the race against a re-issued copy


@pytest.fixture()
def fabric_env(tmp_path):
    """Factory for a (service, server, client) stack with fabric options."""
    created = []

    def make(**fabric_opts):
        fabric_opts.setdefault("sweep_timeout_s", 60.0)
        svc = SchedulingService(
            cache=ResultCache(
                tmp_path / f"svc-cache-{len(created)}", code_version=CODE_VERSION
            ),
            workers=0,
            fabric_opts=fabric_opts,
        )
        srv = ServiceServer(svc, port=0)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        client = ServiceClient(port=srv.port, timeout=60.0)
        created.append((svc, srv, client))
        return svc, srv, client

    yield make
    for svc, srv, client in reversed(created):
        client.close()
        srv.shutdown()
        srv.server_close()
        svc.close()


# ---------------------------------------------------------------------------
# Protocol conformance: golden fixtures and structural validation
# ---------------------------------------------------------------------------
GOLDEN_CLAIM = {"protocol": 1, "worker": "w-golden", "code_version": "cv-1"}
GOLDEN_RENEW = {"protocol": 1, "worker": "w-golden", "renew": "l00001"}
GOLDEN_RESULTS = {
    "protocol": 1,
    "worker": "w-golden",
    "lease": "l00001",
    "code_version": "cv-1",
    "results": [
        {
            "point": {"kernel": "daxpy"},
            "result": {"ii": 1},
            "meta": {"wall_s": 0.25},
        }
    ],
}


class TestProtocol:
    def test_golden_claim_accepted(self):
        assert validate_claim(dict(GOLDEN_CLAIM)) == GOLDEN_CLAIM

    def test_golden_renew_accepted(self):
        assert validate_claim(dict(GOLDEN_RENEW)) == GOLDEN_RENEW

    def test_golden_results_accepted(self):
        doc = {**GOLDEN_RESULTS, "results": [dict(GOLDEN_RESULTS["results"][0])]}
        assert validate_results(doc) == GOLDEN_RESULTS
        # meta is optional
        doc["results"][0].pop("meta")
        assert validate_results(doc)["results"][0] == {
            "point": {"kernel": "daxpy"},
            "result": {"ii": 1},
        }

    @pytest.mark.parametrize(
        "mutation",
        [
            pytest.param({"protocol": 2}, id="future-protocol"),
            pytest.param({"protocol": None}, id="missing-protocol"),
            pytest.param({"worker": ""}, id="empty-worker"),
            pytest.param({"worker": "w" * (MAX_ID_LEN + 1)}, id="huge-worker"),
            pytest.param({"worker": 7}, id="non-string-worker"),
            pytest.param({"code_version": None}, id="missing-code-version"),
            pytest.param({"shard": 3}, id="unknown-field"),
        ],
    )
    def test_bad_claims_rejected(self, mutation):
        body = {**GOLDEN_CLAIM, **mutation}
        body = {k: v for k, v in body.items() if v is not None}
        with pytest.raises(FabricBadRequest):
            validate_claim(body)

    def test_renew_must_not_carry_code_version(self):
        with pytest.raises(FabricBadRequest, match="unknown lease-renewal"):
            validate_claim({**GOLDEN_RENEW, "code_version": "cv-1"})

    @pytest.mark.parametrize(
        "mutation",
        [
            pytest.param({"results": []}, id="empty-results"),
            pytest.param({"results": "nope"}, id="non-list-results"),
            pytest.param({"results": [{"result": {}}]}, id="item-missing-point"),
            pytest.param({"results": [{"point": {}}]}, id="item-missing-result"),
            pytest.param({"results": [[1, 2]]}, id="non-object-item"),
            pytest.param(
                {"results": [{"point": {}, "result": {}, "meta": 5}]},
                id="non-object-meta",
            ),
            pytest.param({"lease": ""}, id="empty-lease"),
            pytest.param({"extra": True}, id="unknown-field"),
        ],
    )
    def test_bad_results_rejected(self, mutation):
        with pytest.raises(FabricBadRequest):
            validate_results({**GOLDEN_RESULTS, **mutation})


# ---------------------------------------------------------------------------
# Coordinator: leases, expiry, atomicity (direct API)
# ---------------------------------------------------------------------------
class TestCoordinator:
    def test_empty_sweep_is_a_noop(self, tmp_path):
        coordinator = make_coordinator(tmp_path)
        assert coordinator.execute([]) == {}
        assert coordinator.stats()["counters"]["leases_issued"] == 0

    def _run_partition(self, tmp_path, sub, **opts):
        """Claim and execute a whole sweep; return (partition, results)."""
        coordinator = make_coordinator(tmp_path, sub, shard_size=2, **opts)
        misses = make_misses()
        partition = []
        with fabric_sweep(coordinator, misses) as box:
            while True:
                doc = coordinator.claim(claim_body("w1", CODE_VERSION))
                if not doc.get("lease"):
                    break
                partition.append(tuple(item_key(i) for i in doc["shard"]))
                reply = coordinator.submit_results(
                    results_body(
                        "w1", doc["lease"], CODE_VERSION,
                        execute_items(doc["shard"], doc.get("trace")),
                    )
                )
                assert reply["accepted"] == len(doc["shard"])
                assert reply["duplicates"] == 0
        assert box["finished"] and "error" not in box
        return partition, box["results"]

    def test_deterministic_shards_and_byte_identity(self, tmp_path):
        part_a, results_a = self._run_partition(tmp_path, "a")
        part_b, results_b = self._run_partition(tmp_path, "b")
        # The shard partition is a pure function of the grid contents.
        assert part_a == part_b
        assert len(part_a) == 3  # 6 points / shard_size 2
        claimed = sorted(key for shard in part_a for key in shard)
        assert claimed == sorted(key for key, _item in make_misses())
        # And the results are byte-identical to the local path.
        reference = reference_docs(make_misses())
        assert as_docs(results_a) == reference
        assert as_docs(results_b) == reference

    def test_partition_waits_for_a_late_registration(self, tmp_path, monkeypatch):
        register = FabricCoordinator._register_sweep

        def late(self, *args, **kwargs):
            time.sleep(0.2)
            return register(self, *args, **kwargs)

        monkeypatch.setattr(FabricCoordinator, "_register_sweep", late)
        partition, results = self._run_partition(
            tmp_path, "late", sweep_timeout_s=5.0
        )
        claimed = sorted(key for shard in partition for key in shard)
        assert claimed == sorted(key for key, _item in make_misses())
        assert sorted(results) == claimed

    def test_renewals_extend_the_lease(self, tmp_path):
        coordinator = make_coordinator(tmp_path, lease_ttl_s=0.6, shard_size=99)
        misses = make_misses(kernels=("daxpy", "dot"))
        with fabric_sweep(coordinator, misses) as box:
            doc = coordinator.claim(claim_body("w1", CODE_VERSION))
            assert doc["heartbeat_s"] == pytest.approx(0.2)
            results = execute_items(doc["shard"], doc.get("trace"))
            deadline = doc["deadline_unix"]
            for _ in range(3):  # outlive the original TTL via heartbeats
                time.sleep(0.3)
                renewed = coordinator.claim(renew_body("w1", doc["lease"]))
                assert renewed["deadline_unix"] >= deadline
                deadline = renewed["deadline_unix"]
            reply = coordinator.submit_results(
                results_body("w1", doc["lease"], CODE_VERSION, results)
            )
            assert reply["accepted"] == len(misses) and reply["sweep_done"]
        assert box["finished"] and "error" not in box
        counters = coordinator.stats()["counters"]
        assert counters["leases_renewed"] == 3
        assert counters["leases_expired"] == 0

    def test_expired_lease_is_reissued_and_late_post_bounces(self, tmp_path):
        coordinator = make_coordinator(tmp_path, lease_ttl_s=0.25, shard_size=99)
        misses = make_misses(kernels=("daxpy", "dot"))
        with fabric_sweep(coordinator, misses) as box:
            dead = coordinator.claim(claim_body("w-dead", CODE_VERSION))
            # The executor's wait ticks expire the lease lazily.
            wait_for(
                lambda: coordinator.stats()["counters"]["leases_expired"] >= 1,
                message="lease expiry",
            )
            with pytest.raises(FabricGone, match="expired"):
                coordinator.claim(renew_body("w-dead", dead["lease"]))
            second = coordinator.claim(claim_body("w2", CODE_VERSION))
            # The orphaned shard is re-issued, same deterministic items.
            assert [item_key(i) for i in second["shard"]] == [
                item_key(i) for i in dead["shard"]
            ]
            reply = coordinator.submit_results(
                results_body(
                    "w2", second["lease"], CODE_VERSION,
                    execute_items(second["shard"]),
                )
            )
            assert reply["accepted"] == len(misses)
            with pytest.raises(FabricGone):
                coordinator.submit_results(
                    results_body(
                        "w-dead", dead["lease"], CODE_VERSION,
                        execute_items(dead["shard"]),
                    )
                )
        assert box["finished"] and "error" not in box
        assert as_docs(box["results"]) == reference_docs(misses)
        counters = coordinator.stats()["counters"]
        assert counters["shards_reissued"] == 1
        assert coordinator.stats()["workers"]["w-dead"]["expired"] == 1
        # Exactly one cache write per point despite the failed lease.
        assert coordinator.cache.writes == len(misses)

    def test_ownership_version_and_duplicate_conflicts(self, tmp_path):
        coordinator = make_coordinator(tmp_path, shard_size=3)
        misses = make_misses()  # 6 points -> 2 shards
        with fabric_sweep(coordinator, misses) as box:
            first = coordinator.claim(claim_body("w1", CODE_VERSION))
            results = execute_items(first["shard"], first.get("trace"))
            with pytest.raises(FabricConflict, match="belongs to worker"):
                coordinator.submit_results(
                    results_body("w-thief", first["lease"], CODE_VERSION, results)
                )
            with pytest.raises(FabricConflict, match="code version mismatch"):
                coordinator.submit_results(
                    results_body("w1", first["lease"], "other-version", results)
                )
            with pytest.raises(FabricGone, match="unknown lease"):
                coordinator.submit_results(
                    results_body("w1", "l99999", CODE_VERSION, results)
                )
            assert coordinator.submit_results(
                results_body("w1", first["lease"], CODE_VERSION, results)
            )["accepted"] == 3
            # Second post on the same lease (the other shard keeps the
            # sweep alive, so this is deterministically a 409).
            with pytest.raises(FabricConflict, match="duplicate post"):
                coordinator.submit_results(
                    results_body("w1", first["lease"], CODE_VERSION, results)
                )
            second = coordinator.claim(claim_body("w1", CODE_VERSION))
            coordinator.submit_results(
                results_body(
                    "w1", second["lease"], CODE_VERSION,
                    execute_items(second["shard"]),
                )
            )
        assert box["finished"] and "error" not in box
        assert as_docs(box["results"]) == reference_docs(misses)
        assert coordinator.stats()["counters"]["results_rejected"] == 4

    def test_corrupt_post_rejects_atomically(self, tmp_path):
        coordinator = make_coordinator(tmp_path, shard_size=99)
        misses = make_misses(kernels=("daxpy", "dot"))
        with fabric_sweep(coordinator, misses) as box:
            doc = coordinator.claim(claim_body("w1", CODE_VERSION))
            honest = execute_items(doc["shard"], doc.get("trace"))

            corrupt = [dict(item) for item in honest]
            corrupt[-1] = dict(corrupt[-1], result={"ii": 1})
            with pytest.raises(FabricBadRequest, match="corrupt result"):
                coordinator.submit_results(
                    results_body("w1", doc["lease"], CODE_VERSION, corrupt)
                )

            malformed = [dict(item) for item in honest]
            malformed[0] = dict(
                malformed[0], point={**malformed[0]["point"], "bogus": 1}
            )
            with pytest.raises(FabricBadRequest, match="malformed scenario"):
                coordinator.submit_results(
                    results_body("w1", doc["lease"], CODE_VERSION, malformed)
                )

            # A post carries no graph; a schedule that places a node the
            # point's own graph does not have does not decode (GraphError).
            alien = [dict(item) for item in honest]
            result = json.loads(json.dumps(alien[0]["result"]))
            ops = result["schedule"]["operations"]
            ops[-1][0] = max(node for node, *_ in ops) + 1
            alien[0] = dict(alien[0], result=result)
            with pytest.raises(FabricBadRequest, match="GraphError"):
                coordinator.submit_results(
                    results_body("w1", doc["lease"], CODE_VERSION, alien)
                )

            # Nor does a schedule whose II is not a positive integer.
            zero_ii = [dict(item) for item in honest]
            result = json.loads(json.dumps(zero_ii[0]["result"]))
            result["schedule"]["ii"] = 0
            zero_ii[0] = dict(zero_ii[0], result=result)
            with pytest.raises(FabricBadRequest, match="GraphError"):
                coordinator.submit_results(
                    results_body("w1", doc["lease"], CODE_VERSION, zero_ii)
                )

            # An operation that is not an object does not decode either.
            shapeless = [dict(item) for item in honest]
            result = json.loads(json.dumps(shapeless[0]["result"]))
            result["schedule"]["operations"] = ["x"]
            shapeless[0] = dict(shapeless[0], result=result)
            with pytest.raises(FabricBadRequest, match="GraphError"):
                coordinator.submit_results(
                    results_body("w1", doc["lease"], CODE_VERSION, shapeless)
                )

            # Nothing committed: the good items in the bad posts did NOT
            # land (all-or-nothing), and the cache is untouched.
            assert coordinator.stats()["counters"]["points_completed"] == 0
            assert coordinator.cache.writes == 0

            reply = coordinator.submit_results(
                results_body("w1", doc["lease"], CODE_VERSION, honest)
            )
            assert reply["accepted"] == len(misses)
        assert box["finished"] and "error" not in box
        assert as_docs(box["results"]) == reference_docs(misses)
        assert coordinator.stats()["counters"]["results_rejected"] == 5
        assert coordinator.cache.writes == len(misses)

    @pytest.mark.parametrize("edit", MISSHAPEN_ROWS)
    def test_misshapen_row_post_is_rejected_and_never_cached(self, tmp_path, edit):
        """A schedule row of the wrong shape in one result: a 400 naming
        the GraphError, and nothing of the post lands."""
        coordinator = make_coordinator(tmp_path, shard_size=99)
        misses = make_misses(kernels=("daxpy", "dot"))
        with fabric_sweep(coordinator, misses) as box:
            doc = coordinator.claim(claim_body("w1", CODE_VERSION))
            honest = execute_items(doc["shard"], doc.get("trace"))
            bad = json.loads(json.dumps(honest))
            bad[-1]["result"] = edit(bad[-1]["result"])
            with pytest.raises(FabricBadRequest, match="GraphError: bad .* row"):
                coordinator.submit_results(
                    results_body("w1", doc["lease"], CODE_VERSION, bad)
                )
            counters = coordinator.stats()["counters"]
            assert counters["results_rejected"] == 1
            assert counters["points_completed"] == 0
            assert coordinator.cache.writes == 0
            coordinator.submit_results(
                results_body("w1", doc["lease"], CODE_VERSION, honest)
            )
        assert box["finished"] and "error" not in box
        assert coordinator.cache.writes == len(misses)

    def test_lying_post_is_rejected_and_never_cached(self, tmp_path):
        """Well-formed results with two ops' cycles swapped fail
        verification against the point's own graph: a 400, counted, and
        nothing of the post lands."""
        coordinator = make_coordinator(tmp_path, shard_size=99)
        misses = make_misses(kernels=("daxpy", "dot"))
        with fabric_sweep(coordinator, misses) as box:
            doc = coordinator.claim(claim_body("w1", CODE_VERSION))
            honest = execute_items(doc["shard"], doc.get("trace"))
            lying = honest[:-1] + swap_cycles(honest[-1:])
            with pytest.raises(FabricBadRequest, match="VerificationError"):
                coordinator.submit_results(
                    results_body("w1", doc["lease"], CODE_VERSION, lying)
                )
            counters = coordinator.stats()["counters"]
            assert counters["results_rejected"] == 1
            assert counters["points_completed"] == 0
            assert coordinator.cache.writes == 0
            coordinator.submit_results(
                results_body("w1", doc["lease"], CODE_VERSION, honest)
            )
        assert box["finished"] and "error" not in box
        assert as_docs(box["results"]) == reference_docs(misses)

    def test_claim_with_wrong_code_version_conflicts(self, tmp_path):
        coordinator = make_coordinator(tmp_path)
        with pytest.raises(FabricConflict, match="code version mismatch"):
            coordinator.claim(claim_body("w1", "something-else"))

    def test_sweep_timeout(self, tmp_path):
        coordinator = make_coordinator(tmp_path, sweep_timeout_s=0.2)
        with pytest.raises(FabricError, match="timed out"):
            coordinator.execute(make_misses(kernels=("daxpy",)))

    def test_close_aborts_inflight_sweeps(self, tmp_path):
        coordinator = make_coordinator(tmp_path)
        with fabric_sweep(coordinator, make_misses(kernels=("daxpy",))) as box:
            coordinator.close()
        assert box["finished"]
        assert isinstance(box["error"], FabricError)
        assert "closed" in str(box["error"])


# ---------------------------------------------------------------------------
# Straggler re-issue: deterministic pick, first write wins
# ---------------------------------------------------------------------------
class TestStraggler:
    def test_slowest_shard_reissued_first_write_wins(self, tmp_path):
        coordinator = make_coordinator(
            tmp_path, shard_size=3, straggler_after_s=0.2, lease_ttl_s=30.0
        )
        misses = make_misses()  # 6 points -> 2 shards
        with fabric_sweep(coordinator, misses) as box:
            slow = coordinator.claim(claim_body("w-slow", CODE_VERSION))
            time.sleep(0.1)
            other = coordinator.claim(claim_body("w-other", CODE_VERSION))
            time.sleep(0.25)  # both leases now over the straggler threshold
            # No pending shards left: the *oldest* leased shard (the
            # slow worker's) is re-issued — deterministically.
            helper = coordinator.claim(claim_body("w-helper", CODE_VERSION))
            assert helper["lease"]
            assert [item_key(i) for i in helper["shard"]] == [
                item_key(i) for i in slow["shard"]
            ]
            assert coordinator.stats()["counters"]["shards_reissued"] == 1

            shard_results = execute_items(slow["shard"])
            reply = coordinator.submit_results(
                results_body(
                    "w-helper", helper["lease"], CODE_VERSION, shard_results
                )
            )
            assert reply["accepted"] == 3 and not reply["sweep_done"]
            # The original (slow) copy arrives second: first write wins.
            reply = coordinator.submit_results(
                results_body("w-slow", slow["lease"], CODE_VERSION, shard_results)
            )
            assert reply["accepted"] == 0 and reply["duplicates"] == 3
            reply = coordinator.submit_results(
                results_body(
                    "w-other", other["lease"], CODE_VERSION,
                    execute_items(other["shard"]),
                )
            )
            assert reply["sweep_done"]
        assert box["finished"] and "error" not in box
        assert as_docs(box["results"]) == reference_docs(misses)
        stats = coordinator.stats()
        assert stats["counters"]["points_completed"] == len(misses)
        assert stats["counters"]["results_duplicate"] == 3
        assert stats["workers"]["w-helper"]["points"] == 3
        assert stats["workers"]["w-slow"]["duplicates"] == 3
        # Every point executed into the cache exactly once, duplicates
        # never re-stored.
        assert coordinator.cache.writes == len(misses)

    def test_no_reissue_before_threshold(self, tmp_path):
        coordinator = make_coordinator(
            tmp_path, shard_size=99, straggler_after_s=30.0
        )
        misses = make_misses(kernels=("daxpy",))
        with fabric_sweep(coordinator, misses) as box:
            doc = coordinator.claim(claim_body("w1", CODE_VERSION))
            idle = coordinator.claim(claim_body("w2", CODE_VERSION))
            assert idle["lease"] is None and idle["idle"] is True
            coordinator.submit_results(
                results_body(
                    "w1", doc["lease"], CODE_VERSION, execute_items(doc["shard"])
                )
            )
        assert box["finished"] and "error" not in box
        assert coordinator.stats()["counters"]["shards_reissued"] == 0

    def test_reissue_skips_the_lease_holder(self, tmp_path):
        coordinator = make_coordinator(
            tmp_path, shard_size=99, straggler_after_s=0.05
        )
        misses = make_misses(kernels=("daxpy",))
        with fabric_sweep(coordinator, misses) as box:
            doc = coordinator.claim(claim_body("w1", CODE_VERSION))
            time.sleep(0.15)  # past the straggler threshold
            # A pipelined worker claims again before it posts: it must
            # not be handed a copy of the shard it is about to post.
            own = coordinator.claim(claim_body("w1", CODE_VERSION))
            assert own["lease"] is None and own["idle"] is True
            helper = coordinator.claim(claim_body("w2", CODE_VERSION))
            assert [item_key(i) for i in helper["shard"]] == [
                item_key(i) for i in doc["shard"]
            ]
            coordinator.submit_results(
                results_body(
                    "w1", doc["lease"], CODE_VERSION, execute_items(doc["shard"])
                )
            )
        assert box["finished"] and "error" not in box
        assert coordinator.stats()["counters"]["shards_reissued"] == 1

    def test_live_lease_cap_blocks_reissue(self, tmp_path):
        coordinator = make_coordinator(
            tmp_path,
            shard_size=99,
            straggler_after_s=0.05,
            max_leases_per_shard=1,
        )
        misses = make_misses(kernels=("daxpy",))
        with fabric_sweep(coordinator, misses) as box:
            doc = coordinator.claim(claim_body("w1", CODE_VERSION))
            time.sleep(0.15)
            idle = coordinator.claim(claim_body("w2", CODE_VERSION))
            assert idle["lease"] is None  # cap reached, no re-issue
            coordinator.submit_results(
                results_body(
                    "w1", doc["lease"], CODE_VERSION, execute_items(doc["shard"])
                )
            )
        assert box["finished"] and "error" not in box
        assert coordinator.stats()["counters"]["shards_reissued"] == 0


# ---------------------------------------------------------------------------
# HTTP conformance: response shapes and status codes over a real server
# ---------------------------------------------------------------------------
class TestHTTPConformance:
    def test_idle_document_shape(self, fabric_env):
        svc, _srv, client = fabric_env()
        doc = client.lease(claim_body("w1", svc.fabric.code_version))
        assert set(doc) == {"protocol", "lease", "idle", "retry_s"}
        assert doc["protocol"] == PROTOCOL_VERSION
        assert doc["lease"] is None and doc["idle"] is True
        assert doc["retry_s"] > 0

    def test_lease_and_results_document_shapes(self, fabric_env):
        svc, _srv, client = fabric_env(shard_size=99)
        misses = make_misses(kernels=("daxpy",))
        with fabric_sweep(svc.fabric, misses) as box:
            doc = client.lease(claim_body("w1", svc.fabric.code_version))
            assert set(doc) == {
                "protocol", "lease", "sweep", "shard",
                "deadline_unix", "heartbeat_s", "trace",
            }
            assert doc["protocol"] == PROTOCOL_VERSION
            assert doc["deadline_unix"] > time.time()
            assert doc["heartbeat_s"] == pytest.approx(
                svc.fabric.lease_ttl_s / 3.0
            )
            for item in doc["shard"]:
                assert set(item) == {"point", "loop", "prior"}
            renewed = client.lease(renew_body("w1", doc["lease"]))
            assert set(renewed) == {
                "protocol", "lease", "deadline_unix", "heartbeat_s",
            }
            reply = client.results(
                results_body(
                    "w1", doc["lease"], svc.fabric.code_version,
                    execute_items(doc["shard"], doc.get("trace")),
                )
            )
            assert set(reply) == {
                "protocol", "accepted", "duplicates", "sweep_done",
            }
            assert reply["accepted"] == len(misses)
            assert reply["sweep_done"] is True
        assert box["finished"] and "error" not in box

    def test_error_status_codes(self, fabric_env):
        svc, _srv, client = fabric_env()
        version = svc.fabric.code_version

        with pytest.raises(ClientError) as err:
            client.lease({"protocol": 99, "worker": "w1", "code_version": version})
        assert err.value.status == 400 and "protocol" in str(err.value)

        with pytest.raises(ClientError) as err:
            client.lease({**claim_body("w1", version), "extra": 1})
        assert err.value.status == 400

        with pytest.raises(ClientError) as err:
            client.lease(claim_body("w1", "not-the-coordinator-version"))
        assert err.value.status == 409 and "mismatch" in str(err.value)

        with pytest.raises(ClientError) as err:
            client.lease(renew_body("w1", "l99999"))
        assert err.value.status == 410

        with pytest.raises(ClientError) as err:
            client.results(
                results_body("w1", "l99999", version, GOLDEN_RESULTS["results"])
            )
        assert err.value.status == 410

        with pytest.raises(ClientError) as err:
            client.results(
                results_body("w1", "l99999", "wrong", GOLDEN_RESULTS["results"])
            )
        assert err.value.status == 409

    def test_stats_exposes_fabric_block(self, fabric_env):
        _svc, _srv, client = fabric_env()
        block = client.stats()["fabric"]
        assert block["protocol"] == PROTOCOL_VERSION
        assert block["sweeps_active"] == 0
        assert set(block["counters"]) == {
            "leases_issued", "leases_renewed", "leases_expired",
            "shards_reissued", "points_completed", "results_duplicate",
            "results_rejected",
        }


# ---------------------------------------------------------------------------
# Fault injection end-to-end (the chaos harness over real HTTP)
# ---------------------------------------------------------------------------
class TestChaosE2E:
    def test_worker_death_mid_shard_converges(self, fabric_env):
        # Straggler re-issue is pushed out of reach so recovery *must*
        # come from lease expiry (the worker-death path under test).
        svc, srv, _client = fabric_env(
            shard_size=2, lease_ttl_s=0.5, straggler_after_s=30.0
        )
        misses = make_misses()  # 6 points -> 3 shards
        with fabric_sweep(svc.fabric, misses) as box:
            failer = spawn(
                FabricWorker(
                    srv.url,
                    worker_id="failer",
                    code_version=svc.fabric.code_version,
                    fail_after=3,  # dies executing its second shard
                    poll_s=0.02,
                )
            )
            wait_for(
                lambda: svc.fabric.stats()["workers"]
                .get("failer", {})
                .get("leases", 0)
                >= 1,
                message="the failing worker to claim a shard",
            )
            honest = spawn(
                FabricWorker(
                    srv.url,
                    worker_id="honest",
                    code_version=svc.fabric.code_version,
                    idle_exit_s=1.5,
                    poll_s=0.02,
                )
            )
            failer.join()
            honest.join()
        assert box["finished"] and "error" not in box
        assert isinstance(failer.error, WorkerDied)
        assert honest.error is None
        assert as_docs(box["results"]) == reference_docs(misses)
        counters = svc.fabric.stats()["counters"]
        assert counters["points_completed"] == len(misses)
        assert counters["leases_expired"] >= 1
        assert counters["shards_reissued"] >= 1
        assert svc.cache.writes == len(misses)

    def test_death_with_a_verdict_unread_commits_the_posted_shard(
        self, fabric_env
    ):
        # A heartbeat (ttl/3) never falls due in the failer's few
        # milliseconds of work, so its first shard's verdict is still
        # unread when it dies executing the second; the mop-up gets
        # that shard as a straggler copy.
        svc, srv, _client = fabric_env(
            shard_size=2, lease_ttl_s=3.0, straggler_after_s=0.1
        )
        misses = make_misses()  # 6 points -> 3 shards
        with fabric_sweep(svc.fabric, misses) as box:
            failer = spawn(
                FabricWorker(
                    srv.url,
                    worker_id="failer",
                    code_version=svc.fabric.code_version,
                    fail_after=3,  # dies inside its second shard
                    poll_s=0.02,
                )
            )
            failer.join()
            drain(svc.fabric)
        assert box["finished"] and "error" not in box
        assert isinstance(failer.error, WorkerDied)
        # The verdict on the posted shard was read before the death.
        assert failer.worker.stats.posted == 2
        assert failer.worker.stats.renewals == 0
        stats = svc.fabric.stats()
        assert stats["workers"]["failer"]["points"] == 2
        assert stats["counters"]["points_completed"] == len(misses)
        assert stats["counters"]["results_duplicate"] == 0
        assert svc.cache.writes == len(misses)
        local, _stats = run_sweep([item for _key, item in misses], cache=None)
        assert as_docs(box["results"]) == as_docs(local)

    def test_stall_past_deadline_loses_to_the_reissue(self, fabric_env):
        # Straggler re-issue is out of reach: the stalled shard can only
        # come back through lease expiry.
        svc, srv, _client = fabric_env(
            shard_size=2, lease_ttl_s=0.4, straggler_after_s=30.0
        )
        misses = make_misses(kernels=("daxpy", "dot"))  # 4 points, 2 shards
        with fabric_sweep(svc.fabric, misses) as box:
            staller = spawn(
                ChaosWorker(
                    srv.url,
                    worker_id="staller",
                    code_version=svc.fabric.code_version,
                    stall_before_post_s=1.2,
                    max_shards=1,
                    idle_exit_s=2.0,
                    poll_s=0.02,
                )
            )
            wait_for(
                lambda: svc.fabric.stats()["workers"]
                .get("staller", {})
                .get("leases", 0)
                >= 1,
                message="the stalling worker to claim a shard",
            )
            drain(svc.fabric)
            staller.join()
        assert box["finished"] and "error" not in box
        assert staller.error is None
        assert staller.worker.chaos.stalls == 1
        # The zombie's late post bounced with 410; the re-issued copy won.
        assert staller.worker.chaos.rejections == [410]
        assert staller.worker.stats.rejected_posts == 1
        assert as_docs(box["results"]) == reference_docs(misses)
        counters = svc.fabric.stats()["counters"]
        assert counters["leases_expired"] >= 1
        assert counters["shards_reissued"] >= 1
        assert counters["points_completed"] == len(misses)
        assert svc.cache.writes == len(misses)

    def test_double_posts_bounce_and_change_nothing(self, fabric_env):
        svc, srv, _client = fabric_env(shard_size=2)
        misses = make_misses(kernels=("daxpy", "dot"))  # 2 shards
        with fabric_sweep(svc.fabric, misses) as box:
            doubler = spawn(
                ChaosWorker(
                    srv.url,
                    worker_id="doubler",
                    code_version=svc.fabric.code_version,
                    double_post=True,
                    idle_exit_s=1.0,
                    poll_s=0.02,
                )
            )
            doubler.join()
        assert box["finished"] and "error" not in box
        chaos = doubler.worker.chaos
        assert doubler.error is None
        assert chaos.double_posts == 2
        assert len(chaos.rejections) == 2
        # A duplicate post answers 409 while the sweep is live; the very
        # last one may race sweep teardown and see 410 — never a commit.
        assert chaos.rejections[0] == 409
        assert set(chaos.rejections) <= {409, 410}
        assert as_docs(box["results"]) == reference_docs(misses)
        counters = svc.fabric.stats()["counters"]
        assert counters["points_completed"] == len(misses)
        assert counters["results_duplicate"] == 0
        assert counters["results_rejected"] == 2
        assert svc.cache.writes == len(misses)

    def test_corrupt_posts_rejected_then_recovered(self, fabric_env):
        svc, srv, _client = fabric_env(shard_size=2)
        misses = make_misses(kernels=("daxpy", "dot"))  # 2 shards
        with fabric_sweep(svc.fabric, misses) as box:
            corruptor = spawn(
                ChaosWorker(
                    srv.url,
                    worker_id="corruptor",
                    code_version=svc.fabric.code_version,
                    corrupt=lambda results: [
                        dict(item, result={"ii": 1}) for item in results
                    ],
                    corrupt_recover=True,
                    idle_exit_s=1.0,
                    poll_s=0.02,
                )
            )
            corruptor.join()
        assert box["finished"] and "error" not in box
        chaos = corruptor.worker.chaos
        assert corruptor.error is None
        assert chaos.corrupt_posts == 2
        assert chaos.rejections == [400, 400]
        assert as_docs(box["results"]) == reference_docs(misses)
        counters = svc.fabric.stats()["counters"]
        assert counters["points_completed"] == len(misses)
        assert counters["results_rejected"] == 2
        assert svc.cache.writes == len(misses)

    def test_lying_worker_rejected_then_recovered(self, fabric_env):
        svc, srv, _client = fabric_env(shard_size=2)
        misses = make_misses(kernels=("daxpy", "dot"))  # 2 shards
        with fabric_sweep(svc.fabric, misses) as box:
            liar = spawn(
                ChaosWorker(
                    srv.url,
                    worker_id="liar",
                    code_version=svc.fabric.code_version,
                    corrupt=swap_cycles,
                    corrupt_recover=True,
                    idle_exit_s=1.0,
                    poll_s=0.02,
                )
            )
            liar.join()
        assert box["finished"] and "error" not in box
        assert liar.error is None
        assert liar.worker.chaos.rejections == [400, 400]
        assert as_docs(box["results"]) == reference_docs(misses)
        assert svc.cache.writes == len(misses)
        with urllib.request.urlopen(f"{srv.url}/metrics", timeout=10) as resp:
            families = parse_metrics(resp.read().decode())
        (rejected,) = families["fabric_results_rejected_total"].samples
        assert rejected.value == 2

    def test_menagerie_converges_byte_identical(self, fabric_env):
        """Every failure mode at once; the sweep must still converge."""
        svc, srv, _client = fabric_env(
            shard_size=1, lease_ttl_s=0.5, straggler_after_s=0.5
        )
        version = svc.fabric.code_version
        misses = make_misses(kernels=("daxpy", "dot", "fir4", "vadd"))  # 8 pts
        with fabric_sweep(svc.fabric, misses) as box:
            staller = spawn(
                ChaosWorker(
                    srv.url, worker_id="staller", code_version=version,
                    stall_before_post_s=0.9, max_shards=1, idle_exit_s=2.0,
                    poll_s=0.02,
                )
            )
            wait_for(
                lambda: svc.fabric.stats()["workers"]
                .get("staller", {})
                .get("leases", 0)
                >= 1,
                message="the stalling worker to claim a shard",
            )
            failer = spawn(
                FabricWorker(
                    srv.url, worker_id="failer", code_version=version,
                    fail_after=2, poll_s=0.02,
                )
            )
            # Let the failer die before the mop-up starts, so its death
            # is guaranteed to happen while shards are still on offer.
            wait_for(
                lambda: failer.error is not None,
                message="the failing worker to die",
            )
            doubler = spawn(
                ChaosWorker(
                    srv.url, worker_id="doubler", code_version=version,
                    double_post=True, idle_exit_s=1.5, poll_s=0.02,
                )
            )
            drain(svc.fabric)
            staller.join()
            failer.join()
            doubler.join()
        assert box["finished"] and "error" not in box
        assert isinstance(failer.error, WorkerDied)
        assert staller.error is None and doubler.error is None
        # Convergence: complete, byte-identical, exactly-once storage.
        assert as_docs(box["results"]) == reference_docs(misses)
        stats = svc.fabric.stats()
        assert stats["sweeps_active"] == 0
        assert stats["counters"]["points_completed"] == len(misses)
        assert svc.cache.writes == len(misses)
        accepted = sum(w["points"] for w in stats["workers"].values())
        assert accepted == len(misses)


# ---------------------------------------------------------------------------
# Loop sharing: a worker decodes each loop once per sweep
# ---------------------------------------------------------------------------
def count_decodes(monkeypatch):
    """Count ``loop_from_dict`` calls of the batch core, by loop and trip."""
    decodes = Counter()
    original = engine.loop_from_dict

    def counting(doc):
        loop = original(doc)
        decodes[loop.name, loop.trip_count] += 1
        return loop

    monkeypatch.setattr(engine, "loop_from_dict", counting)
    return decodes


class TestLoopSharing:
    def test_a_sweep_decodes_each_loop_once(self, fabric_env, monkeypatch):
        # Three loops, each on two machines under BSA and two-phase: four
        # families per loop, dealt into six two-point leases.
        misses = make_misses(schedulers=("bsa", "two-phase"))
        expected = reference_docs(misses)
        decodes = count_decodes(monkeypatch)
        svc, srv, _client = fabric_env(shard_size=2)
        with fabric_sweep(svc.fabric, misses) as box:
            stats = FabricWorker(
                srv.url,
                code_version=svc.fabric.code_version,
                max_shards=6,
                poll_s=0.02,
            ).run()
        assert stats.shards == 6 and stats.points == len(misses) == 12
        assert box["finished"] and "error" not in box
        assert as_docs(box["results"]) == expected
        assert decodes == {("daxpy", 100): 1, ("dot", 100): 1, ("fir4", 100): 1}

    def test_a_new_sweep_decodes_again(self, fabric_env, monkeypatch):
        first = make_misses(cluster_counts=(2,))
        second = make_misses(cluster_counts=(4,))
        expected = reference_docs(first + second)
        decodes = count_decodes(monkeypatch)
        svc, srv, _client = fabric_env(shard_size=3)
        outcome = spawn(
            FabricWorker(
                srv.url,
                code_version=svc.fabric.code_version,
                max_shards=2,
                poll_s=0.02,
            )
        )
        results = {}
        for misses in (first, second):
            with fabric_sweep(svc.fabric, misses) as box:
                pass
            assert box["finished"] and "error" not in box
            results.update(as_docs(box["results"]))
        outcome.join()
        assert outcome.error is None and outcome.stats.shards == 2
        assert results == expected
        assert decodes == {("daxpy", 100): 2, ("dot", 100): 2, ("fir4", 100): 2}

    def test_another_document_of_a_graph_is_decoded_fresh(
        self, fabric_env, monkeypatch
    ):
        # The same graphs (same graph hash) with another trip count, on
        # the other machine: equal hashes, unequal documents.
        misses = make_misses(cluster_counts=(2,))
        misses += make_misses(cluster_counts=(4,), trip_count=200)
        expected = reference_docs(misses)
        decodes = count_decodes(monkeypatch)
        svc, srv, _client = fabric_env(shard_size=6)
        with fabric_sweep(svc.fabric, misses) as box:
            stats = FabricWorker(
                srv.url,
                code_version=svc.fabric.code_version,
                max_shards=1,
                poll_s=0.02,
            ).run()
        # Every post was decoded and verified by the coordinator.
        assert stats.points == stats.posted == 6 and stats.rejected_posts == 0
        assert box["finished"] and "error" not in box
        assert as_docs(box["results"]) == expected
        kernels = ("daxpy", "dot", "fir4")
        assert decodes == {(name, trip): 1 for name in kernels for trip in (100, 200)}

    def test_a_pool_shard_decodes_each_loop_once(self, monkeypatch):
        misses = make_misses(kernels=("daxpy",), schedulers=("bsa", "two-phase"))
        expected = reference_docs(misses)
        decodes = count_decodes(monkeypatch)
        batch = _run_batch(
            [work_item(point, loop) for _key, (point, loop) in misses], None, None
        )
        assert {key: payload for key, payload, _meta in batch} == expected
        assert decodes == {("daxpy", 100): 1}


# ---------------------------------------------------------------------------
# Worker loop
# ---------------------------------------------------------------------------
class TestWorker:
    def test_client_from_url_variants(self):
        assert client_from_url("http://example.com:9000").base_url == (
            "http://example.com:9000"
        )
        assert client_from_url("example.com:9000").base_url == (
            "http://example.com:9000"
        )
        assert client_from_url("example.com").base_url.endswith(":8537")
        with pytest.raises(ValueError, match="scheme"):
            client_from_url("https://example.com")

    def test_version_mismatch_is_fatal(self, fabric_env):
        _svc, srv, _client = fabric_env()
        worker = FabricWorker(srv.url, code_version="bogus", poll_s=0.01)
        with pytest.raises(ClientError) as err:
            worker.run()
        assert err.value.status == 409

    def test_unreachable_coordinator(self):
        worker = FabricWorker("127.0.0.1:1", wait_healthy_s=0.2, poll_s=0.01)
        with pytest.raises(ClientError, match="never became healthy"):
            worker.run()

    def test_max_shards_stops_the_loop(self, fabric_env):
        svc, srv, _client = fabric_env(shard_size=2)
        misses = make_misses()  # 3 shards
        with fabric_sweep(svc.fabric, misses) as box:
            stats = FabricWorker(
                srv.url,
                code_version=svc.fabric.code_version,
                max_shards=1,
                poll_s=0.02,
            ).run()
            assert stats.shards == 1 and stats.points == 2
            # Exactly one lease claimed, and its results committed (and
            # their verdict read) before run() returned.
            counters = svc.fabric.stats()["counters"]
            assert counters["leases_issued"] == 1
            assert counters["points_completed"] == 2
            assert stats.posted == 2
            drain(svc.fabric)
        assert box["finished"] and "error" not in box
        assert as_docs(box["results"]) == reference_docs(misses)

    def test_lease_shares_a_family_schedules(self, fabric_env, monkeypatch):
        # Ladder on one bus at latency 2 is bus limited and passes the
        # Figure 6 test, so ALL and SELECTIVE both unroll it.
        loop = kernel_loop("ladder", trip_count=100)
        config = clustered_config(2, 1, 2)
        misses = []
        for policy in UnrollPolicy:
            point = scenario_for(loop, config, "bsa", policy)
            misses.append((point.canonical(), (point, loop)))
        expected = reference_docs(misses)
        calls = Counter()
        original = SchedulerBase.schedule

        def counting(self, graph):
            calls[graph.name] += 1
            return original(self, graph)

        monkeypatch.setattr(SchedulerBase, "schedule", counting)
        svc, srv, _client = fabric_env(shard_size=3)
        with fabric_sweep(svc.fabric, misses) as box:
            stats = FabricWorker(
                srv.url,
                code_version=svc.fabric.code_version,
                max_shards=1,
                poll_s=0.02,
            ).run()
            drain(svc.fabric)
        assert stats.shards == 1 and stats.points == 3
        assert box["finished"] and "error" not in box
        assert as_docs(box["results"]) == expected
        assert calls == {"ladder": 1, "ladder@x2": 1}

    @staticmethod
    def _count_points(monkeypatch, on_point):
        """Call ``on_point(n)`` as the worker starts its n-th point."""
        started = []

        def counting(items, *args):
            started.append(item_key(items[0]))
            on_point(len(started))
            return _run_batch(items, *args)

        monkeypatch.setattr("repro.fabric.worker._run_batch", counting)

    def test_next_shard_runs_while_the_post_is_handled(
        self, fabric_env, monkeypatch
    ):
        svc, srv, _client = fabric_env(shard_size=2)
        misses = make_misses()  # 3 shards
        expected = reference_docs(misses)
        second_shard = threading.Event()
        self._count_points(
            monkeypatch, lambda n: n == 3 and second_shard.set()
        )
        submit = svc.fabric.submit_results
        overlapped = []

        def held(data):
            # The first post is held until the worker has begun its
            # second shard; a worker that waits for the verdict never does.
            if not overlapped:
                overlapped.append(second_shard.wait(5.0))
            return submit(data)

        monkeypatch.setattr(svc.fabric, "submit_results", held)
        with fabric_sweep(svc.fabric, misses) as box:
            stats = FabricWorker(
                srv.url,
                code_version=svc.fabric.code_version,
                idle_exit_s=0.3,
                poll_s=0.02,
            ).run()
        assert box["finished"] and "error" not in box
        assert overlapped == [True]
        assert stats.shards == 3 and stats.posted == len(misses)
        assert as_docs(box["results"]) == expected

    def test_heartbeat_with_a_verdict_unread_reads_it_first(
        self, fabric_env, monkeypatch
    ):
        svc, srv, _client = fabric_env(shard_size=2)
        svc.fabric.heartbeat_s = 0.05  # a heartbeat is due at every point
        misses = make_misses(kernels=("daxpy", "dot"))  # 2 shards
        events = []
        second_shard = threading.Event()

        def on_point(n):
            events.append(("point", n))
            if n == 3:
                second_shard.set()
            time.sleep(0.1)

        self._count_points(monkeypatch, on_point)
        submit, claim = svc.fabric.submit_results, svc.fabric.claim

        def slow_submit(data):
            if second_shard.wait(5.0):
                time.sleep(0.2)  # the verdict stays unread past a heartbeat
            reply = submit(data)
            events.append(("verdict", data["lease"]))
            return reply

        def recording_claim(data):
            doc = claim(data)
            if "renew" in data:
                events.append(("renew", data["renew"]))
            elif doc.get("lease"):
                events.append(("lease", doc["lease"]))
            return doc

        monkeypatch.setattr(svc.fabric, "submit_results", slow_submit)
        monkeypatch.setattr(svc.fabric, "claim", recording_claim)
        with fabric_sweep(svc.fabric, misses) as box:
            stats = FabricWorker(
                srv.url,
                code_version=svc.fabric.code_version,
                idle_exit_s=0.3,
                poll_s=0.02,
            ).run()
        assert box["finished"] and "error" not in box
        assert stats.lost_leases == 0 and stats.posted == len(misses)
        first, second = [lease for kind, lease in events if kind == "lease"]
        # Shard 2 began with shard 1's verdict unread; the heartbeat
        # that fell due read that verdict, then renewed shard 2's lease.
        assert events.index(("verdict", first)) > events.index(("point", 3))
        renewal = events.index(("renew", second))
        assert events.index(("verdict", first)) < renewal
        assert renewal < events.index(("point", 4))

    @pytest.mark.parametrize(
        "error", [FabricConflict, FabricGone, FabricBadRequest],
        ids=["409", "410", "400"],
    )
    def test_error_verdicts(self, fabric_env, monkeypatch, error):
        # No heartbeat falls due (ttl/3); a mop-up gets a dead worker's
        # shard as a straggler copy.
        svc, srv, _client = fabric_env(
            shard_size=2, lease_ttl_s=3.0, straggler_after_s=0.1
        )
        misses = make_misses()  # 3 shards
        submit = svc.fabric.submit_results
        posts = []

        def rejecting_first(data):
            posts.append(data["lease"])
            reply = submit(data)  # committed, but the verdict says no
            if len(posts) == 1:
                raise error("injected verdict")
            return reply

        monkeypatch.setattr(svc.fabric, "submit_results", rejecting_first)
        worker = FabricWorker(
            srv.url,
            code_version=svc.fabric.code_version,
            idle_exit_s=0.3,
            poll_s=0.02,
        )
        with fabric_sweep(svc.fabric, misses) as box:
            if error is FabricBadRequest:
                with pytest.raises(ClientError) as err:
                    worker.run()
                assert err.value.status == 400
                # Read (and raised) after shard 2 ran, before the next claim.
                assert worker.stats.points == 4 and worker.stats.shards == 2
                drain(svc.fabric)
            else:
                stats = worker.run()
                assert stats.rejected_posts == 1
                assert stats.posted == len(misses) - 2
        assert box["finished"] and "error" not in box
        assert as_docs(box["results"]) == reference_docs(misses)

    def test_idle_exit(self, fabric_env):
        svc, srv, _client = fabric_env()
        stats = FabricWorker(
            srv.url,
            code_version=svc.fabric.code_version,
            idle_exit_s=0.2,
            poll_s=0.02,
        ).run()
        assert stats.shards == 0 and stats.idle_polls >= 1


# ---------------------------------------------------------------------------
# Service integration: distributed grids, metrics, figure byte-identity
# ---------------------------------------------------------------------------
class TestServiceDistributed:
    def test_smoke_grid_distributed_byte_identical(self, fabric_env, tmp_path):
        svc, srv, client = fabric_env(shard_size=2)
        worker = spawn(
            FabricWorker(
                srv.url,
                code_version=svc.fabric.code_version,
                idle_exit_s=2.0,
                poll_s=0.02,
            )
        )
        doc = client.sweep(grid="smoke", quick=True, distributed=True)
        assert doc["status"] == "done"
        assert doc["distributed"] is True
        worker.join()
        assert worker.error is None

        reference_ctx = ExperimentContext(
            cache=ResultCache(tmp_path / "ref-cache", code_version=CODE_VERSION),
            jobs=2,
        )
        assert doc["output"] == GRIDS["smoke"].run(reference_ctx, True)

        assert client.stats()["fabric"]["counters"]["points_completed"] == 4
        with urllib.request.urlopen(f"{srv.url}/metrics", timeout=10) as resp:
            families = parse_metrics(resp.read().decode())
        for family in (
            "fabric_leases_issued_total",
            "fabric_leases_expired_total",
            "fabric_shards_reissued_total",
            "fabric_points_completed_total",
            "fabric_results_duplicate_total",
            "fabric_results_rejected_total",
            "fabric_sweeps_active",
            "fabric_workers_seen",
            "fabric_lease_latency_seconds",
        ):
            assert family in families, f"missing metric family {family}"

    def test_reduced_fig8_grid_byte_identical(self, tmp_path):
        """The acceptance invariant on a real figure grid: a sweep run
        through the fabric reproduces the local ``--jobs`` path bit for
        bit (reduced dimensions keep this in test-suite time)."""
        dims = dict(bus_counts=(1,), latencies=(1,))
        suite = specfp95_suite()[:2]
        local_ctx = ExperimentContext(
            suite=suite,
            cache=ResultCache(tmp_path / "local", code_version=CODE_VERSION),
            jobs=2,
        )
        local_points = run_fig8(local_ctx, **dims)

        coordinator = FabricCoordinator(
            cache=ResultCache(tmp_path / "fabric", code_version=CODE_VERSION),
            shard_size=8,
            sweep_timeout_s=120.0,
        )
        fabric_ctx = ExperimentContext(
            suite=suite, cache=coordinator.cache, executor=coordinator.execute
        )
        stop = threading.Event()
        loops = [
            threading.Thread(
                target=_serve_until,
                args=(coordinator, stop),
                kwargs={"worker_id": f"loop-{i}"},
                daemon=True,
            )
            for i in range(2)
        ]
        for thread in loops:
            thread.start()
        try:
            fabric_points = run_fig8(fabric_ctx, **dims)
        finally:
            stop.set()
            for thread in loops:
                thread.join(10.0)
        assert fabric_points == local_points
        assert fig8_rows(fabric_points) == fig8_rows(local_points)
        counters = coordinator.stats()["counters"]
        assert counters["points_completed"] == coordinator.cache.writes


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestFabricCli:
    def test_worker_cli_idle_exit(self, tmp_path, capsys):
        # The CLI worker announces this process's default code version,
        # so the service must run a default-version cache to accept it.
        svc = SchedulingService(
            cache=ResultCache(tmp_path / "cli-cache"), workers=0
        )
        srv = ServiceServer(svc, port=0)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        try:
            main(
                ["worker", "--coordinator", srv.url, "--idle-exit", "0.2",
                 "--quiet"]
            )
        finally:
            srv.shutdown()
            srv.server_close()
            svc.close()
        out = capsys.readouterr().out
        assert "0 shard(s)" in out

    def test_sweep_coordinator_requires_distributed(self):
        with pytest.raises(SystemExit, match="requires --distributed"):
            main(["sweep", "smoke", "--coordinator", "http://127.0.0.1:1"])

    def test_sweep_cli_coordinator_mode(self, fabric_env, tmp_path, capsys):
        svc, srv, _client = fabric_env(shard_size=2)
        worker = spawn(
            FabricWorker(
                srv.url,
                code_version=svc.fabric.code_version,
                idle_exit_s=2.0,
                poll_s=0.02,
            )
        )
        out_path = tmp_path / "fabric-smoke.txt"
        main(
            [
                "sweep", "smoke", "--quick", "--distributed",
                "--coordinator", srv.url, "--out", str(out_path),
            ]
        )
        worker.join()
        assert worker.error is None
        capsys.readouterr()

        ref_path = tmp_path / "local-smoke.txt"
        reference_ctx = ExperimentContext(
            cache=ResultCache(tmp_path / "ref-cache", code_version=CODE_VERSION),
            jobs=1,
        )
        ref_path.write_text(GRIDS["smoke"].run(reference_ctx, True) + "\n")
        assert out_path.read_text() == ref_path.read_text()

    def test_sweep_cli_embedded_mode(self, tmp_path, capsys):
        port = _free_port()
        worker = spawn(
            FabricWorker(
                f"127.0.0.1:{port}",
                wait_healthy_s=20.0,
                idle_exit_s=10.0,
                poll_s=0.02,
            )
        )
        out_fabric = tmp_path / "fabric-smoke.txt"
        main(
            [
                "sweep", "smoke", "--quick", "--distributed",
                "--port", str(port), "--timeout", "60",
                "--out", str(out_fabric),
            ]
        )
        # The embedded coordinator shuts down with the sweep; the worker
        # sees 503/transport failure and exits cleanly.
        worker.join()
        assert worker.error is None
        assert worker.stats is not None and worker.stats.points == 4
        capsys.readouterr()

        out_local = tmp_path / "local-smoke.txt"
        main(["sweep", "smoke", "--quick", "--out", str(out_local)])
        capsys.readouterr()
        assert out_fabric.read_text() == out_local.read_text()
