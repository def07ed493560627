"""Tests for the parallel, cache-backed experiment engine (repro.runner).

Covers the acceptance criteria of the runner work:

* cache hit / miss / invalidation on a code-version bump;
* deterministic, byte-identical figure data at ``--jobs 1`` vs
  ``--jobs N``;
* resume semantics: a sweep that died mid-way recomputes only the
  missing points;
* a second figure invocation completes entirely from cache with zero
  scheduler calls.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import threading
from collections import Counter
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import asdict
from functools import partial

import pytest
from fabric_chaos import MISSHAPEN_ROWS, swap_cycles

from repro.arch.configs import (
    clustered_config,
    four_cluster_config,
    two_cluster_config,
    unified_config,
)
from repro.core.base import SchedulerBase
from repro.core.bsa import BsaScheduler
from repro.core.selective import SelectiveRule, UnrollPolicy
from repro.core.unified import UnifiedScheduler
from repro.errors import (
    GraphError,
    SchedulingError,
    SimulationError,
    VerificationError,
)
from repro.ir.ddg import DepKind
from repro.ir.unroll import unrolled
from repro.experiments import (
    ExperimentContext,
    fig8_grid,
    fig8_rows,
    run_crossval,
    run_fig8,
    suite_grid,
)
from repro.runner import (
    PointResult,
    ResultCache,
    execute_point,
    execute_points,
    run_sweep,
    scenario_for,
)
from repro.runner import engine
from repro.runner.engine import (
    SCHEDULERS,
    _run_batch,
    _shard,
    checked_result,
    sequential_fallback,
    store_result,
    work_item,
)
from repro.runner.scenario import (
    ScenarioPoint,
    graph_content_hash,
    machine_to_json,
    program_payload,
)
from repro.workloads.kernels import kernel_loop
from repro.workloads.registry import workload

FIG8_DIMS = dict(cluster_counts=(2,), bus_counts=(1,), latencies=(1,))


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache", code_version="test-v1")


def small_suite():
    return [workload("applu").factory()]


def small_ctx(cache=None, jobs=1):
    return ExperimentContext(suite=small_suite(), cache=cache, jobs=jobs)


def _hammer_cache(root, code_version, payload, rounds):
    """Re-store and re-read the same cache entries in a tight loop.

    Module level so the spawn context can pickle it into worker
    processes.  Returns the number of failed reads: with atomic writes
    there must be none, because ``get`` treats a torn or partially
    visible entry as a miss.
    """
    from repro.runner.scenario import ScenarioPoint

    cache = ResultCache(root, code_version=code_version)
    loop = kernel_loop("daxpy")
    pairs = []
    for point_doc, result_doc in payload:
        point = ScenarioPoint(**point_doc)
        pairs.append((point, PointResult.from_dict(result_doc, point, loop)))
    failures = 0
    for _ in range(rounds):
        for point, result in pairs:
            cache.put(point, result)
            if cache.get(point, loop) is None:
                failures += 1
    return failures


class TestScenarioPoint:
    def test_identity_is_content_addressed(self):
        """Same loop body, scheduler and machine -> same identity."""
        a = scenario_for(
            kernel_loop("daxpy"), two_cluster_config(), "bsa", UnrollPolicy.NONE
        )
        b = scenario_for(
            kernel_loop("daxpy"), two_cluster_config(), "bsa", UnrollPolicy.NONE
        )
        assert a == b
        assert a.canonical() == b.canonical()

    def test_identity_distinguishes_machine_and_policy(self):
        loop = kernel_loop("daxpy")
        base = scenario_for(loop, two_cluster_config(), "bsa", UnrollPolicy.NONE)
        other_cfg = scenario_for(
            loop, four_cluster_config(), "bsa", UnrollPolicy.NONE
        )
        other_policy = scenario_for(
            loop, two_cluster_config(), "bsa", UnrollPolicy.ALL
        )
        assert base.canonical() != other_cfg.canonical()
        assert base.canonical() != other_policy.canonical()

    def test_without_simulation_twin(self):
        point = scenario_for(
            kernel_loop("daxpy", trip_count=50),
            two_cluster_config(),
            "bsa",
            UnrollPolicy.NONE,
            simulate=True,
        )
        twin = point.without_simulation()
        assert point.simulate and point.niter == 50
        assert not twin.simulate and twin.niter == 0
        assert twin.graph_hash == point.graph_hash

    def test_result_roundtrip(self):
        loop = kernel_loop("daxpy")
        point = scenario_for(loop, two_cluster_config(), "bsa", UnrollPolicy.NONE)
        result = execute_point(point, loop)
        back = PointResult.from_dict(
            json.loads(json.dumps(result.to_dict())), point, loop
        )
        assert back.loop_result().ii == result.loop_result().ii
        assert back.unroll_factor == result.unroll_factor
        assert back.loop_result().schedule.graph is loop.graph


class TestResultCache:
    def test_miss_then_hit(self, cache):
        loop = kernel_loop("daxpy")
        point = scenario_for(loop, two_cluster_config(), "bsa", UnrollPolicy.NONE)
        assert cache.get(point, loop) is None
        result = execute_point(point, loop)
        cache.put(point, result)
        again = cache.get(point, loop)
        assert again is not None
        assert again.loop_result().ii == result.loop_result().ii
        assert cache.stats().entries == 1
        assert cache.stats().hits == 1 and cache.stats().misses == 1

    def test_code_version_bump_invalidates(self, tmp_path):
        """Entries written under one code version are unreachable under
        another — the invalidation mechanism of the whole cache."""
        loop = kernel_loop("daxpy")
        point = scenario_for(loop, two_cluster_config(), "bsa", UnrollPolicy.NONE)
        v1 = ResultCache(tmp_path / "c", code_version="v1")
        v1.put(point, execute_point(point, loop))
        assert v1.get(point, loop) is not None
        v2 = ResultCache(tmp_path / "c", code_version="v2")
        assert v2.get(point, loop) is None
        # the old entry is still on disk (clear wipes all versions)
        assert v2.stats().entries == 1
        assert v2.clear() == 1
        assert ResultCache(tmp_path / "c", code_version="v1").get(point, loop) is None

    def test_gc_removes_only_orphans(self, tmp_path):
        """An entry of another code version and an unreadable file are
        orphans: counted by stats, removed by gc; the current entry stays."""
        loop = kernel_loop("daxpy")
        plain, unrolled_all = (
            scenario_for(loop, two_cluster_config(), "bsa", policy)
            for policy in (UnrollPolicy.NONE, UnrollPolicy.ALL)
        )
        old = ResultCache(tmp_path / "c", code_version="v1")
        cache = ResultCache(tmp_path / "c", code_version="v2")
        old.put(plain, execute_point(plain, loop))
        cache.put(unrolled_all, execute_point(unrolled_all, loop))
        torn = cache.path_for(plain)
        torn.parent.mkdir(parents=True, exist_ok=True)
        torn.write_text('{"code_version": "v2", "schedule": {"ii"')
        stats = cache.stats()
        assert (stats.entries, stats.orphaned) == (3, 2)
        assert "entries:       1 current, 2 orphaned" in stats.render()
        assert old.stats().orphaned == 2  # v2's entry and the torn file
        assert cache.gc() == 2
        assert (cache.stats().entries, cache.stats().orphaned) == (1, 0)
        assert cache.get(unrolled_all, loop) is not None
        assert old.get(plain, loop) is None
        assert cache.gc() == 0

    def test_cache_cli_reports_and_removes_orphans(self, tmp_path, capsys):
        from repro.cli import main

        loop = kernel_loop("daxpy")
        point = scenario_for(loop, two_cluster_config(), "bsa", UnrollPolicy.NONE)
        ResultCache(tmp_path, code_version="v0").put(point, execute_point(point, loop))
        main(["cache", "stats", "--cache-dir", str(tmp_path)])
        assert "entries:       0 current, 1 orphaned" in capsys.readouterr().out
        main(["cache", "gc", "--cache-dir", str(tmp_path)])
        assert capsys.readouterr().out == "removed 1 orphaned cache entry\n"
        main(["cache", "gc", "--cache-dir", str(tmp_path)])
        assert capsys.readouterr().out == "removed 0 orphaned cache entries\n"
        assert list(tmp_path.iterdir()) == []

    def test_default_code_version_tracks_source_content(self, monkeypatch):
        """Any scheduler edit invalidates the cache, version bump or not.

        ``default_code_version`` must mix a content hash of the package
        sources into the key, so editing any ``src/repro/**/*.py`` file
        without touching ``__version__`` still orphans stale entries.
        """
        from repro.runner import cache as cache_mod

        monkeypatch.setattr(cache_mod, "_SOURCE_HASH", None)
        v1 = cache_mod.default_code_version()
        assert cache_mod.package_source_hash() in v1
        # memoised: the second call must not rescan the tree
        monkeypatch.setattr(cache_mod.Path, "rglob", None)
        assert cache_mod.default_code_version() == v1

    def test_source_hash_changes_with_content(self, tmp_path):
        from repro.runner.cache import package_source_hash

        tree = tmp_path / "pkg"
        (tree / "sub").mkdir(parents=True)
        (tree / "mod.py").write_text("x = 1\n")
        (tree / "sub" / "other.py").write_text("y = 1\n")
        h1 = package_source_hash(tree)
        (tree / "mod.py").write_text("x = 2\n")
        h2 = package_source_hash(tree)
        assert h1 != h2
        # renaming a file (same bytes) also changes the hash
        (tree / "mod.py").rename(tree / "mod2.py")
        h3 = package_source_hash(tree)
        assert h3 not in (h1, h2)

    def test_corrupt_entry_is_a_miss(self, cache):
        loop = kernel_loop("daxpy")
        point = scenario_for(loop, two_cluster_config(), "bsa", UnrollPolicy.NONE)
        cache.put(point, execute_point(point, loop))
        cache.path_for(point).write_text("{not json")
        assert cache.get(point, loop) is None

    def test_concurrent_writers_never_tear_entries(self, tmp_path):
        """Handler threads and worker processes hammering the same keys.

        The regression this guards: a pid-suffixed temp file let two
        threads of one process interleave writes and publish a torn
        entry.  With per-writer ``mkstemp`` temp files every read must
        parse, no ``.tmp`` files may leak, and each point ends up as
        exactly one byte-identical entry.
        """
        root = tmp_path / "stress"
        loop = kernel_loop("daxpy")
        points = [
            scenario_for(loop, config(), "bsa", policy)
            for config in (two_cluster_config, four_cluster_config)
            for policy in (UnrollPolicy.NONE, UnrollPolicy.ALL)
        ]
        results = {point: execute_point(point, loop) for point in points}
        payload = [
            (json.loads(point.canonical()), result.to_dict())
            for point, result in results.items()
        ]
        args = (str(root), "test-v1", payload, 30)

        thread_failures = []
        threads = [
            threading.Thread(
                target=lambda: thread_failures.append(_hammer_cache(*args))
            )
            for _ in range(4)
        ]
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=3, mp_context=spawn) as pool:
            futures = [pool.submit(_hammer_cache, *args) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            process_failures = [future.result() for future in futures]

        assert sum(thread_failures) + sum(process_failures) == 0
        assert list(root.rglob("*.tmp")) == []
        check = ResultCache(root, code_version="test-v1")
        assert check.stats().entries == len(points)
        for point, result in results.items():
            data = json.loads(check.path_for(point).read_text())
            assert data == {
                **result.to_dict(),
                "point": point.canonical(),
                "code_version": "test-v1",
            }

    def test_sim_point_cross_pollinates_schedule(self, cache):
        """Caching a simulated point also publishes its schedule twin."""
        loop = kernel_loop("daxpy", trip_count=20)
        point = scenario_for(
            loop, two_cluster_config(), "bsa", UnrollPolicy.NONE, simulate=True
        )
        store_result(cache, point, execute_point(point, loop))
        twin = cache.get(point.without_simulation(), loop)
        assert twin is not None and twin.sim is None
        assert cache.stats().entries == 2


def unknown_schedule_format(entry):
    """The entry's result format is one this code does not read."""
    entry["format"] = 99
    return entry


def operation_not_a_document(entry):
    entry["schedule"]["operations"] = ["x"]
    return entry


def entry_not_a_document(entry):
    return [entry]


def node_placed_twice(entry):
    ops = entry["schedule"]["operations"]
    ops.append(list(ops[0]))
    return entry


def node_omitted(entry):
    entry["schedule"]["operations"].pop()
    return entry


def node_outside_graph(entry):
    ops = entry["schedule"]["operations"]
    ops[-1][0] = max(node for node, *_ in ops) + 1
    return entry


def ii_zero(entry):
    entry["schedule"]["ii"] = 0
    return entry


def unroll_factor_no_policy_emits(entry):
    entry["unroll_factor"] = 3  # neither 1 nor the 2-cluster machine's 2
    return entry


def fallback_not_a_bool(entry):
    entry["fallback"] = 0
    return entry


def sim_number_missing(entry):
    del entry["sim"]["simulated_ipc"]
    return entry


def sim_key_unknown(entry):
    entry["sim"]["stall_cycles"] = 0
    return entry


def rewrite_entry(cache, point, edit):
    path = cache.path_for(point)
    entry = json.loads(path.read_text())
    path.write_text(json.dumps(edit(entry), sort_keys=True))


def daxpy_policy_grid():
    loop = kernel_loop("daxpy")
    return [
        (scenario_for(loop, two_cluster_config(), "bsa", policy), loop)
        for policy in UnrollPolicy
    ]


class TestCorruptSchedules:
    """An entry whose stored schedule does not decode is a miss."""

    @pytest.mark.parametrize(
        "edit",
        [
            unknown_schedule_format,
            operation_not_a_document,
            entry_not_a_document,
            node_placed_twice,
            node_omitted,
            node_outside_graph,
            ii_zero,
            unroll_factor_no_policy_emits,
            fallback_not_a_bool,
            *MISSHAPEN_ROWS,
        ],
    )
    def test_get_treats_bad_schedule_as_miss(self, cache, edit):
        loop = kernel_loop("daxpy")
        point = scenario_for(loop, two_cluster_config(), "bsa", UnrollPolicy.NONE)
        cache.put(point, execute_point(point, loop))
        assert cache.get(point, loop) is not None
        rewrite_entry(cache, point, edit)
        assert cache.get(point, loop) is None
        assert cache.stats().misses == 1

    @pytest.mark.parametrize("edit", [sim_number_missing, sim_key_unknown])
    def test_get_treats_bad_sim_record_as_miss(self, cache, edit):
        """A ``sim`` record decodes only as exactly the four numbers."""
        loop = kernel_loop("daxpy", trip_count=20)
        point = scenario_for(
            loop, two_cluster_config(), "bsa", UnrollPolicy.NONE, simulate=True
        )
        cache.put(point, execute_point(point, loop))
        assert cache.get(point, loop).sim is not None
        rewrite_entry(cache, point, edit)
        assert cache.get(point, loop) is None

    def test_run_grid_reexecutes_and_overwrites(self, cache):
        items = daxpy_policy_grid()
        ctx = small_ctx(cache=cache)
        ctx.run_grid(items)
        good = {point: cache.get(point, loop).to_dict() for point, loop in items}
        (first, _), (second, _) = items[:2]
        rewrite_entry(cache, first, node_omitted)
        rewrite_entry(cache, second, unknown_schedule_format)

        replay = small_ctx(cache=cache)
        stats = replay.run_grid(items)
        assert (stats.executed, stats.cached) == (2, len(items) - 2)
        for point, loop in items:
            assert cache.get(point, loop).to_dict() == good[point]


class TestEntryIdentity:
    """An entry names its point and code version; only a match is a hit."""

    def test_entry_under_another_points_key_is_a_miss(self, cache):
        loop = kernel_loop("daxpy")
        plain, selective = (
            scenario_for(loop, two_cluster_config(), "bsa", policy)
            for policy in (UnrollPolicy.NONE, UnrollPolicy.SELECTIVE)
        )
        cache.put(plain, execute_point(plain, loop))
        target = cache.path_for(selective)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(cache.path_for(plain).read_text())
        assert cache.get(selective, loop) is None
        cache.put(selective, execute_point(selective, loop))
        assert cache.get(selective, loop) is not None
        assert json.loads(target.read_text())["point"] == selective.canonical()

    def test_entry_from_another_code_version_is_a_miss(self, tmp_path):
        loop = kernel_loop("daxpy")
        point = scenario_for(loop, two_cluster_config(), "bsa", UnrollPolicy.NONE)
        v1 = ResultCache(tmp_path / "c", code_version="v1")
        v2 = ResultCache(tmp_path / "c", code_version="v2")
        v1.put(point, execute_point(point, loop))
        target = v2.path_for(point)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(v1.path_for(point).read_text())
        assert v2.get(point, loop) is None
        assert v1.get(point, loop) is not None

    def test_format_1_entry_is_a_miss(self, cache):
        """The layout that embedded the graph and machine is not read."""
        from repro.ir.serialize import schedule_to_dict

        loop = kernel_loop("daxpy")
        point = scenario_for(loop, two_cluster_config(), "bsa", UnrollPolicy.NONE)
        result = execute_point(point, loop)
        cache.put(point, result)
        rewrite_entry(
            cache,
            point,
            lambda entry: dict(
                entry,
                format=1,
                schedule=schedule_to_dict(result.loop_result().schedule),
            ),
        )
        assert cache.get(point, loop) is None
        cache.put(point, result)
        assert cache.get(point, loop) is not None


class TestGraphSharing:
    """Every result is decoded against its point's own graph, unrolled
    once per loop and factor, and no graph is decoded from the cache."""

    def items(self):
        loops = [kernel_loop(name) for name in ("daxpy", "dot")]
        return [
            (scenario_for(loop, config, "bsa", policy), loop)
            for loop in loops
            for config in (two_cluster_config(), four_cluster_config())
            for policy in UnrollPolicy
        ]

    def count_builds(self, monkeypatch):
        """Record every graph decoded from a dict and every graph unrolled."""
        from repro.ir import serialize, unroll as unroll_module

        calls = {"decoded": [], "unrolled": []}
        decode, unroll = serialize.graph_from_dict, unroll_module.unroll_graph

        def decoding(data, *args, **kwargs):
            calls["decoded"].append(data["name"])
            return decode(data, *args, **kwargs)

        def unrolling(graph, factor):
            calls["unrolled"].append((graph.name, factor))
            return unroll(graph, factor)

        monkeypatch.setattr(serialize, "graph_from_dict", decoding)
        monkeypatch.setattr(unroll_module, "unroll_graph", unrolling)
        return calls

    def test_warm_sweep_builds_each_graph_once(self, cache, monkeypatch):
        items = self.items()
        calls = self.count_builds(monkeypatch)
        run_sweep(items, cache=cache)
        # The cold sweep unrolls each loop once per cluster count ...
        assert sorted(calls["unrolled"]) == sorted(
            {(point.loop, point.config().n_clusters) for point, _loop in items}
        )
        calls["unrolled"].clear()
        # ... and the warm one neither unrolls nor decodes a graph.
        results, stats = run_sweep(items, cache=cache)
        assert stats.executed == 0
        assert calls == {"decoded": [], "unrolled": []}
        assert any(result.unroll_factor > 1 for result in results.values())
        for point, loop in items:
            result = results[point.canonical()]
            graph = result.loop_result().schedule.graph
            assert graph is unrolled(loop.graph, result.unroll_factor)

    def test_policies_and_machines_share_one_unrolled_graph(self, monkeypatch):
        loop = kernel_loop("daxpy")
        items = [
            (scenario_for(loop, clustered_config(4, 1, latency), "bsa", policy), loop)
            for latency in (1, 4)
            for policy in (UnrollPolicy.ALL, UnrollPolicy.SELECTIVE)
        ]
        calls = self.count_builds(monkeypatch)
        results, _stats = run_sweep(items)
        assert calls["unrolled"] == [(loop.name, 4)]
        shared = unrolled(loop.graph, 4)
        for point, _loop in items:
            result = results[point.canonical()]
            assert result.unroll_factor == 4
            assert result.loop_result().schedule.graph is shared

    def test_same_name_different_latency_gets_its_own_graph(self, cache):
        from repro.ir.loop import Loop
        from repro.ir.serialize import graph_from_dict, graph_to_dict

        plain = kernel_loop("daxpy")
        data = graph_to_dict(plain.graph)
        next(d for d in data["dependences"] if d["kind"] == "flow")["latency"] += 1
        slower = Loop(graph=graph_from_dict(data), trip_count=plain.trip_count)
        assert slower.name == plain.name
        items = [
            (scenario_for(loop, two_cluster_config(), "bsa", policy), loop)
            for loop in (plain, slower)
            for policy in (UnrollPolicy.NONE, UnrollPolicy.ALL)
        ]
        run_sweep(items, cache=cache)
        results, stats = run_sweep(items, cache=cache)
        assert stats.cached == len(items)
        by_policy = {}
        for point, loop in items:
            result = results[point.canonical()]
            graph = result.loop_result().schedule.graph
            if result.unroll_factor == 1:
                assert graph is loop.graph
            by_policy.setdefault(point.policy, []).append(graph)
        for a, b in by_policy.values():
            assert a is not b and a.name == b.name
            latencies = {(d.src, d.dst): d.latency for d in a.edges}
            assert any(d.latency == latencies[d.src, d.dst] + 1 for d in b.edges)

    def test_cold_in_process_grid_decodes_no_schedule(self, monkeypatch):
        from repro.runner import scenario

        calls = []
        decode = scenario.schedule_body_from_rows

        def counting(*args, **kwargs):
            calls.append(args)
            return decode(*args, **kwargs)

        monkeypatch.setattr(scenario, "schedule_body_from_rows", counting)
        ctx = ExperimentContext(suite=small_suite())
        items = self.items()
        ctx.run_grid(items)
        assert calls == []
        assert len(ctx.memo) == len(items)
        for point, _loop in items:
            result = ctx.memo[point.canonical()]
            assert result.base_schedule is None
            assert result.schedule.graph.name.startswith(point.loop)

    def test_loop_result_is_decoded_once(self, cache):
        loop = kernel_loop("daxpy")
        point = scenario_for(loop, two_cluster_config(), "bsa", UnrollPolicy.NONE)
        payload = execute_point(point, loop).to_dict()
        result = PointResult.from_dict(payload, point, loop)
        assert result.loop_result() is result.loop_result()
        bare = PointResult(**{k: v for k, v in payload.items() if k != "format"})
        with pytest.raises(ValueError, match="holds no schedule"):
            bare.loop_result()

    def test_content_hash_follows_mutation(self):
        graph = kernel_loop("daxpy").graph.copy()
        before = graph_content_hash(graph)
        node = graph.add_operation("fadd")
        after_op = graph_content_hash(graph)
        graph.add_dependence(node, 0, kind=DepKind.MEM)
        after_dep = graph_content_hash(graph)
        graph.name = "renamed"
        renamed = graph_content_hash(graph)
        assert len({before, after_op, after_dep, renamed}) == 4
        fresh = graph.copy()
        assert graph_content_hash(fresh) == renamed

    @pytest.mark.parametrize("program", [False, True])
    def test_canonical_is_memoised_soundly(self, program):
        loop = kernel_loop("daxpy")
        point = scenario_for(
            loop,
            two_cluster_config(),
            "bsa",
            UnrollPolicy.ALL,
            program=program_payload(loop) if program else "",
        )
        data = asdict(point)
        if not data["program"]:
            del data["program"]
        fresh = json.dumps(data, sort_keys=True, separators=(",", ":"))
        assert point.canonical() == fresh
        assert point.canonical() is point.canonical()
        assert pickle.loads(pickle.dumps(point)).canonical() == fresh
        rebuilt = ScenarioPoint(**json.loads(point.canonical()))
        assert rebuilt == point and rebuilt.canonical() == fresh


class TestRunSweep:
    def grid(self):
        suite = small_suite()
        return suite_grid(suite, two_cluster_config(), "bsa", UnrollPolicy.NONE)

    def test_duplicates_collapse(self, cache):
        items = self.grid()
        results, stats = run_sweep(items + items, cache=cache)
        assert stats.total == len(items)
        assert stats.executed == len(items)
        assert len(results) == len(items)

    def test_resume_after_partial_sweep(self, cache):
        """A killed sweep's surviving cache entries are not recomputed."""
        items = self.grid()
        half = items[: len(items) // 2]
        _, first = run_sweep(half, cache=cache)
        assert first.executed == len(half)
        _, second = run_sweep(items, cache=cache)
        assert second.cached == len(half)
        assert second.executed == len(items) - len(half)
        _, third = run_sweep(items, cache=cache)
        assert third.executed == 0 and third.cached == len(items)

    def test_fresh_recomputes_but_rewrites(self, cache):
        items = self.grid()
        run_sweep(items, cache=cache)
        _, stats = run_sweep(items, cache=cache, fresh=True)
        assert stats.executed == len(items) and stats.cached == 0
        _, warm = run_sweep(items, cache=cache)
        assert warm.executed == 0

    def test_parallel_matches_serial(self, cache):
        """Deterministic sharding: jobs=4 returns the same results."""
        items = self.grid()
        serial, _ = run_sweep(items)
        parallel, stats = run_sweep(items, jobs=4, cache=cache)
        assert stats.jobs == 4
        assert serial.keys() == parallel.keys()
        for key in serial:
            assert serial[key].to_dict() == parallel[key].to_dict()


class TestExecutePoints:
    """The execution core shared by run_sweep and the scheduling service."""

    def misses(self):
        suite = small_suite()
        items = suite_grid(suite, two_cluster_config(), "bsa", UnrollPolicy.NONE)
        return [(point.canonical(), (point, loop)) for point, loop in items]

    def test_serial_matches_sharded(self):
        misses = self.misses()
        serial = execute_points(misses, jobs=1)
        sharded = execute_points(misses, jobs=3)
        assert serial.keys() == sharded.keys()
        for key in serial:
            assert serial[key].to_dict() == sharded[key].to_dict()

    def test_injected_pool_is_reused_not_closed(self, cache):
        from repro.runner import make_worker_pool

        misses = self.misses()
        serial = execute_points(misses, jobs=1)
        pool = make_worker_pool(2)
        try:
            first = execute_points(misses, jobs=2, pool=pool, cache=cache)
            # the pool must survive the call: run a second batch on it
            second = execute_points(misses, jobs=2, pool=pool)
            for results in (first, second):
                assert results.keys() == serial.keys()
                for key in serial:
                    assert serial[key].to_dict() == results[key].to_dict()
            # pooled workers persisted their results to the shared cache
            for _key, (point, loop) in misses:
                assert cache.get(point, loop) is not None
        finally:
            pool.shutdown(wait=True)

    def test_run_sweep_accepts_injected_pool(self, cache):
        from repro.runner import make_worker_pool

        suite = small_suite()
        items = suite_grid(suite, two_cluster_config(), "bsa", UnrollPolicy.NONE)
        baseline, _ = run_sweep(items)
        pool = make_worker_pool(2)
        try:
            pooled, stats = run_sweep(
                items,
                jobs=2,
                execute=partial(execute_points, pool=pool),
                cache=cache,
            )
            assert stats.executed == len(items)
            assert baseline.keys() == pooled.keys()
            for key in baseline:
                assert baseline[key].to_dict() == pooled[key].to_dict()
        finally:
            pool.shutdown(wait=True)

    def test_empty_misses(self):
        assert execute_points([]) == {}

    def test_pool_return_that_fails_verification_raises(self):
        """A pooled result is believed only once it verifies against its
        point's own graph and machine."""
        with pytest.raises(VerificationError):
            execute_points(self.misses(), jobs=2, pool=LyingPool())

    @pytest.mark.parametrize("edit", MISSHAPEN_ROWS)
    def test_pool_return_with_a_misshapen_row_raises(self, edit):
        with pytest.raises(GraphError, match="row"):
            execute_points(self.misses(), jobs=2, pool=LyingPool(edit))

    @pytest.mark.parametrize("n_clusters", [2, 4])
    def test_fallback_with_transfers_is_recomputed(self, n_clusters):
        """A fallback whose values cross clusters decodes (readers come
        back sorted) to the point's own list schedule; a lie does not."""
        loop = kernel_loop("ladder", trip_count=20)
        config = clustered_config(n_clusters, 1, 4)
        # BSA schedules the ladder; ``exact`` is believed when it falls back.
        point = scenario_for(loop, config, "exact", UnrollPolicy.NONE)
        fallback = sequential_fallback(loop.graph, config)
        assert fallback.schedule.comms
        payload = json.loads(
            json.dumps(PointResult.from_loop_result(fallback).to_dict())
        )
        assert checked_result(payload, point, loop).loop_result().fallback
        with pytest.raises(VerificationError, match="list-schedule fallback"):
            checked_result(lie(payload), point, loop)

    def test_fallback_of_a_point_that_schedules_is_rejected(self):
        """The point's own list schedule, flagged ``fallback``, is believed
        only where the point's scheduler fails: BSA schedules daxpy on
        two clusters at II 1, so its II-10 fallback is a lie."""
        loop = kernel_loop("daxpy")
        config = two_cluster_config()
        point = scenario_for(loop, config, "bsa", UnrollPolicy.NONE)
        fallback = sequential_fallback(loop.graph, config)
        assert fallback.schedule.ii == 10
        payload = json.loads(
            json.dumps(PointResult.from_loop_result(fallback).to_dict())
        )
        with pytest.raises(VerificationError, match="flagged fallback"):
            checked_result(payload, point, loop)


def lie(payload):
    """Swap two operations' cycles in a result payload's schedule."""
    return swap_cycles([{"result": payload}])[0]["result"]


class LyingPool(Executor):
    """Runs each shard in-process, then applies *edit* (by default
    :func:`lie`) to every result payload it returns (a worker that lies)."""

    def __init__(self, edit=lie):
        self.edit = edit

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_result(
            [
                (key, self.edit(json.loads(json.dumps(payload))), meta)
                for key, payload, meta in fn(*args, **kwargs)
            ]
        )
        return future


def family_misses():
    """Every policy of three kernels on 2 and 4 clusters at bus latency 1
    and 4, policy-major as in Figure 8, so families interleave."""
    loops = [kernel_loop(name, trip_count=100) for name in ("daxpy", "fir4", "ladder")]
    misses = []
    for policy in UnrollPolicy:
        for n_clusters in (2, 4):
            for latency in (1, 4):
                config = clustered_config(n_clusters, 1, latency)
                for loop in loops:
                    point = scenario_for(loop, config, "bsa", policy)
                    misses.append((point.canonical(), (point, loop)))
    return misses


def family_of(miss):
    point = miss[1][0]
    return point.graph_hash, point.machine, point.scheduler


class NoUnrolledScheduler(BsaScheduler):
    """BSA that fails every unrolled graph, logging each attempt."""

    unrolled_attempts: list[str] = []

    def schedule(self, graph):
        if "@x" in graph.name:
            self.unrolled_attempts.append(graph.name)
            raise SchedulingError(f"{graph.name}: refused")
        return super().schedule(graph)


class TestFamilies:
    """Points that differ only in unrolling policy share their schedules."""

    def test_one_schedule_per_graph_machine_scheduler_and_factor(self, monkeypatch):
        calls = Counter()
        original = SchedulerBase.schedule

        def counting(self, graph):
            ident = (
                graph_content_hash(graph),
                machine_to_json(self.config),
                type(self).__name__,
            )
            calls[ident] += 1
            return original(self, graph)

        monkeypatch.setattr(SchedulerBase, "schedule", counting)
        results = execute_points(family_misses(), jobs=1)
        assert any(r.unroll_factor > 1 for r in results.values())
        assert calls and set(calls.values()) == {1}

    def test_failed_unrolled_schedule_is_tried_once(self, monkeypatch):
        # Ladder on one bus at latency 2 is bus limited and passes the
        # Figure 6 test, so alone both ALL and SELECTIVE would unroll.
        config = two_cluster_config(n_buses=1, bus_latency=2)
        loop = kernel_loop("ladder", trip_count=100)
        for policy in (UnrollPolicy.ALL, UnrollPolicy.SELECTIVE):
            point = scenario_for(loop, config, "bsa", policy)
            assert execute_point(point, loop).unroll_factor == 2

        monkeypatch.setattr(NoUnrolledScheduler, "unrolled_attempts", [])
        monkeypatch.setitem(SCHEDULERS, "no-unrolled", NoUnrolledScheduler)
        stubbed = [
            scenario_for(loop, config, "no-unrolled", policy) for policy in UnrollPolicy
        ]
        results = execute_points(
            [(point.canonical(), (point, loop)) for point in stubbed], jobs=1
        )
        assert NoUnrolledScheduler.unrolled_attempts == ["ladder@x2"]
        none, unroll_all, selective = (results[p.canonical()] for p in stubbed)
        for result in (unroll_all, selective):
            assert result.unroll_factor == 1
            assert not result.fallback
            assert result.schedule == none.schedule

    def test_results_in_miss_order_equal_points_alone(self):
        misses = family_misses()
        keys = [key for key, _item in misses]
        meta: dict = {}
        results = execute_points(misses, jobs=1, meta_out=meta)
        assert list(results) == keys
        assert list(meta) == keys
        batch = _run_batch(
            [work_item(point, loop) for _key, (point, loop) in misses], None, None
        )
        assert [key for key, _payload, _meta in batch] == keys
        for (key, (point, loop)), (_key, payload, _meta) in zip(misses, batch):
            alone = execute_point(point, loop).to_dict()
            assert results[key].to_dict() == alone
            assert payload == alone

    @pytest.mark.parametrize("jobs", [1, 2, 3, 5])
    def test_shards_keep_families_whole(self, jobs):
        misses = family_misses()
        shards = _shard(misses, jobs)
        owner = {}
        for index, shard in enumerate(shards):
            for miss in shard:
                assert owner.setdefault(family_of(miss), index) == index
        dealt = sorted(key for shard in shards for key, _item in shard)
        assert dealt == sorted(key for key, _item in misses)
        assert len(shards) == min(jobs, len(owner))

    @pytest.mark.parametrize("jobs", [1, 2, 3, 5])
    def test_single_point_families_shard_round_robin(self, jobs):
        misses = [
            miss
            for miss in family_misses()
            if miss[1][0].policy == UnrollPolicy.NONE.value
        ]
        assert len({family_of(miss) for miss in misses}) == len(misses)
        ordered = sorted(misses, key=lambda kv: kv[0])
        round_robin = [ordered[i::jobs] for i in range(jobs)]
        assert _shard(misses, jobs) == [shard for shard in round_robin if shard]


class TestFig8ThroughRunner:
    """The acceptance criteria: byte-identical figure data, full cache reuse."""

    def rows(self, ctx):
        return json.dumps(fig8_rows(run_fig8(ctx, **FIG8_DIMS)), sort_keys=True)

    def test_jobs1_vs_jobsN_byte_identical(self, cache):
        serial = self.rows(small_ctx())
        parallel = self.rows(small_ctx(cache=cache, jobs=4))
        assert serial == parallel

    def test_second_invocation_zero_scheduler_calls(self, cache, monkeypatch):
        first = small_ctx(cache=cache)
        first_rows = self.rows(first)
        assert first.stats.executed > 0

        calls = {"n": 0}
        original = SchedulerBase.schedule

        def counting(self, graph):
            calls["n"] += 1
            return original(self, graph)

        monkeypatch.setattr(SchedulerBase, "schedule", counting)
        monkeypatch.setattr(UnifiedScheduler, "schedule", counting)
        second = small_ctx(cache=cache)
        second_rows = self.rows(second)
        assert second_rows == first_rows
        assert calls["n"] == 0, "cached run must not invoke any scheduler"
        assert second.stats.executed == 0
        assert second.stats.cached == second.stats.total > 0

    def test_grid_declaration_covers_reduction(self):
        """Every point the Figure 8 reducer asks for is in the grid."""
        ctx = small_ctx()
        grid = fig8_grid(ctx, **FIG8_DIMS)
        stats = ctx.run_grid(grid)
        assert stats.executed == stats.total > 0
        run_fig8(ctx, **FIG8_DIMS)
        # the reduction found everything in the memo: nothing re-ran
        assert ctx.stats.executed == stats.executed


def starved_case():
    """A (program, machine) pair that forces the list-schedule fallback."""
    from repro.arch.cluster import MachineConfig
    from repro.arch.resources import BusSpec, FuSet
    from repro.ir.ddg import DependenceGraph
    from repro.ir.loop import Loop, Program

    g = DependenceGraph("fat")
    p1 = g.add_operation("fadd")
    p2 = g.add_operation("fadd")
    c = g.add_operation("fadd")
    g.add_dependence(p1, c)
    g.add_dependence(p2, c)
    prog = Program("p", [Loop(graph=g, trip_count=100)])
    # One cluster, one register: c reads two values in one cycle, so no
    # modulo schedule exists and the harness must fall back.
    starved = MachineConfig("starved", 1, FuSet(1, 1, 1), 1, BusSpec(0, 1))
    return prog, starved


class TestContextIntegration:
    def test_fallback_survives_cache_roundtrip(self, tmp_path):
        """A starved machine's fallback is recorded on replay too."""
        prog, starved = starved_case()
        cache = ResultCache(tmp_path / "c", code_version="v")

        ctx = ExperimentContext(suite=[prog], cache=cache)
        ctx.program_ipc(prog, starved, "bsa", UnrollPolicy.NONE)
        assert len(ctx.fallbacks) == 1

        replay = ExperimentContext(suite=[prog], cache=cache)
        replay.program_ipc(prog, starved, "bsa", UnrollPolicy.NONE)
        assert len(replay.fallbacks) == 1
        assert replay.stats.executed == 0

    def test_fallback_flag_survives_sim_prior(self, tmp_path):
        """Simulating on top of a memoised fallback schedule keeps the
        fallback flag in the cached sim point."""
        prog, starved = starved_case()
        loop = prog.loops[0]
        cache = ResultCache(tmp_path / "c", code_version="v")

        point = scenario_for(loop, starved, "bsa", UnrollPolicy.NONE)
        simulated = scenario_for(loop, starved, "bsa", UnrollPolicy.NONE, simulate=True)
        ctx = ExperimentContext(suite=[prog], cache=cache)
        ctx.results([(point, loop)])
        assert len(ctx.fallbacks) == 1
        ctx.results([(simulated, loop)])

        replay = ExperimentContext(suite=[prog], cache=cache)
        replay.results([(simulated, loop)])
        assert len(replay.fallbacks) == 1
        assert replay.stats.executed == 0

    def test_crossval_warms_fig8(self, cache):
        """Simulated sweeps publish their schedules for the figures."""
        ctx = ExperimentContext(suite=small_suite(), cache=cache)
        run_crossval(ctx, **FIG8_DIMS)
        later = ExperimentContext(suite=small_suite(), cache=cache)
        run_fig8(later, **FIG8_DIMS)
        assert later.stats.executed == 0

    def test_simulation_error_names_its_point(self, monkeypatch):
        """A simulator rejection escapes the grid with its point's label."""

        def reject(loop, result, memory=None):
            raise SimulationError("token violation")

        monkeypatch.setattr(engine, "crosscheck_loop", reject)
        ctx = ExperimentContext(suite=small_suite())
        loop = ctx.suite[0].eligible_loops()[0].name
        label = rf"{loop} @ unified \[bsa/no-unrolling\] sim\(niter=\d+\)"
        with pytest.raises(SimulationError, match=rf"^{label}: token violation$"):
            run_crossval(ctx, **FIG8_DIMS)

    def test_selective_rules_cache_separately(self, cache):
        ctx = small_ctx(cache=cache)
        loop = ctx.suite[0].eligible_loops()[0]
        cfg = four_cluster_config(1, 2)
        r1, r2 = ctx.results(
            [
                (scenario_for(loop, cfg, "bsa", UnrollPolicy.SELECTIVE, rule), loop)
                for rule in (SelectiveRule.MII_UNROLLED, SelectiveRule.LITERAL)
            ]
        )
        assert ctx.stats.executed == 2
        assert r1.schedule.is_complete and r2.schedule.is_complete

    def test_memo_object_identity(self):
        ctx = small_ctx()
        loop = ctx.suite[0].eligible_loops()[0]
        cfg = unified_config()
        [r1] = ctx.results([(scenario_for(loop, cfg, "bsa", UnrollPolicy.NONE), loop)])
        [r2] = ctx.results([(scenario_for(loop, cfg, "bsa", UnrollPolicy.NONE), loop)])
        assert r1 is r2


class TestSweepCli:
    def test_cache_stats_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cli-cache"
        main(["cache", "stats", "--cache-dir", str(cache_dir)])
        out = capsys.readouterr().out
        assert "entries:       0" in out
        main(["cache", "clear", "--cache-dir", str(cache_dir)])
        out = capsys.readouterr().out
        assert "removed 0" in out

    def test_sweep_lists_grids(self, capsys):
        from repro.cli import main

        main(["sweep", "--list"])
        out = capsys.readouterr().out
        for name in ("fig4", "fig8", "fig9", "fig10", "crossval", "ablation"):
            assert name in out

    def test_sweep_unknown_grid_exits(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "nonsense"])

    def test_schedule_list_prints_aliases(self, capsys):
        from repro.cli import main

        main(["schedule", "--list"])
        out = capsys.readouterr().out
        assert "dot_product" in out  # alias column
        assert "daxpy" in out

    def test_schedule_requires_kernel_or_list(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["schedule"])
