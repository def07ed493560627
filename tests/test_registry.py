"""Tests for the workload plugin registry (repro.workloads.registry).

Covers registration semantics (duplicate and alias collisions are
register-time errors), error ergonomics (:class:`WorkloadError` is a
``KeyError`` with did-you-mean suggestions), parametrized instances
(distinct cache identity per instance), plugin discovery via
``REPRO_VLIW_WORKLOAD_PATH``, and the ``workloads`` CLI verb staying in
lock-step with the registry.
"""

from __future__ import annotations

import pytest

from repro.arch.configs import unified_config
from repro.cli import main
from repro.core.selective import UnrollPolicy
from repro.errors import WorkloadError
from repro.ir.loop import Loop
from repro.runner import ResultCache, execute_points, scenario_for
from repro.workloads import (
    WORKLOAD_PATH_ENV,
    kernel_table,
    load_plugins,
    register_workload,
    resolve_kernel,
    resolve_workload,
    unregister_workload,
    workload,
    workloads,
)
from repro.workloads.kernels import ALL_KERNELS, daxpy

#: Overrides that must fail in ``resolve_workload``, before any factory
#: runs, and the message each one gets.
BAD_FIR_OVERRIDES = {
    "fir(taps=0)": r"must lie in \[1, inf\], got 0",
    "fir(taps=-1)": r"must lie in \[1, inf\], got -1",
    "fir(taps=x)": r"takes int values, got 'x'",
    "fir(taps=1.5)": r"takes int values, got 1.5",
    "fir(taps=True)": r"takes int values, got 'True'",
    "fir(taps=[1])": r"takes int values, got '\[1\]'",
    "fir(taps=)": r"takes int values, got ''",
}


@pytest.fixture()
def scratch_workload():
    """Register a throwaway workload; always unregister on the way out."""
    names = []

    def make(name, **kwargs):
        names.append(name)
        return register_workload(name, **kwargs)(daxpy)

    yield make
    for name in names:
        try:
            unregister_workload(name)
        except WorkloadError:
            pass


class TestRegistrationSemantics:
    def test_duplicate_name_rejected_at_register_time(self, scratch_workload):
        scratch_workload("zz-dup")
        with pytest.raises(WorkloadError, match="zz-dup"):
            register_workload("zz-dup")(daxpy)

    def test_name_colliding_with_catalogue_rejected(self):
        with pytest.raises(WorkloadError, match="daxpy"):
            register_workload("daxpy")(daxpy)

    def test_alias_collision_rejected(self, scratch_workload):
        with pytest.raises(WorkloadError, match="vector_add"):
            scratch_workload("zz-alias", aliases=("vector_add",))

    def test_alias_colliding_with_name_rejected(self, scratch_workload):
        with pytest.raises(WorkloadError, match="dot"):
            scratch_workload("zz-alias2", aliases=("dot",))

    def test_unregister_removes_name_and_aliases(self, scratch_workload):
        scratch_workload("zz-tmp", aliases=("zz-tmp-alias",))
        assert workload("zz-tmp-alias").name == "zz-tmp"
        unregister_workload("zz-tmp")
        with pytest.raises(WorkloadError):
            workload("zz-tmp")
        with pytest.raises(WorkloadError):
            workload("zz-tmp-alias")

    def test_registry_iteration_matches_kernel_shims(self):
        by_tag = {spec.name for spec in workloads(tag="kernel", discover=False)}
        assert by_tag == set(ALL_KERNELS)
        assert {row["kernel"] for row in kernel_table()} <= {
            spec.name for spec in workloads(discover=False)
        }


class TestErrorErgonomics:
    def test_workload_error_is_a_keyerror_with_suggestion(self):
        with pytest.raises(KeyError):
            workload("daxpi")
        with pytest.raises(WorkloadError) as err:
            workload("daxpi")
        assert err.value.suggestion == "daxpy"
        assert "did you mean 'daxpy'" in str(err.value)

    def test_resolve_kernel_shim_keeps_wording_and_suggestion(self):
        with pytest.raises(WorkloadError, match="unknown kernel") as err:
            resolve_kernel("stencil33")
        assert err.value.suggestion in ("stencil3", "stencil5")

    def test_kind_mismatch_is_reported(self):
        with pytest.raises(WorkloadError, match="program workload"):
            resolve_workload("tomcatv", kind="graph")

    def test_unknown_parameter_lists_declared_ones(self):
        with pytest.raises(WorkloadError, match="taps"):
            resolve_workload("fir(width=8)")

    @pytest.mark.parametrize("spec_text", sorted(BAD_FIR_OVERRIDES))
    def test_bad_override_is_rejected_before_the_factory(self, spec_text):
        with pytest.raises(WorkloadError, match=BAD_FIR_OVERRIDES[spec_text]):
            resolve_workload(spec_text)
        with pytest.raises(WorkloadError, match="parameter 'taps'"):
            resolve_kernel(spec_text)

    def test_override_of_a_float_default_must_be_a_float(self, scratch_workload):
        scratch_workload(
            "zz-scaled", params={"scale": 1.0}, ranges={"scale": (0.5, 2.0)}
        )
        assert resolve_workload("zz-scaled(scale=2.0)")[0] == "zz-scaled(scale=2.0)"
        with pytest.raises(WorkloadError, match="takes float values, got 2"):
            resolve_workload("zz-scaled(scale=2)")
        with pytest.raises(WorkloadError, match=r"must lie in \[0.5, 2.0\]"):
            resolve_workload("zz-scaled(scale=2.5)")

    def test_range_of_an_undeclared_parameter_rejected_at_register_time(
        self, scratch_workload
    ):
        with pytest.raises(WorkloadError, match="undeclared parameter"):
            scratch_workload("zz-ranged", params={"n": 1}, ranges={"m": (1, None)})


class TestParametrizedInstances:
    def test_canonical_instance_name_and_graph(self):
        name, factory = resolve_workload("fir(taps=8)")
        assert name == "fir(taps=8)"
        graph = factory()
        assert graph.name == "fir8"

    def test_instances_hash_distinctly_in_result_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", code_version="test-registry")
        config = unified_config()
        points = []
        for spec_text in ("fir(taps=4)", "fir(taps=8)"):
            _name, factory = resolve_workload(spec_text)
            loop = Loop(graph=factory(), trip_count=100)
            point = scenario_for(loop, config, "bsa", UnrollPolicy.NONE)
            points.append((point, loop))
        keys = {point.canonical() for point, _loop in points}
        assert len(keys) == 2, "fir(taps=4) and fir(taps=8) must not collide"
        results = execute_points(
            [(point.canonical(), (point, loop)) for point, loop in points],
            jobs=1,
        )
        for key, result in results.items():
            point = next(p for p, _l in points if p.canonical() == key)
            cache.put(point, result)
        for point, loop in points:
            assert cache.get(point, loop) is not None

    def test_instance_equals_direct_factory_call(self):
        from repro.workloads.kernels import fir_filter

        _name, factory = resolve_workload("fir(taps=6)")
        from repro.runner.scenario import graph_content_hash

        assert graph_content_hash(factory()) == graph_content_hash(
            fir_filter(taps=6)
        )


class TestPluginDiscovery:
    def test_workload_path_plugins_are_loaded(self, tmp_path, monkeypatch):
        plugin = tmp_path / "zz_plugin.py"
        plugin.write_text(
            "from repro.ir.builder import LoopBuilder\n"
            "from repro.workloads import register_workload\n"
            "@register_workload('zz-plugin-kernel', tags=('plugin-test',))\n"
            "def zz_plugin_kernel():\n"
            "    b = LoopBuilder('zz-plugin')\n"
            "    x = b.op('load', tag='a[i]')\n"
            "    b.op('store', x, tag='b[i]')\n"
            "    return b.build()\n"
        )
        monkeypatch.setenv(WORKLOAD_PATH_ENV, str(plugin))
        try:
            load_plugins(refresh=True)
            spec = workload("zz-plugin-kernel")
            assert "plugin-test" in spec.tags
            assert len(spec.factory()) == 2
        finally:
            try:
                unregister_workload("zz-plugin-kernel")
            except WorkloadError:
                pass

    def test_broken_plugin_is_a_workload_error(self, tmp_path, monkeypatch):
        plugin = tmp_path / "zz_broken.py"
        plugin.write_text("raise RuntimeError('boom')\n")
        monkeypatch.setenv(WORKLOAD_PATH_ENV, str(plugin))
        with pytest.raises(WorkloadError, match="zz_broken"):
            load_plugins(refresh=True)


class TestCliSurface:
    def test_workloads_list_matches_registry(self, capsys):
        main(["workloads", "--list"])
        out = capsys.readouterr().out
        listed = {
            line.split()[0]
            for line in out.splitlines()[2:]  # skip title + header
            if line.strip() and not set(line) <= {"-", " "}
        }
        expected = {spec.name for spec in workloads()}
        assert listed == expected

    def test_workloads_tag_filter(self, capsys):
        main(["workloads", "--tag", "livermore"])
        out = capsys.readouterr().out
        rows = [ln for ln in out.splitlines() if ln.startswith("ll")]
        assert {r.split()[0] for r in rows} == {
            spec.name for spec in workloads(tag="livermore")
        }

    def test_unknown_tag_exits_with_error(self):
        with pytest.raises(SystemExit):
            main(["workloads", "--tag", "no-such-tag"])
