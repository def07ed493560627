"""First-class workload plugin registry.

Every schedulable loop and program is registered here, and new
workloads plug in by name, without touching the engine:

* :func:`register_workload` — decorator that registers a graph factory
  (or, with ``kind="program"``, a whole-program factory) under a
  canonical name with aliases, tags and declared parameters.  Duplicate
  names and alias collisions are rejected *at registration time*, so a
  broken plugin fails on import, not mid-sweep.
* :func:`resolve_workload` — name/alias lookup with parametrised
  instance syntax: ``resolve_workload("fir(taps=8)")`` partially applies
  the declared parameters and returns a zero-argument factory whose
  graph hashes distinctly from every other parametrisation.
* Discovery — third-party workloads load lazily from two channels: the
  ``repro_vliw.workloads`` entry-point group, and
  :data:`WORKLOAD_PATH_ENV` (``REPRO_VLIW_WORKLOAD_PATH``), an
  ``os.pathsep``-separated list of importable module names and/or
  ``.py`` file paths whose import runs their ``register_workload``
  decorators.

The shipped catalogues (:mod:`~repro.workloads.kernels`,
:mod:`~repro.workloads.livermore`, :mod:`~repro.workloads.specfp`)
register through here: ``workloads(tag="kernel")`` is the classic
kernel catalogue and ``workloads(tag="specfp")`` the SPECfp95 suite.
"""

from __future__ import annotations

import difflib
import functools
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..errors import WorkloadError

__all__ = [
    "WORKLOAD_PATH_ENV",
    "ENTRY_POINT_GROUP",
    "WorkloadSpec",
    "register_workload",
    "unregister_workload",
    "resolve_workload",
    "workload",
    "workloads",
    "workload_table",
    "load_plugins",
]

#: Environment variable listing extra workload modules (``os.pathsep``
#: separated; each entry is a dotted module name or a ``.py`` file path).
WORKLOAD_PATH_ENV = "REPRO_VLIW_WORKLOAD_PATH"

#: Entry-point group scanned for installed workload plugins.
ENTRY_POINT_GROUP = "repro_vliw.workloads"


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered workload: identity, factory and metadata.

    Attributes
    ----------
    name:
        Canonical registry name (unique; also the default instance name).
    factory:
        The registered callable.  For ``kind="graph"`` it returns a fresh
        :class:`~repro.ir.ddg.DependenceGraph`; for ``kind="program"`` a
        :class:`~repro.ir.loop.Program`.
    aliases:
        Additional accepted names (collision-checked at register time).
    tags:
        Free-form labels used for catalogue filtering
        (``repro-vliw workloads --tag``): ``"kernel"`` marks the classic
        catalogue, ``"parametric"`` the instantiable families, ...
    params:
        Declared keyword parameters and their defaults; only these keys
        are accepted by the ``name(key=value, ...)`` instance syntax, and
        only with a value of the default's type.
    ranges:
        Inclusive ``(low, high)`` bounds (``None`` for open) of numeric
        parameters, checked before the factory runs.
    kind:
        ``"graph"`` (a single loop body) or ``"program"`` (a multi-loop
        program, e.g. the SPECfp95 builders).
    description:
        One-line catalogue description (defaults to the factory
        docstring's first line).
    """

    name: str
    factory: Callable[..., Any]
    aliases: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()
    params: dict[str, Any] = field(default_factory=dict)
    ranges: dict[str, tuple[Any, Any]] = field(default_factory=dict)
    kind: str = "graph"
    description: str = ""


#: Registration order is preserved — it is the catalogue display order
#: and the order :func:`workloads` iterates in.
_REGISTRY: dict[str, WorkloadSpec] = {}
_ALIASES: dict[str, str] = {}
_PLUGINS_LOADED = False


def _known_names() -> list[str]:
    return sorted(_REGISTRY) + sorted(_ALIASES)


def _check_collision(name: str, owner: str) -> None:
    if name in _REGISTRY:
        raise WorkloadError(
            f"workload name {name!r} (registering {owner!r}) is already "
            f"registered"
        )
    if name in _ALIASES:
        raise WorkloadError(
            f"workload name {name!r} (registering {owner!r}) collides with "
            f"an alias of {_ALIASES[name]!r}"
        )


def register_workload(
    name: str,
    *,
    aliases: tuple[str, ...] = (),
    tags: tuple[str, ...] = (),
    params: dict[str, Any] | None = None,
    ranges: dict[str, tuple[Any, Any]] | None = None,
    kind: str = "graph",
    description: str | None = None,
):
    """Decorator registering a workload factory under *name*.

    Raises :class:`WorkloadError` immediately on a duplicate name, an
    alias colliding with any registered name or alias, or a range for an
    undeclared parameter — a misbehaving plugin fails at import time
    rather than shadowing a catalogue entry.
    """
    if kind not in ("graph", "program"):
        raise WorkloadError(
            f"workload {name!r}: kind must be 'graph' or 'program', "
            f"got {kind!r}"
        )
    undeclared = sorted(set(ranges or {}) - set(params or {}))
    if undeclared:
        raise WorkloadError(
            f"workload {name!r}: ranges for undeclared parameter(s) {undeclared}"
        )

    def decorator(factory):
        _check_collision(name, name)
        seen = {name}
        for alias in aliases:
            if alias in seen:
                raise WorkloadError(
                    f"workload {name!r}: duplicate alias {alias!r}"
                )
            _check_collision(alias, name)
            seen.add(alias)
        doc = description
        if doc is None:
            doc_lines = (factory.__doc__ or "").strip().splitlines()
            doc = doc_lines[0] if doc_lines else ""
        spec = WorkloadSpec(
            name=name,
            factory=factory,
            aliases=tuple(aliases),
            tags=tuple(tags),
            params=dict(params or {}),
            ranges=dict(ranges or {}),
            kind=kind,
            description=doc,
        )
        _REGISTRY[name] = spec
        for alias in spec.aliases:
            _ALIASES[alias] = name
        return factory

    return decorator


def unregister_workload(name: str) -> None:
    """Remove one registered workload (plugin teardown, tests)."""
    spec = _REGISTRY.pop(name, None)
    if spec is None:
        raise WorkloadError(f"workload {name!r} is not registered")
    for alias in spec.aliases:
        _ALIASES.pop(alias, None)


# ---------------------------------------------------------------------------
# Plugin discovery
# ---------------------------------------------------------------------------
def _load_path_entry(entry: str) -> None:
    """Import one ``REPRO_VLIW_WORKLOAD_PATH`` entry (module or file)."""
    import importlib
    import importlib.util

    if entry.endswith(".py") or os.path.sep in entry:
        module_name = f"_repro_workload_{os.path.basename(entry).removesuffix('.py')}"
        spec = importlib.util.spec_from_file_location(module_name, entry)
        if spec is None or spec.loader is None:
            raise WorkloadError(
                f"{WORKLOAD_PATH_ENV}: cannot load workload module {entry!r}"
            )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    else:
        importlib.import_module(entry)


def load_plugins(*, refresh: bool = False) -> None:
    """Load workload plugins from entry points and the env path (once).

    Import errors surface as :class:`WorkloadError` naming the offending
    entry, so a broken plugin cannot silently shrink the catalogue.
    """
    global _PLUGINS_LOADED
    if _PLUGINS_LOADED and not refresh:
        return
    _PLUGINS_LOADED = True
    # Imported on first use: importlib.metadata is slow to import, and
    # only plugin loading needs it.
    from importlib.metadata import entry_points

    for entry_point in entry_points(group=ENTRY_POINT_GROUP):
        try:
            entry_point.load()
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            raise WorkloadError(
                f"workload entry point {entry_point.name!r} failed to "
                f"load: {exc}"
            ) from exc
    for entry in os.environ.get(WORKLOAD_PATH_ENV, "").split(os.pathsep):
        entry = entry.strip()
        if not entry:
            continue
        try:
            _load_path_entry(entry)
        except WorkloadError:
            raise
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            raise WorkloadError(
                f"{WORKLOAD_PATH_ENV} entry {entry!r} failed to import: {exc}"
            ) from exc


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------
def _parse_value(text: str) -> Any:
    """One ``key=value`` right-hand side: int, float, or bare string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_instance(spec_text: str) -> tuple[str, dict[str, Any]]:
    """Split ``"fir(taps=8)"`` into ``("fir", {"taps": 8})``."""
    text = spec_text.strip()
    if "(" not in text:
        return text, {}
    if not text.endswith(")"):
        raise WorkloadError(
            f"malformed workload instance {spec_text!r}: expected "
            f"'name(key=value, ...)'"
        )
    base, arg_text = text[:-1].split("(", 1)
    base = base.strip()
    overrides: dict[str, Any] = {}
    arg_text = arg_text.strip()
    if arg_text:
        for part in arg_text.split(","):
            if "=" not in part:
                raise WorkloadError(
                    f"malformed workload instance {spec_text!r}: argument "
                    f"{part.strip()!r} is not 'key=value'"
                )
            key, value = part.split("=", 1)
            key = key.strip()
            if not key.isidentifier():
                raise WorkloadError(
                    f"malformed workload instance {spec_text!r}: bad "
                    f"parameter name {key!r}"
                )
            if key in overrides:
                raise WorkloadError(
                    f"malformed workload instance {spec_text!r}: duplicate "
                    f"parameter {key!r}"
                )
            overrides[key] = _parse_value(value.strip())
    return base, overrides


def _suggest(name: str) -> str | None:
    matches = difflib.get_close_matches(name, _known_names(), n=1, cutoff=0.6)
    return matches[0] if matches else None


def workload(name: str) -> WorkloadSpec:
    """Look up one registered :class:`WorkloadSpec` by name or alias."""
    load_plugins()
    canonical = _ALIASES.get(name, name)
    spec = _REGISTRY.get(canonical)
    if spec is None:
        raise WorkloadError(
            f"unknown workload {name!r}; known: {_known_names()}",
            suggestion=_suggest(name),
        )
    return spec


def resolve_workload(
    spec_text: str, *, kind: str = "graph"
) -> tuple[str, Callable[[], Any]]:
    """Resolve a workload name (or parametrised instance) to a factory.

    Returns ``(canonical_instance_name, zero_argument_factory)``.  The
    canonical instance name of ``"fir( taps=8 )"`` is ``"fir(taps=8)"``
    (explicit overrides only, sorted by key), so distinct
    parametrisations are distinct — and because factories name their
    graphs after the parameters, their graphs content-hash distinctly in
    the result cache too.  Each override must have its default's type
    (``bool`` is not ``int``) and lie in the workload's declared range;
    the factory never sees one that does not.
    """
    base, overrides = _parse_instance(spec_text)
    spec = workload(base)
    if spec.kind != kind:
        raise WorkloadError(
            f"workload {base!r} is a {spec.kind} workload, not a {kind}"
        )
    unknown = sorted(set(overrides) - set(spec.params))
    if unknown:
        raise WorkloadError(
            f"workload {base!r} accepts no parameter(s) {unknown}; "
            f"declared: {sorted(spec.params)}"
        )
    for key, value in overrides.items():
        _check_override(spec, key, value)
    if not overrides:
        return spec.name, spec.factory
    canonical = "{}({})".format(
        spec.name,
        ",".join(f"{key}={overrides[key]}" for key in sorted(overrides)),
    )
    return canonical, functools.partial(spec.factory, **overrides)


def _check_override(spec: WorkloadSpec, key: str, value: Any) -> None:
    """Raise :class:`WorkloadError` unless *value* may replace the
    default of parameter *key* of *spec*."""
    default = spec.params[key]
    if type(value) is not type(default):
        raise WorkloadError(
            f"workload {spec.name!r} parameter {key!r} takes "
            f"{type(default).__name__} values, got {value!r}"
        )
    low, high = spec.ranges.get(key, (None, None))
    if (low is not None and value < low) or (high is not None and value > high):
        raise WorkloadError(
            f"workload {spec.name!r} parameter {key!r} must lie in "
            f"[{'-inf' if low is None else low}, {'inf' if high is None else high}], "
            f"got {value!r}"
        )


def workloads(
    tag: str | None = None, *, discover: bool = True
) -> Iterator[WorkloadSpec]:
    """Registered workloads in registration order, optionally tag-filtered.

    ``discover=False`` skips plugin loading — used by the shipped
    catalogues at import time (a plugin importing :mod:`repro` back would
    otherwise recurse) and anywhere a snapshot of the built-ins suffices.
    """
    if discover:
        load_plugins()
    for spec in list(_REGISTRY.values()):
        if tag is None or tag in spec.tags:
            yield spec


def workload_table(tag: str | None = None) -> list[dict]:
    """The full catalogue as table rows (``repro-vliw workloads --list``)."""
    rows = []
    for spec in workloads(tag):
        rows.append(
            {
                "workload": spec.name,
                "kind": spec.kind,
                "aliases": ",".join(spec.aliases),
                "tags": ",".join(spec.tags),
                "params": ",".join(
                    f"{key}={value}" for key, value in spec.params.items()
                ),
                "description": spec.description,
            }
        )
    return rows
