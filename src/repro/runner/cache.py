"""Content-addressed on-disk result cache.

Each executed :class:`~repro.runner.scenario.ScenarioPoint` is stored as
one small JSON file whose name is
``sha256(point.canonical() + code_version)``.  The file holds the
:meth:`~repro.runner.scenario.PointResult.to_dict` payload — schedule
placements and transfers, no graph, no machine — plus the point's
``canonical()`` text and the code version it was written under, so an
entry names its own point.  Consequences:

* **resume for free** — an interrupted sweep re-hits every finished
  point on the next run and recomputes only the remainder;
* **cross-figure reuse** — figures that share scenario points (Figure 9
  reuses Figure 8's schedules) share cache entries, across processes
  and across sessions;
* **invalidation by construction** — the code version participates in
  the key, so bumping it (new release, changed result schema) orphans
  every stale entry instead of silently serving it; an entry whose
  recorded point or version is not the one probed is a miss too, and
  :meth:`ResultCache.gc` deletes the orphans;
* **decoded against the point** — a hit is decoded against the loop of
  the probing grid item and the point's machine
  (:meth:`~repro.runner.scenario.PointResult.from_dict`), never against a
  graph the entry brought with it.

Writes are atomic (``os.replace`` from a per-*writer* unique temp file
via :func:`tempfile.mkstemp`), so concurrent writers — worker processes,
service handler threads in one process, or a sweep killed mid-write —
can never publish a torn entry or trample each other's temp files; a
corrupt or unreadable file is treated as a miss and overwritten.  The cache root defaults to ``~/.cache/repro-vliw`` and is
overridable via ``$REPRO_VLIW_CACHE`` or per instance.

User-supplied workloads (frontend ``.loop`` programs, inline service
programs) cache exactly like catalogue loops: their full loop payload
rides in ``ScenarioPoint.program`` and therefore participates in
``canonical()`` — two textually different programs can never collide,
while catalogue points (empty ``program``, key omitted) keep their
historical hashes byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from ..ir.loop import Loop
from .scenario import PAYLOAD_ERRORS, RESULT_FORMAT, PointResult, ScenarioPoint

#: Environment variable overriding the default cache root.
CACHE_ENV_VAR = "REPRO_VLIW_CACHE"


def default_cache_root() -> Path:
    """The cache directory used when none is given.

    ``$REPRO_VLIW_CACHE`` when set, else ``$XDG_CACHE_HOME/repro-vliw``,
    else ``~/.cache/repro-vliw``.
    """
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-vliw"


#: Process-wide memo of the package source hash (the tree never changes
#: under a running process; workers each compute it once).
_SOURCE_HASH: str | None = None


def package_source_hash(root: Path | None = None) -> str:
    """A short content hash over every ``repro`` source file.

    Any scheduler edit — with or without a release bump — must orphan
    cached results, otherwise a stale cache silently replays old numbers.
    Hashes (relative path, file bytes) of ``src/repro/**/*.py`` in sorted
    order; the default tree is hashed once per process and memoised
    (tests pass explicit roots).
    """
    global _SOURCE_HASH
    if root is not None:
        return _hash_tree(root)
    if _SOURCE_HASH is None:
        _SOURCE_HASH = _hash_tree(Path(__file__).resolve().parent.parent)  # src/repro
    return _SOURCE_HASH


def _hash_tree(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        try:
            digest.update(path.read_bytes())
        except OSError:  # pragma: no cover - racing editor/installer
            continue
        digest.update(b"\0")
    return digest.hexdigest()[:12]


def default_code_version() -> str:
    """The code version mixed into every cache key.

    Combines the package release, the result-payload format and a content
    hash of the package sources, so a new release, a payload change *or
    any code edit* invalidates old entries.
    """
    from .. import __version__

    return f"{__version__}+fmt{RESULT_FORMAT}+src{package_source_hash()}"


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of cache contents plus this instance's hit counters.

    ``entries`` counts every entry file; ``orphaned`` counts those no
    process of this code version can hit (recorded under another code
    version, or unreadable), which :meth:`ResultCache.gc` deletes.
    """

    root: str
    code_version: str
    entries: int
    orphaned: int
    total_bytes: int
    hits: int
    misses: int
    writes: int

    def render(self) -> str:
        """Human-readable stats block (the ``repro-vliw cache`` output)."""
        return "\n".join(
            [
                f"cache root:    {self.root}",
                f"code version:  {self.code_version}",
                f"entries:       {self.entries - self.orphaned} current, "
                f"{self.orphaned} orphaned",
                f"size:          {self.total_bytes / 1024:.1f} KiB",
                f"this session:  {self.hits} hit(s), {self.misses} miss(es), "
                f"{self.writes} write(s)",
            ]
        )


class ResultCache:
    """Content-addressed store of :class:`PointResult` payloads.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first write); defaults to
        :func:`default_cache_root`.
    code_version:
        Version string mixed into every key; defaults to
        :func:`default_code_version`.  Tests pass explicit versions to
        exercise invalidation.
    """

    def __init__(
        self,
        root: str | os.PathLike[str] | None = None,
        *,
        code_version: str | None = None,
    ):
        self.root = Path(root) if root is not None else default_cache_root()
        self.code_version = code_version or default_code_version()
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # ------------------------------------------------------------------
    def key(self, point: ScenarioPoint) -> str:
        """The content address of *point* under this code version."""
        payload = point.canonical() + "\0" + self.code_version
        return hashlib.sha256(payload.encode()).hexdigest()

    def path_for(self, point: ScenarioPoint) -> Path:
        """Where *point*'s result lives (whether or not it exists yet)."""
        return Path(self._entry_file(self.key(point)))

    def _entry_file(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    # ------------------------------------------------------------------
    def get(self, point: ScenarioPoint, loop: Loop) -> PointResult | None:
        """The cached result for *point* run on *loop*, or ``None`` on a miss.

        The entry is decoded here against *loop* and the point's machine
        (see :meth:`PointResult.from_dict`), so corrupt, truncated or
        version-mismatched entries, entries recorded under another point
        or code version, and entries whose schedule does not decode count
        as misses (and will be overwritten by the next :meth:`put`).
        """
        try:
            with open(self._entry_file(self.key(point))) as fh:
                entry = json.load(fh)
            if not isinstance(entry, dict) or (
                entry.get("point"), entry.get("code_version")
            ) != (point.canonical(), self.code_version):
                raise ValueError("entry recorded under another point or version")
            result = PointResult.from_dict(entry, point, loop)
        except (OSError, *PAYLOAD_ERRORS):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, point: ScenarioPoint, result: PointResult) -> Path:
        """Persist *result* for *point* atomically; returns the path.

        The entry records the point's ``canonical()`` text and this
        cache's code version beside the result.

        The temp name must be unique per *writer*, not per process: the
        service executes batches on handler threads, so a pid-suffixed
        temp file would let two threads interleave writes and publish a
        torn entry.  ``mkstemp`` gives every writer its own file; the
        ``os.replace`` into place is atomic on POSIX and Windows.
        """
        path = self.path_for(point)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = result.to_dict()
        entry["point"] = point.canonical()
        entry["code_version"] = self.code_version
        payload = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem[:8], suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            raise
        self.writes += 1
        return path

    def __contains__(self, point: ScenarioPoint) -> bool:
        return self.path_for(point).is_file()

    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """Walk the cache directory: entry count, orphans and size."""
        entries = orphaned = total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - racing deletion
                continue
            entries += 1
            orphaned += not self._is_current(path)
        return CacheStats(
            root=str(self.root),
            code_version=self.code_version,
            entries=entries,
            orphaned=orphaned,
            total_bytes=total,
            hits=self.hits,
            misses=self.misses,
            writes=self.writes,
        )

    def gc(self) -> int:
        """Delete every orphaned entry (see :class:`CacheStats`); returns
        how many.  Current entries are left alone."""
        return self._remove(p for p in self._entry_paths() if not self._is_current(p))

    def clear(self) -> int:
        """Delete every entry (all versions); returns how many."""
        return self._remove(self._entry_paths())

    def _entry_paths(self) -> list[Path]:
        return list(self.root.glob("*/*.json")) if self.root.is_dir() else []

    def _is_current(self, path: Path) -> bool:
        """Whether the entry at *path* reads and names this code version."""
        try:
            entry = json.loads(path.read_bytes())
        except (OSError, ValueError):
            return False
        return (
            isinstance(entry, dict) and entry.get("code_version") == self.code_version
        )

    def _remove(self, paths) -> int:
        removed = 0
        for path in paths:
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing deletion
                continue
        if self.root.is_dir():
            for sub in self.root.iterdir():
                if sub.is_dir():
                    try:
                        sub.rmdir()
                    except OSError:
                        continue
        return removed
