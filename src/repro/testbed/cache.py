"""Content-addressed, sharded, size-capped on-disk cache for experiment
summaries.

The advisor workflow (Fig. 1) repeatedly sweeps a clip x policy x device
grid looking for the cheapest policy meeting a confidentiality target;
benches re-run the same grid on every invocation.  Each grid cell is
deterministic given (scenario content, experiment config, seed, code
version), so its per-run metrics can be persisted once and replayed
forever: a cache hit performs **zero** new simulations and reproduces the
summary byte-for-byte, because the same floats feed the same
:func:`repro.analysis.stats.summarize`.

Layout.  Entries are sharded by key prefix — the entry for key
``abcd…`` lives at ``<dir>/ab/abcd….json`` — so no single directory ever
holds the whole grid.  A persistent sqlite index
(:class:`SqliteIndexBackend`) records key, byte size, and
created/last-accessed timestamps, so ``__len__``,
:meth:`ResultCache.stats` and LRU eviction never walk the directory
tree.  The index is *derived* data: it is rebuilt from the shard files
whenever it is missing or blank, a corrupt one is deleted and recreated,
and it is never trusted over the files themselves, so deleting
``index.sqlite`` (or the whole cache directory) is always safe.

Writes stay atomic (tempfile + rename within the shard), so concurrent
bench processes sharing a cache directory can only ever observe complete
entries.  Size caps (``max_bytes`` / ``max_entries``) are enforced on
:meth:`ResultCache.put_runs` and by an explicit :meth:`ResultCache.gc`,
evicting least-recently-accessed entries first.  Payloads that read back
malformed — undecodable JSON, a missing ``"runs"`` key, fields a current
:class:`RunMetrics` does not know — are counted as ``corrupt``, moved to
``<dir>/quarantine/`` for post-mortem, and reported as misses instead of
crashing the engine.

Keys are SHA-256 digests of a canonical JSON payload that includes a
fingerprint of the simulation source code, so editing the simulator,
transport, energy, video-quality or policy code automatically invalidates
stale entries.

Storage is pluggable (:mod:`repro.testbed.backends`): the sharded
directory tree above is the default :class:`DirectoryBackend`; a
``tcp:HOST:PORT`` spec (or ``REPRO_CACHE_BACKEND``) proxies the store
and its index to a ``repro cached serve`` endpoint.  Maintenance
operations (index rebuild, ``gc``, ``verify``) are serialised across
processes by a coarse :class:`~repro.testbed.locks.FileLock` with
stale-lock breaking, so concurrent maintainers no longer race.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from dataclasses import MISSING, asdict, dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .backends import (
    QUARANTINE_DIR,
    CacheBackend,
    DirectoryBackend,
    IndexEntry,
    backend_from_env,
    parse_backend_spec,
)
from .locks import FileLock

__all__ = [
    "ResultCache", "RunMetrics", "stable_key", "code_fingerprint",
    "CacheBackend", "DirectoryBackend", "SqliteIndexBackend",
    "IndexEntry", "backend_from_env", "parse_backend_spec",
]


@dataclass(frozen=True)
class RunMetrics:
    """The scalar metrics of one experiment run — everything the paper's
    aggregate statistics consume, small enough to persist as JSON."""

    mean_delay_ms: float
    mean_waiting_ms: float
    average_power_w: float
    receiver_psnr_db: Optional[float] = None
    receiver_mos: Optional[float] = None
    eavesdropper_psnr_db: Optional[float] = None
    eavesdropper_mos: Optional[float] = None

    @classmethod
    def from_experiment_result(cls, result) -> "RunMetrics":
        return cls(
            mean_delay_ms=result.mean_delay_ms,
            mean_waiting_ms=result.mean_waiting_ms,
            average_power_w=result.average_power_w,
            receiver_psnr_db=result.receiver_psnr_db,
            receiver_mos=result.receiver_mos,
            eavesdropper_psnr_db=result.eavesdropper_psnr_db,
            eavesdropper_mos=result.eavesdropper_mos,
        )


_RUN_FIELDS = frozenset(field.name for field in fields(RunMetrics))
_REQUIRED_RUN_FIELDS = frozenset(
    field.name for field in fields(RunMetrics) if field.default is MISSING
)


def _parse_runs(payload: Any) -> Optional[List[RunMetrics]]:
    """``payload["runs"]`` as :class:`RunMetrics`, or ``None`` if the
    payload is structurally unusable (future schema, truncated writer,
    hand-edited file…) — the caller treats that as a corrupt entry."""
    if not isinstance(payload, dict):
        return None
    runs = payload.get("runs")
    if not isinstance(runs, list) or not runs:
        return None
    parsed = []
    for run in runs:
        if not isinstance(run, dict):
            return None
        names = set(run)
        if not names <= _RUN_FIELDS or not _REQUIRED_RUN_FIELDS <= names:
            return None
        for name, value in run.items():
            if value is None and name not in _REQUIRED_RUN_FIELDS:
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return None
        parsed.append(RunMetrics(**run))
    return parsed


def stable_key(payload: Dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload``.

    ``json.dumps`` with sorted keys and ``repr``-based float encoding is
    deterministic across processes and Python >= 3.1, which makes the
    digest a stable content address.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of the source files whose behaviour experiment results
    depend on; changing any of them invalidates every cache entry."""
    from ..core import frame_success, policies
    from ..video import concealment, packetizer, quality
    from ..wifi import dcf, phy
    from . import devices, energy, experiment, simulator, tracing, transport

    modules = (simulator, experiment, transport, energy, tracing, devices,
               packetizer, concealment, quality, frame_success, policies,
               dcf, phy)
    digest = hashlib.sha256()
    for module in modules:
        digest.update(Path(module.__file__).read_bytes())
    return digest.hexdigest()


# -- the index -----------------------------------------------------------------


class SqliteIndexBackend:
    """Key → (size, created, accessed) in a single sqlite file.

    The index is rebuildable derived data, so durability is deliberately
    traded for speed (``synchronous=OFF``): losing it in a crash costs a
    one-off rescan of the shards, never any results.
    """

    name = "sqlite"

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=OFF")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS entries ("
            " key TEXT PRIMARY KEY,"
            " size INTEGER NOT NULL,"
            " created REAL NOT NULL,"
            " accessed REAL NOT NULL)"
        )
        self._conn.commit()

    def upsert(self, entry: IndexEntry) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?)",
            (entry.key, entry.size, entry.created, entry.accessed),
        )
        self._conn.commit()

    def touch(self, key: str, size: int, accessed: float) -> None:
        cursor = self._conn.execute(
            "UPDATE entries SET size = ?, accessed = ? WHERE key = ?",
            (size, accessed, key),
        )
        if cursor.rowcount == 0:  # untracked file observed: self-heal
            self._conn.execute(
                "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?)",
                (key, size, accessed, accessed),
            )
        self._conn.commit()

    def remove(self, key: str) -> None:
        self._conn.execute("DELETE FROM entries WHERE key = ?", (key,))
        self._conn.commit()

    def count(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]

    def total_bytes(self) -> int:
        row = self._conn.execute(
            "SELECT COALESCE(SUM(size), 0) FROM entries").fetchone()
        return row[0]

    def entries(self) -> List[IndexEntry]:
        rows = self._conn.execute(
            "SELECT key, size, created, accessed FROM entries ORDER BY key"
        ).fetchall()
        return [IndexEntry(*row) for row in rows]

    def lru(self) -> List[IndexEntry]:
        rows = self._conn.execute(
            "SELECT key, size, created, accessed FROM entries"
            " ORDER BY accessed, created, key"
        ).fetchall()
        return [IndexEntry(*row) for row in rows]

    def replace_all(self, entries: List[IndexEntry]) -> None:
        self._conn.execute("DELETE FROM entries")
        self._conn.executemany(
            "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?)",
            [(e.key, e.size, e.created, e.accessed) for e in entries],
        )
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()


# -- the cache -----------------------------------------------------------------


class ResultCache:
    """Sharded, size-capped directory of cell results with an LRU index.

    Parameters
    ----------
    directory:
        Cache root (a path), or a URL-style backend spec such as
        ``tcp:HOST:PORT`` — see
        :func:`repro.testbed.backends.parse_backend_spec`.
    max_bytes, max_entries:
        Optional caps; least-recently-accessed entries are evicted on
        :meth:`put_runs` and :meth:`gc` until both hold.
    stale_tmp_seconds:
        Age after which :meth:`gc` deletes orphaned ``.tmp-*`` files left
        by crashed writers (``clear`` removes them regardless of age).
    backend:
        An explicit :class:`~repro.testbed.backends.CacheBackend`
        instance; overrides ``directory``.
    """

    #: How long a maintenance lock may sit before contenders break it.
    MAINTENANCE_LOCK_STALE_S = 120.0

    def __init__(self, directory=None, *, max_bytes: Optional[int] = None,
                 max_entries: Optional[int] = None,
                 stale_tmp_seconds: float = 3600.0,
                 backend: Optional[CacheBackend] = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1 or None, got {max_bytes}")
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 or None, got {max_entries}")
        if backend is None:
            if directory is None:
                raise ValueError("ResultCache needs a directory, a backend"
                                 " spec, or an explicit backend")
            if isinstance(directory, str) and ":" in directory.split(os.sep)[0]:
                backend = parse_backend_spec(directory)
            else:
                backend = DirectoryBackend(directory)
        self.backend = backend
        self.directory = backend.root
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.stale_tmp_seconds = stale_tmp_seconds
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0
        self._index = None

    @classmethod
    def from_spec(cls, spec: Union[str, Path], **kwargs) -> "ResultCache":
        """Cache over the backend named by a URL-style ``spec``."""
        return cls(backend=parse_backend_spec(spec), **kwargs)

    def _maintenance_lock(self) -> FileLock:
        """The coarse cross-process lock serialising maintenance walks
        (rebuild, gc, verify) — see the module docstring."""
        return FileLock(self.backend.lock_path,
                        stale_seconds=self.MAINTENANCE_LOCK_STALE_S)

    # -- index lifecycle ---------------------------------------------------

    def _open_index(self):
        if self.backend.index_capable:
            return self.backend  # remote stores answer index queries
        path = self.directory / "index.sqlite"
        try:
            return SqliteIndexBackend(path)
        except sqlite3.Error:
            # A corrupt index is just derived data: delete it and retry
            # once (a second failure is not corruption, so it raises).
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.unlink(f"{path}{suffix}")
                except OSError:
                    pass
            return SqliteIndexBackend(path)

    def _ensure_index(self, create: bool = False):
        if self._index is not None:
            return self._index
        if not self.directory.is_dir():
            if not create:
                return None
            self.directory.mkdir(parents=True, exist_ok=True)
        self._index = self._open_index()
        if (self._index.count() == 0
                and next(self.backend.scan(), None) is not None):
            # Another process may be doing the same rebuild over the
            # same files: serialise, then re-check under the lock.
            with self._maintenance_lock():
                if self._index.count() == 0:
                    # Lost/blank index over existing shards: rebuild from
                    # disk (the files are the truth, the index never is).
                    rebuilt = [IndexEntry(key, size, mtime, mtime)
                               for key, size, mtime in self.backend.scan()]
                    if rebuilt:
                        self._index.replace_all(rebuilt)
        return self._index

    def close(self) -> None:
        """Release the index handle (safe to call repeatedly)."""
        if self._index is not None:
            self._index.close()
            self._index = None

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- read path ---------------------------------------------------------

    def _read_payload(self, key: str) -> Tuple[Optional[Any], int]:
        """(decoded payload, size) for ``key``; quarantines and counts
        undecodable entries.  ``(None, 0)`` means miss."""
        index = self._ensure_index()
        data = self.backend.read(key)
        if data is None:
            if index is not None:
                index.remove(key)  # heal: file vanished under the index
            return None, 0
        try:
            return json.loads(data), len(data)
        except ValueError:
            self._quarantine(key)
            return None, 0

    def _quarantine(self, key: str) -> None:
        self.corrupt += 1
        if not self.backend.quarantine(key):
            self.backend.delete(key)
        index = self._ensure_index()
        if index is not None:
            index.remove(key)

    def _record_hit(self, key: str, size: int) -> None:
        self.hits += 1
        index = self._ensure_index(create=True)
        index.touch(key, size, time.time())

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Stored payload for ``key``, or ``None`` (counted as a miss)."""
        payload, size = self._read_payload(key)
        if payload is None:
            self.misses += 1
            return None
        self._record_hit(key, size)
        return payload

    def get_runs(self, key: str) -> Optional[List[RunMetrics]]:
        """Cached per-run metrics for ``key``, or ``None``.

        Entries that are valid JSON but structurally unusable (missing
        ``"runs"``, fields from a future schema…) are quarantined and
        reported as misses rather than raising into the engine.
        """
        payload, size = self._read_payload(key)
        if payload is None:
            self.misses += 1
            return None
        runs = _parse_runs(payload)
        if runs is None:
            self._quarantine(key)
            self.misses += 1
            return None
        self._record_hit(key, size)
        return runs

    # -- write path --------------------------------------------------------

    def put_runs(self, key: str, runs: List[RunMetrics],
                 meta: Optional[Dict[str, Any]] = None) -> None:
        """Persist one cell's per-run metrics (plus a readable ``meta``
        block describing what the key hashes, for debuggability), then
        enforce the size caps."""
        payload = {"meta": meta or {}, "runs": [asdict(run) for run in runs]}
        index = self._ensure_index(create=True)
        size = self.backend.write(key, json.dumps(payload).encode("utf-8"))
        now = time.time()
        index.upsert(IndexEntry(key, size, now, now))
        self._enforce_caps(protect=key)

    def _enforce_caps(self, protect: Optional[str] = None) -> int:
        if self.max_bytes is None and self.max_entries is None:
            return 0
        index = self._index
        if index is None:
            return 0
        count = index.count()
        total = index.total_bytes()

        def over() -> bool:
            return ((self.max_entries is not None and count > self.max_entries)
                    or (self.max_bytes is not None and total > self.max_bytes))

        evicted = 0
        if not over():
            return 0
        for entry in index.lru():
            if not over():
                break
            if entry.key == protect:
                continue  # never evict the entry just written
            self.backend.delete(entry.key)
            index.remove(entry.key)
            count -= 1
            total -= entry.size
            evicted += 1
            self.evictions += 1
        return evicted

    # -- maintenance -------------------------------------------------------

    def gc(self) -> Dict[str, int]:
        """Sweep stale writer temp files and enforce the size caps;
        returns what was done.  Safe to run from several processes at
        once: the walk is serialised by the maintenance lock."""
        report = {"evicted": 0, "tmp_removed": 0,
                  "entries": 0, "total_bytes": 0}
        index = self._ensure_index()
        if index is None:
            return report
        with self._maintenance_lock():
            report["tmp_removed"] = self.backend.sweep_temp(
                self.stale_tmp_seconds)
            report["evicted"] = self._enforce_caps()
            report["entries"] = index.count()
            report["total_bytes"] = index.total_bytes()
        return report

    def verify(self) -> Dict[str, int]:
        """Full reconcile: walk the store, quarantine undecodable or
        schema-invalid entries, and rebuild the index from the surviving
        files (keeping known access times).  The files win every
        disagreement.  Serialised across processes by the maintenance
        lock (two concurrent verifies would race each other's
        quarantine/rebuild)."""
        report = {"entries": 0, "total_bytes": 0, "corrupt": 0,
                  "adopted": 0, "stale_index": 0, "tmp_removed": 0}
        index = self._ensure_index()
        if index is None:
            return report
        with self._maintenance_lock():
            known = {entry.key: entry for entry in index.entries()}
            survivors: List[IndexEntry] = []
            seen = set()
            for key, size, mtime in list(self.backend.scan()):
                data = self.backend.read(key)
                if data is None:
                    continue  # vanished mid-walk
                try:
                    payload = json.loads(data)
                except ValueError:
                    payload = None
                if payload is None or _parse_runs(payload) is None:
                    self.corrupt += 1
                    report["corrupt"] += 1
                    if not self.backend.quarantine(key):
                        self.backend.delete(key)
                    continue
                previous = known.get(key)
                if previous is None:
                    report["adopted"] += 1
                    survivors.append(IndexEntry(key, size, mtime, mtime))
                else:
                    survivors.append(
                        IndexEntry(key, size,
                                   previous.created, previous.accessed))
                seen.add(key)
            report["stale_index"] = sum(1 for key in known if key not in seen)
            index.replace_all(survivors)
            report["tmp_removed"] = self.backend.sweep_temp(0.0)
        report["entries"] = len(survivors)
        report["total_bytes"] = sum(entry.size for entry in survivors)
        return report

    def clear(self) -> int:
        """Delete every entry (plus temp-file orphans and quarantined
        payloads); returns how many entries were removed."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        index = self._ensure_index()
        with self._maintenance_lock():
            for key, _size, _mtime in list(self.backend.scan()):
                if self.backend.delete(key):
                    removed += 1
            self.backend.sweep_temp(0.0)
            self.backend.clear_quarantine()
            if index is not None:
                index.replace_all([])
        return removed

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        index = self._ensure_index()
        return 0 if index is None else index.count()

    def total_bytes(self) -> int:
        index = self._ensure_index()
        return 0 if index is None else index.total_bytes()

    def stats(self) -> Dict[str, Any]:
        """Counters and index aggregates — O(1) in the entry count (never
        a directory walk)."""
        index = self._ensure_index()
        lookups = self.hits + self.misses
        return {
            "directory": str(self.directory),
            "backend": self.backend.name,
            "index_backend": None if index is None else index.name,
            "entries": 0 if index is None else index.count(),
            "total_bytes": 0 if index is None else index.total_bytes(),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
        }
