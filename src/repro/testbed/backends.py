"""Pluggable storage backends for the content-addressed result cache.

:class:`~repro.testbed.cache.ResultCache` separates *policy* (schema
validation, LRU caps, quarantine accounting, hit/miss counters) from
*storage*.  Storage is a :class:`CacheBackend`: anything that can read,
write, delete, enumerate and quarantine opaque ``key -> bytes`` entries.
Two implementations ship:

- :class:`DirectoryBackend` — the sharded file tree
  (``<dir>/ab/abcd….json``); entries are separate files, writes are
  atomic per shard, and the cache keeps its aggregates in a separate
  sqlite index beside them.  Entries are plain JSON files you can
  ``cat``, and any number of processes sharing the directory see only
  complete entries.
- :class:`~repro.testbed.netproto.TcpCacheBackend` — every operation
  proxied to a ``repro cached serve`` endpoint, for workers on hosts
  that share no filesystem with the store.

Backends are selected by URL-style spec (``parse_backend_spec``):
``dir:PATH`` (or a bare path) for the sharded tree, ``tcp:HOST:PORT``
for a remote store.  The ``REPRO_CACHE_BACKEND`` environment variable
feeds the same parser, so benches and workers pick a shared backend
without code changes.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

__all__ = [
    "TMP_PREFIX", "QUARANTINE_DIR", "IndexEntry",
    "CacheBackend", "DirectoryBackend",
    "parse_backend_spec", "backend_from_env",
]

TMP_PREFIX = ".tmp-"
QUARANTINE_DIR = "quarantine"


@dataclass
class IndexEntry:
    """One indexed cache entry: identity, size, and LRU bookkeeping."""

    key: str
    size: int
    created: float
    accessed: float


class CacheBackend:
    """Protocol for result-cache storage (documented base, not enforced).

    A backend stores opaque ``key -> bytes`` entries and exposes:

    - ``name`` — short identifier for stats output;
    - ``root`` — a directory ``Path`` the cache may use for lock files;
    - ``lock_path`` — where the maintenance lock for this store lives;
    - ``index_capable`` — ``True`` when the backend also implements the
      index protocol (``upsert``/``touch``/``remove``/``count``/
      ``total_bytes``/``entries``/``lru``/``replace_all``) so
      :class:`~repro.testbed.cache.ResultCache` need not open a
      separate index file;
    - ``read(key) -> bytes | None``; ``write(key, data) -> size``
      (atomic: concurrent readers only ever observe complete entries);
      ``delete(key) -> bool``;
    - ``quarantine(key) -> bool`` (move a corrupt entry aside for
      post-mortem) and ``clear_quarantine() -> int``;
    - ``scan() -> Iterator[(key, size, mtime)]`` — the maintenance
      walk; hot paths never call it;
    - ``sweep_temp(max_age_s) -> int`` — file-tree housekeeping; stores
      without temp files return ``0``;
    - ``close()``.
    """

    name = "abstract"
    index_capable = False

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


# -- the sharded file tree -----------------------------------------------------


class DirectoryBackend(CacheBackend):
    """Sharded entry files: key ``abcd…`` lives at ``ab/abcd….json``.

    Owns everything that touches the filesystem — atomic writes, deletes,
    quarantine moves, the maintenance walk, and the stale-temp sweep —
    so :class:`~repro.testbed.cache.ResultCache` itself never composes
    paths.
    """

    name = "dir"
    index_capable = False

    def __init__(self, directory) -> None:
        self.directory = Path(directory)

    @property
    def root(self) -> Path:
        return self.directory

    @property
    def lock_path(self) -> Path:
        return self.directory / ".maintenance.lock"

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def read(self, key: str) -> Optional[bytes]:
        try:
            return self.path_for(key).read_bytes()
        except OSError:
            return None

    def write(self, key: str, data: bytes) -> int:
        """Atomically persist one entry; returns its size in bytes."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=TMP_PREFIX, suffix=".json"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return len(data)

    def delete(self, key: str) -> bool:
        try:
            os.unlink(self.path_for(key))
            return True
        except OSError:
            return False

    def quarantine(self, key: str) -> bool:
        """Move a corrupt entry to ``quarantine/`` for post-mortem."""
        source = self.path_for(key)
        target_dir = self.directory / QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(source, target_dir / source.name)
            return True
        except OSError:
            return False

    def clear_quarantine(self) -> int:
        removed = 0
        quarantine = self.directory / QUARANTINE_DIR
        if quarantine.is_dir():
            for path in quarantine.iterdir():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        return removed

    def _shard_dirs(self) -> Iterator[Path]:
        if not self.directory.is_dir():
            return
        for child in sorted(self.directory.iterdir()):
            if (child.is_dir() and child.name != QUARANTINE_DIR
                    and not child.name.startswith(".")):
                yield child

    def scan(self) -> Iterator[Tuple[str, int, float]]:
        """Yield ``(key, size, mtime)`` for every entry on disk.

        This is the maintenance walk (rebuild/verify/clear); the hot
        paths — ``get``/``__len__``/``stats`` — go through the index and
        never call it.
        """
        for shard in self._shard_dirs():
            for path in sorted(shard.glob("*.json")):
                if path.name.startswith("."):
                    continue  # in-flight or orphaned temp file
                try:
                    stat = path.stat()
                except OSError:
                    continue
                yield path.stem, stat.st_size, stat.st_mtime

    def sweep_temp(self, max_age_s: float = 0.0) -> int:
        """Remove ``.tmp-*`` files older than ``max_age_s`` seconds —
        the droppings of writers that crashed between create and rename."""
        removed = 0
        now = time.time()
        for parent in (self.directory, *self._shard_dirs()):
            if not parent.is_dir():
                continue
            for path in parent.glob(f"{TMP_PREFIX}*"):
                try:
                    if now - path.stat().st_mtime >= max_age_s:
                        path.unlink()
                        removed += 1
                except OSError:
                    continue
        return removed


# -- spec parsing --------------------------------------------------------------


_SUPPORTED_SPECS = "dir:PATH, tcp:HOST:PORT, or a bare directory path"


def parse_backend_spec(spec: Union[str, Path]) -> CacheBackend:
    """Build a backend from a URL-style spec.

    - ``dir:PATH`` / ``dir://PATH`` — the sharded directory tree;
    - ``tcp:HOST:PORT`` — a ``repro cached serve`` endpoint, every
      operation proxied over the framed wire protocol;
    - anything without a scheme — treated as a directory path.
    """
    text = str(spec)
    lowered = text.lower()
    if lowered.startswith("tcp:"):
        from .netproto import TcpCacheBackend  # noqa: avoids import cycle
        return TcpCacheBackend.from_spec(text)
    if lowered.startswith("dir:"):
        path = text[len("dir:"):]
        path = path[2:] if path.startswith("//") else path
        if not path:
            raise ValueError(
                f"directory backend spec needs a path: {spec!r}")
        return DirectoryBackend(path)
    scheme, sep, _rest = text.partition(":")
    if sep and scheme.isalnum() and os.sep not in scheme:
        raise ValueError(
            f"unknown cache backend scheme {scheme!r} in {spec!r};"
            f" supported: {_SUPPORTED_SPECS}"
        )
    return DirectoryBackend(text)


def backend_from_env(directory, *,
                     env_var: str = "REPRO_CACHE_BACKEND") -> CacheBackend:
    """Backend for ``directory``, honouring the selection env var.

    Unset/empty or ``dir`` keeps the sharded tree at ``directory``; a
    spec or path (``dir:/mnt/shared/cache``, ``tcp:HOST:PORT``) wins
    outright.  Any other bare word would read as a backend name, so it
    is rejected rather than silently taken for a relative directory.
    """
    raw = os.environ.get(env_var, "").strip()
    if raw in ("", "dir"):
        return DirectoryBackend(directory)
    if raw.isalnum():
        raise ValueError(
            f"{env_var}={raw!r} names no cache backend; supported: dir,"
            f" {_SUPPORTED_SPECS} (./{raw} for a relative one)"
        )
    return parse_backend_spec(raw)
