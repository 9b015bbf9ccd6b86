"""Coarse cross-process file locks for cache/queue maintenance.

The result cache's maintenance operations (index rebuild, ``gc``,
``verify``) were written for a single maintainer; with the distributed
grid mode several workers share one cache directory and may run them
concurrently.  :class:`FileLock` serialises
those critical sections with the weakest primitive that works on every
shared filesystem: an ``O_CREAT | O_EXCL`` lock file.

Crash safety comes from *stale-lock breaking* rather than from holding
OS-level locks: the lock file records who took it (host, pid) and when,
and a contender may break it when it is older than ``stale_seconds`` or
when its owner is a dead process on the same host.  Breaking is itself
race-free because the breaker renames the stale file to a unique name
before unlinking it — two breakers cannot both "win" the same stale
lock, and the winner still re-enters the normal create-exclusive loop.

This is a *coarse* advisory lock for rare maintenance walks, not a hot
path; waiters poll.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path
from typing import Optional

__all__ = ["FileLock", "LockTimeout"]


class LockTimeout(TimeoutError):
    """Raised when the lock could not be acquired within the timeout."""


class FileLock:
    """Advisory cross-process lock backed by an exclusive-create file.

    Parameters
    ----------
    path:
        Lock file location (its parent is created on demand).
    stale_seconds:
        Age after which a held lock is presumed abandoned and may be
        broken by a contender.  A lock owned by a dead pid on the same
        host is broken immediately.
    timeout_s:
        Default acquisition timeout for :meth:`acquire`.
    poll_s:
        Sleep between acquisition attempts.
    """

    def __init__(self, path, *, stale_seconds: float = 60.0,
                 timeout_s: float = 30.0, poll_s: float = 0.05) -> None:
        if stale_seconds <= 0:
            raise ValueError(f"stale_seconds must be > 0, got {stale_seconds}")
        self.path = Path(path)
        self.stale_seconds = stale_seconds
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        self._held = False

    # -- ownership metadata ------------------------------------------------

    @staticmethod
    def _owner_record() -> bytes:
        record = {"host": socket.gethostname(), "pid": os.getpid(),
                  "taken": time.time()}
        return (json.dumps(record) + "\n").encode("utf-8")

    def _read_owner(self) -> Optional[dict]:
        try:
            return json.loads(self.path.read_text())
        except (OSError, ValueError):
            return None  # torn write or vanished: age decides

    def _is_stale(self) -> bool:
        try:
            age = time.time() - self.path.stat().st_mtime
        except OSError:
            return False  # gone already; retry the create
        if age >= self.stale_seconds:
            return True
        owner = self._read_owner()
        if (owner is not None and owner.get("host") == socket.gethostname()
                and isinstance(owner.get("pid"), int)):
            try:
                os.kill(owner["pid"], 0)
            except ProcessLookupError:
                return True  # owner died on this host
            except OSError:
                pass
        return False

    def _break_stale(self) -> None:
        """Steal a stale lock without racing other breakers: rename to a
        unique grave name first, then unlink the grave."""
        grave = self.path.with_name(
            f"{self.path.name}.broken-{os.getpid()}-{time.time_ns()}")
        try:
            os.replace(self.path, grave)
        except OSError:
            return  # someone else broke or released it first
        try:
            os.unlink(grave)
        except OSError:
            pass

    # -- acquire / release -------------------------------------------------

    def try_acquire(self) -> bool:
        """One non-blocking attempt (breaking a stale lock if found)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if self._is_stale():
                self._break_stale()
            return False
        try:
            os.write(fd, self._owner_record())
        finally:
            os.close(fd)
        self._held = True
        return True

    def acquire(self, timeout_s: Optional[float] = None) -> "FileLock":
        if self._held:
            raise RuntimeError(f"lock {self.path} is already held")
        timeout = self.timeout_s if timeout_s is None else timeout_s
        deadline = time.monotonic() + timeout
        while True:
            if self.try_acquire():
                return self
            if time.monotonic() >= deadline:
                owner = self._read_owner()
                raise LockTimeout(
                    f"could not acquire {self.path} within {timeout:.1f}s"
                    f" (held by {owner!r})"
                )
            time.sleep(self.poll_s)

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            os.unlink(self.path)
        except OSError:
            pass  # broken by a contender that outlived our staleness

    @property
    def held(self) -> bool:
        return self._held

    def __enter__(self) -> "FileLock":
        if not self._held:
            self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
