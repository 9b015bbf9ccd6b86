"""Load generation and the reporting rule for the end-to-end benchmark.

- :class:`Connection`: one TCP connection speaking the ``repro`` framed
  wire protocol, used closed-loop (:meth:`Connection.recommend`) or
  pipelined (:func:`open_loop`).  Unlike ``AdvisorClient`` it never
  reconnects behind the caller's back, so a failure is counted, not
  hidden as latency.
- :func:`open_loop`: sends requests at fixed due times without waiting
  for answers and times each request from its due time, so a stall
  also charges the requests queued behind it.
- :func:`tail_percentile` / :func:`percentile`: a timing is reported as
  its median and the highest percentile with at least ten samples
  beyond it.
- :class:`AdvisorProcess`: a ``repro serve`` subprocess on a free
  loopback port.
"""

from __future__ import annotations

import math
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.testbed.netproto import (KIND_ERROR, PREFIX_LEN, RemoteError,
                                    decode_frame, encode_frame, parse_prefix)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10

BUSY_ATTEMPTS = 64
BUSY_SLEEP_S = 0.02


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it;
    the median when no percentile qualifies."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if round(count * (100.0 - pct) / 100.0, 6) >= MIN_BEYOND:
            best = pct
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (the median at 50)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class BusyError(RuntimeError):
    """The server answered ``busy`` on every attempt."""


class FrameBuffer:
    """Reassembles frames from a byte stream."""

    def __init__(self) -> None:
        self._data = bytearray()

    def feed(self, chunk: bytes) -> List[Tuple[Dict[str, Any], bytes]]:
        self._data += chunk
        frames = []
        while len(self._data) >= PREFIX_LEN:
            _, header_len, blob_len = parse_prefix(
                bytes(self._data[:PREFIX_LEN]))
            total = PREFIX_LEN + header_len + blob_len
            if len(self._data) < total:
                break
            kind, header, blob = decode_frame(bytes(self._data[:total]))
            del self._data[:total]
            if kind == KIND_ERROR:
                raise RemoteError(str(header.get("error")),
                                  kind=str(header.get("kind")))
            frames.append((header, blob))
        return frames


class Connection:
    """One framed-RPC connection to a ``repro`` server."""

    def __init__(self, host: str, port: int, *,
                 timeout_s: float = 150.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.frames = FrameBuffer()
        self._ready: deque = deque()

    def recv(self) -> Tuple[Dict[str, Any], bytes]:
        while not self._ready:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._ready.extend(self.frames.feed(chunk))
        return self._ready.popleft()

    def call(self, op: str, **fields: Any) -> Tuple[Dict[str, Any], bytes]:
        self.sock.sendall(encode_frame({"op": op, **fields}))
        return self.recv()

    def recommend(self, request: Dict[str, Any]
                  ) -> Tuple[Dict[str, Any], bytes]:
        """One ``advise.recommend`` round trip; ``busy`` is retried."""
        for _ in range(BUSY_ATTEMPTS):
            header, blob = self.call("advise.recommend", request=request)
            if not header.get("busy"):
                return header, blob
            time.sleep(BUSY_SLEEP_S)
        raise BusyError(f"still busy after {BUSY_ATTEMPTS} attempts")

    def close(self) -> None:
        self.sock.close()


def recommend_frame(request: Dict[str, Any]) -> bytes:
    return encode_frame({"op": "advise.recommend", "request": request})


@dataclass
class Sample:
    """One open-loop request: when it was due, sent and answered."""

    index: int
    due: float
    sent: float
    done: float
    header: Dict[str, Any]
    blob: bytes

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1e3


def open_loop(conn: Connection, frames: Sequence[bytes], rate_per_s: float,
              keep_going: Callable[[float], bool], *,
              start: Optional[float] = None,
              timeout_s: float = 60.0) -> List[Sample]:
    """Send ``frames`` (cycled) at ``rate_per_s`` on one connection.

    Request ``i`` is due at ``start + i / rate_per_s`` and is sent then,
    whether or not earlier answers have arrived; sending stops at the
    first due time for which ``keep_going(seconds since start)`` is
    false.  The server answers one connection in order, so answers are
    matched to requests first-in first-out.
    """
    sock = conn.sock
    pending: deque = deque()
    samples: List[Sample] = []
    start = time.perf_counter() if start is None else start
    index = 0
    sending = True
    with selectors.DefaultSelector() as selector:
        selector.register(sock, selectors.EVENT_READ)
        while sending or pending:
            now = time.perf_counter()
            wait = timeout_s
            if sending:
                due = start + index / rate_per_s
                if now >= due:
                    if keep_going(due - start):
                        sock.sendall(frames[index % len(frames)])
                        pending.append((index, due, time.perf_counter()))
                        index += 1
                    else:
                        sending = False
                    continue
                wait = due - now
            events = selector.select(wait)
            if not events:
                if not sending:
                    raise TimeoutError(
                        f"{len(pending)} open-loop answers outstanding")
                continue
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            arrived = time.perf_counter()
            for header, blob in conn.frames.feed(chunk):
                number, due, sent = pending.popleft()
                samples.append(Sample(number, due, sent, arrived,
                                      header, blob))
    return samples


def memory_mb(pid: Union[int, str] = "self") -> Tuple[float, float]:
    """``(VmRSS, VmHWM)`` of a process, in MiB."""
    status = Path(f"/proc/{pid}/status").read_text()
    values = []
    for field in ("VmRSS", "VmHWM"):
        match = re.search(rf"^{field}:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match is None:
            raise RuntimeError(f"no {field} in /proc/{pid}/status")
        values.append(int(match.group(1)) / 1024.0)
    return values[0], values[1]


class AdvisorProcess:
    """``repro serve`` in a subprocess on a free loopback port.

    With ``spans`` set the server runs under ``traced_serve.py``, which
    writes its layer spans to that file when stopped.  The server's
    stderr goes to ``server.log`` beside its cache: asyncio reports the
    connections a SIGINT cancels there, which is expected noise.
    """

    READY = re.compile(r"serving advisor on (\S+):(\d+)")

    def __init__(self, cache_dir: Path, *,
                 spans: Optional[Path] = None) -> None:
        serve_args = ["--port", "0", "--cache", f"dir:{cache_dir}"]
        if spans is None:
            argv = [sys.executable, "-m", "repro.cli", "serve", *serve_args]
        else:
            argv = [sys.executable, str(HERE / "traced_serve.py"),
                    str(spans), *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        cache_dir.parent.mkdir(parents=True, exist_ok=True)
        self.log = cache_dir.parent / "server.log"
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(argv, cwd=str(ROOT), env=env,
                                         stdout=subprocess.PIPE,
                                         stderr=log, text=True)
        line = self.proc.stdout.readline()
        match = self.READY.search(line)
        if match is None:
            self.kill()
            raise RuntimeError(f"advisor server did not start: {line!r}\n"
                               f"{self.log.read_text()}")
        self.host, self.port = match.group(1), int(match.group(2))

    def connect(self) -> Connection:
        return Connection(self.host, self.port)

    def stop(self, timeout_s: float = 60.0) -> None:
        """SIGINT (the traced server then writes its spans), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.kill()
        self.proc.stdout.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
