"""The four end-to-end workloads and the correctness checks they make.

Every workload takes a :class:`Plan` and returns a :class:`Measurement`
holding raw samples; ``run.py`` turns those into metrics.  Inputs come
only from ``Plan.seed``: request and clip seeds are derived through
``SeedSequence``, and the program under test sees only the generated
requests.  A run repeats the workload's unit, a fixed mix of
operations, while the next unit is predicted to end within
``Plan.seconds`` (see :func:`run_units`), and set-up is repeated
``Size.setup_repeats`` times.

Why these four (see README.md for the expected effect of each layer):

- ``advise-cold``: every request pays the full clip calibration and
  shares neither a clip nor a memo key with another, so a clip cache or
  single-flight must show no change here.
- ``advise-shared``: two connections send each key at the same instant,
  and the second session of a clip differs only in its DCF half, so all
  the work can be shared.
- ``serve-mixed``: an open-loop stream of memo hits runs while a second
  connection keeps a cold evaluation busy on the server, so the warm
  path's cost and the cold path's tax on it both show.
- ``grid-cells``: the researchers' path to the paper's figures; its
  time goes to the simulation engines, decode and quality, which the
  advisor never touches.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from loadgen import (AdvisorProcess, Connection, memory_mb, open_loop,
                     recommend_frame)

MOTIONS = ("slow", "medium", "fast")
POLICIES = ("none", "I", "I+25%P", "all")
WARM_RATE_PER_S = 200.0
#: The second session of an advise-shared clip: same clip, other DCF half.
SHARED_VARIANT = {"device": "htc-amaze", "flows": 8,
                  "mobility": "vehicular:hysteresis"}
#: The priming and pre-warm requests: the fast 12-frame cold path.
SHORT = {"frames": 12, "gop": 6}

GRID_CONFIGS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("legacy", {}),
    ("events", {"engine": "events"}),
    ("events-vehicular", {"engine": "events",
                          "mobility": "vehicular:hysteresis"}),
    ("events-4flows", {"engine": "events", "flows": 4,
                       "decode_video": False}),
    # 50 flows keeps a vector cell near the others' ~1 s, so the whole
    # 20-cell grid fits the run length.
    ("vector-50flows", {"engine": "vector", "flows": 50,
                        "decode_video": False}),
)


@dataclass(frozen=True)
class Size:
    """Input sizes of one benchmark mode."""

    frames: int              # frames of a default-size advisor request
    gop: int
    cold_unit: int           # advise-cold requests per unit
    shared_clips: int        # advise-shared clips per unit
    warm_keys: int           # serve-mixed memo entries
    grid_frames: int
    grid_configs: Tuple[Tuple[str, Dict[str, Any]], ...]
    grid_repeats: int
    setup_repeats: int


FULL = Size(frames=150, gop=30, cold_unit=6, shared_clips=2, warm_keys=16,
            grid_frames=150, grid_configs=GRID_CONFIGS, grid_repeats=5,
            setup_repeats=3)
TOY = Size(frames=12, gop=6, cold_unit=3, shared_clips=1, warm_keys=4,
           grid_frames=24, grid_configs=(GRID_CONFIGS[0], GRID_CONFIGS[-1]),
           grid_repeats=2, setup_repeats=1)


@dataclass(frozen=True)
class Plan:
    seed: int
    seconds: float
    size: Size
    traced: bool
    workdir: Path


@dataclass
class Measurement:
    """Raw samples of one workload run (times from ``perf_counter``)."""

    setup_s: List[float] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)  # timed ops
    cold_ms: List[float] = field(default_factory=list)  # computed afresh
    window: Tuple[float, float] = (0.0, 0.0)
    rss_mb: float = 0.0          # serving process, when the window ends
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    spans: List[Any] = field(default_factory=list)
    per_span_s: float = 0.0

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def derived_seed(seed: int, stream: str, index: int) -> int:
    """The ``index``-th input seed of ``stream``, from the run's seed."""
    sequence = np.random.SeedSequence(
        [seed, zlib.crc32(stream.encode()), index])
    return int(sequence.generate_state(1)[0])


def _request(motion: str, frames: int, gop: int, seed: int,
             **extra: Any) -> Dict[str, Any]:
    return {"motion": motion, "frames": frames, "gop": gop,
            "quantizer": 8, "seed": seed, **extra}


def local_answer(request: Dict[str, Any]) -> bytes:
    """The bytes ``repro serve`` must send for ``request``."""
    from repro.testbed.advisor_service import (ServiceRequest,
                                               encode_payload,
                                               evaluate_payload)
    return encode_payload(evaluate_payload(
        ServiceRequest.from_header(request)))


# -- the advisor server workloads ---------------------------------------------


class _Served:
    """A fresh ``repro serve`` made ready by ``prepare``, set up
    ``Size.setup_repeats`` times (once when traced); the last one stays."""

    def __init__(self, plan: Plan, m: Measurement,
                 prepare: Callable[[Connection], Any]) -> None:
        self.m = m
        repeats = 1 if plan.traced else plan.size.setup_repeats
        for attempt in range(repeats):
            started = time.perf_counter()
            workdir = plan.workdir / f"setup{attempt}"
            self.spans = workdir / "spans.jsonl" if plan.traced else None
            self.server = AdvisorProcess(workdir / "memo", spans=self.spans)
            self.conns: List[Connection] = []
            try:
                conn = self.connect()
                conn.call("ping")
                self.prepared = prepare(conn)
            except BaseException:
                self.close()
                raise
            m.setup_s.append(time.perf_counter() - started)
            if attempt < repeats - 1:
                self.close()

    def connect(self) -> Connection:
        conn = self.server.connect()
        self.conns.append(conn)
        return conn

    def stats(self) -> Dict[str, Any]:
        header, _ = self.conns[0].call("advise.stats")
        return header

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.server.kill()

    def finish(self, before: Dict[str, Any]) -> None:
        """Counters since ``before`` and memory, then stop the server
        and collect its spans."""
        after = self.stats()
        self.m.counters.update({
            "evaluations": after["evaluations"] - before["evaluations"],
            "memo_hits": after["memo"]["hits"] - before["memo"]["hits"],
            "memo_misses": (after["memo"]["misses"]
                            - before["memo"]["misses"]),
            "busy_rejected": _rejected(after) - _rejected(before),
        })
        self.m.rss_mb, self.m.peak_rss_mb = memory_mb(self.server.proc.pid)
        for conn in self.conns:
            conn.close()
        self.server.stop()
        if self.spans is not None:
            from layers import load_spans
            self.m.per_span_s, self.m.spans = load_spans(self.spans)


def _rejected(stats: Dict[str, Any]) -> int:
    return sum(load["rejected"] for load in stats["aps"].values())


def _prime(seed: int) -> Callable[[Connection], None]:
    def prepare(conn: Connection) -> None:
        header, _ = conn.recommend(_request("slow", seed=seed, **SHORT))
        if header.get("source") != "cold":
            raise RuntimeError(f"priming answer came from {header!r}")
    return prepare


def _call(m: Measurement, conn: Connection, request: Dict[str, Any],
          what: str) -> Optional[Tuple[float, Dict[str, Any], bytes]]:
    """One timed closed-loop request; ``None`` (and a failure) if it
    raised."""
    started = time.perf_counter()
    m.attempted += 1
    try:
        header, blob = conn.recommend(request)
    except Exception as exc:  # counted, and the run goes on
        m.fail(f"{what}: {exc!r}")
        return None
    return (time.perf_counter() - started) * 1e3, header, blob


def run_units(seconds: float, unit: Callable[[int], None]
              ) -> Tuple[float, float, int]:
    """Run ``unit(0)``, ``unit(1)``, ... while the next unit is predicted
    (from the mean so far) to end within ``seconds``; at least one.

    A unit is a fixed mix of operations, so every run measures the same
    mix and a faster program measures more units, not another mix.
    Returns the window's start, end and the unit count.
    """
    start = time.perf_counter()
    count = 0
    while True:
        unit(count)
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / count > seconds:
            return start, time.perf_counter(), count


def _cold_requests(plan: Plan, m: Measurement, conn: Connection, stream: str,
                   indices: range, latencies: List[float]
                   ) -> List[Tuple[Dict[str, Any], bytes]]:
    """Send the distinct default-size requests ``indices`` of ``stream``
    back to back, motion cycling slow, medium, fast; each must be a cold
    evaluation.  Returns the answers."""
    size = plan.size
    answers = []
    for index in indices:
        request = _request(MOTIONS[index % len(MOTIONS)], size.frames,
                           size.gop, derived_seed(plan.seed, stream, index))
        result = _call(m, conn, request, f"cold request {index}")
        if result is None:
            continue
        latency, header, blob = result
        if header.get("source") != "cold":
            m.fail(f"cold request {index} came from"
                   f" {header.get('source')!r}")
        else:
            latencies.append(latency)
        answers.append((request, blob))
    return answers


def advise_cold(plan: Plan) -> Measurement:
    m = Measurement()
    served = _Served(plan, m, _prime(derived_seed(plan.seed, "prime", 0)))
    conn = served.conns[0]
    per_unit = plan.size.cold_unit
    first: List[Tuple[Dict[str, Any], bytes]] = []

    def unit(number: int) -> None:
        answers = _cold_requests(
            plan, m, conn, "advise-cold",
            range(number * per_unit, (number + 1) * per_unit),
            m.latencies_ms)
        if not first:
            first.extend(answers[:1])

    try:
        before = served.stats()
        start, end, units = run_units(plan.seconds, unit)
        m.window = (start, end)
        m.counters["keys"] = units * per_unit
        served.finish(before)
    except BaseException:
        served.close()
        raise
    m.cold_ms = list(m.latencies_ms)
    if first and local_answer(first[0][0]) != first[0][1]:
        m.problems.append("advise-cold request 0: served bytes differ"
                          " from a local evaluate_payload")
    return m


def advise_shared(plan: Plan) -> Measurement:
    m = Measurement()
    served = _Served(plan, m, _prime(derived_seed(plan.seed, "prime", 0)))
    size = plan.size
    barrier = threading.Barrier(2)
    inbox: "queue.Queue[Optional[Dict[str, Any]]]" = queue.Queue()
    outbox: queue.Queue = queue.Queue()

    def timed(conn: Connection, request: Dict[str, Any]):
        barrier.wait(timeout=60.0)
        started = time.perf_counter()
        try:
            header, blob = conn.recommend(request)
        except Exception as exc:  # reported by the main thread
            return exc
        return (time.perf_counter() - started) * 1e3, header, blob

    def second_connection(conn: Connection) -> None:
        for request in iter(inbox.get, None):
            outbox.put(timed(conn, request))

    def unit(number: int) -> None:
        """Both sessions of ``Size.shared_clips`` clips, each sent on both
        connections."""
        for clip in range(number * size.shared_clips,
                          (number + 1) * size.shared_clips):
            shared_clip(clip)

    def shared_clip(clip: int) -> None:
        for session in (0, 1):
            request = _request(
                MOTIONS[clip % len(MOTIONS)], size.frames, size.gop,
                derived_seed(plan.seed, "advise-shared", clip),
                **(SHARED_VARIANT if session else {}))
            inbox.put(request)
            pair = [timed(conn_a, request), outbox.get(timeout=600.0)]
            m.attempted += 2
            answers = []
            for result in pair:
                if isinstance(result, BaseException):
                    m.fail(f"clip {clip} session {session}: {result!r}")
                else:
                    m.latencies_ms.append(result[0])
                    answers.append(result[2])
            if len(answers) == 2 and answers[0] != answers[1]:
                m.fail(f"clip {clip} session {session}: the two concurrent"
                       " answers differ")

    helper: Optional[threading.Thread] = None
    try:
        conn_a, conn_b = served.conns[0], served.connect()
        helper = threading.Thread(target=second_connection, args=(conn_b,),
                                  name="e2e-shared", daemon=True)
        helper.start()
        before = served.stats()
        start, end, units = run_units(plan.seconds, unit)
        m.window = (start, end)
        m.counters["keys"] = 2 * units * size.shared_clips
        inbox.put(None)
        helper.join(timeout=60.0)
        served.finish(before)
    except BaseException:
        inbox.put(None)
        served.close()
        raise
    m.cold_ms = list(m.latencies_ms)
    return m


def serve_mixed(plan: Plan) -> Measurement:
    m = Measurement()
    size = plan.size
    warm = [_request(MOTIONS[i % 3],
                     seed=derived_seed(plan.seed, "serve-mixed/warm", i),
                     **SHORT)
            for i in range(size.warm_keys)]

    def prewarm(conn: Connection) -> List[bytes]:
        answers = []
        for request in warm:
            header, blob = conn.recommend(request)
            if header.get("source") != "cold":
                raise RuntimeError(f"pre-warm answer came from {header!r}")
            answers.append(blob)
        return answers

    served = _Served(plan, m, prewarm)
    warm_answers: List[bytes] = served.prepared
    cold_done = threading.Event()
    outcome: Dict[str, Any] = {}
    frames = [recommend_frame(request) for request in warm]

    def warm_stream(conn: Connection, start: float) -> None:
        try:
            outcome["samples"] = open_loop(
                conn, frames, WARM_RATE_PER_S,
                lambda elapsed: not cold_done.is_set(), start=start)
        except Exception as exc:  # reported by the main thread
            outcome["error"] = exc

    def cold_unit(number: int) -> None:
        # One cold request per unit, so the mixed traffic lasts close to
        # the whole run length.
        _cold_requests(plan, m, conn_cold, "serve-mixed/cold",
                       range(number, number + 1), m.cold_ms)

    streamer: Optional[threading.Thread] = None
    try:
        conn_cold, conn_warm = served.conns[0], served.connect()
        before = served.stats()
        start = time.perf_counter()
        # The warm stream runs until the cold stream ends, so every cold
        # request runs under warm traffic.
        streamer = threading.Thread(target=warm_stream,
                                    args=(conn_warm, start),
                                    name="e2e-warm", daemon=True)
        streamer.start()
        try:
            _, _, units = run_units(plan.seconds, cold_unit)
        finally:
            cold_done.set()
            streamer.join(timeout=120.0)
        # The warm keys were evaluated in setup.
        m.counters["keys"] = units
        served.finish(before)
    except BaseException:
        cold_done.set()
        served.close()
        raise
    if "error" in outcome:
        m.attempted += 1
        m.fail(f"warm stream: {outcome['error']!r}")
    samples = outcome.get("samples", [])
    for sample in samples:
        m.attempted += 1
        key = sample.index % len(warm)
        if sample.header.get("source") != "memo":
            m.fail(f"warm request {sample.index} came from"
                   f" {sample.header.get('source')!r}")
        elif sample.blob != warm_answers[key]:
            m.fail(f"warm request {sample.index}: bytes differ from the"
                   " pre-warm answer")
        else:
            m.latencies_ms.append(sample.latency_ms)
        m.late_ms.append(sample.late_ms)
    if samples:
        m.window = (start, samples[-1].done)
    if local_answer(warm[0]) != warm_answers[0]:
        m.problems.append("serve-mixed pre-warm answer 0 differs from a"
                          " local evaluate_payload")
    return m


# -- the experiment grid -------------------------------------------------------


def _summary_problem(summary, config, repeats: int) -> Optional[str]:
    if summary.from_cache:
        return "served from the cache of a fresh engine"
    if summary.n_runs != repeats:
        return f"{summary.n_runs} runs, expected {repeats}"
    if not np.isfinite(summary.delay_ms.mean) or summary.delay_ms.mean <= 0:
        return f"mean delay {summary.delay_ms.mean!r} ms"
    if config.decode_video and summary.receiver_psnr_db is None:
        return "decoded cell without receiver PSNR"
    return None


def grid_cells(plan: Plan) -> Measurement:
    from repro.testbed import DEVICES, ExperimentConfig, ExperimentEngine
    from repro.testbed.advisor_service import policy_from_name
    from repro.testbed.cache import ResultCache
    from repro.video import (CodecConfig, analyze_motion, encode_sequence,
                             generate_clip, sensitivity_for)

    m = Measurement()
    size = plan.size
    clip_seed = derived_seed(plan.seed, "grid-cells", 0)

    def new_engine(name: str):
        return ExperimentEngine(cache=ResultCache(plan.workdir / name),
                                workers=1, repeats=size.grid_repeats,
                                master_seed=plan.seed)

    repeats = 1 if plan.traced else size.setup_repeats
    for attempt in range(repeats):
        started = time.perf_counter()
        clip = generate_clip("medium", size.grid_frames, seed=clip_seed)
        bitstream = encode_sequence(
            clip, CodecConfig(gop_size=size.gop, quantizer=8))
        sensitivity = sensitivity_for(analyze_motion(clip).motion_class)
        engine = new_engine(f"cache{attempt}")
        engine.add_scenario("clip", clip, bitstream)
        m.setup_s.append(time.perf_counter() - started)
        if attempt < repeats - 1:
            engine.close()
            engine.cache.close()

    device = DEVICES["samsung-s2"]

    def config(policy: str, options: Dict[str, Any]):
        return ExperimentConfig(policy=policy_from_name(policy),
                                device=device,
                                sensitivity_fraction=sensitivity, **options)

    uninstall = None
    if plan.traced:
        import layers
        m.per_span_s = layers.per_span_cost_s()
        recorder = layers.Recorder()
        m.spans = recorder.spans
        uninstall = layers.install(recorder)
    first: List[Any] = []

    def unit(number: int) -> None:
        """The whole grid; each pass has its own master seed, so its
        cells are new to the engine and its cache."""
        engine.master_seed = plan.seed + number
        for policy in POLICIES:
            for name, options in size.grid_configs:
                cell = config(policy, options)
                m.attempted += 1
                started = time.perf_counter()
                try:
                    summary = engine.run_cell("clip", cell)
                except Exception as exc:  # counted, and the run goes on
                    traceback.print_exc()
                    m.fail(f"cell {name}/{policy}: {exc!r}")
                    continue
                m.latencies_ms.append((time.perf_counter() - started) * 1e3)
                problem = _summary_problem(summary, cell, size.grid_repeats)
                if problem is not None:
                    m.fail(f"cell {name}/{policy}: {problem}")
                if not first:
                    first.extend((cell, summary))

    try:
        start, end, _ = run_units(plan.seconds, unit)
        m.window = (start, end)
        m.rss_mb, m.peak_rss_mb = memory_mb()
    finally:
        if uninstall is not None:
            uninstall()
        engine.close()
        engine.cache.close()
    m.cold_ms = list(m.latencies_ms)
    if first:
        with new_engine("check") as fresh:
            fresh.add_scenario("clip", clip, bitstream)
            if fresh.run_cell("clip", first[0]) != first[1]:
                m.problems.append("grid cell 0 recomputed by a fresh,"
                                  " untraced engine differs")
            fresh.cache.close()
    return m


WORKLOADS: Dict[str, Callable[[Plan], Measurement]] = {
    "advise-cold": advise_cold,
    "advise-shared": advise_shared,
    "serve-mixed": serve_mixed,
    "grid-cells": grid_cells,
}
