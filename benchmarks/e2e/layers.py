"""Layer spans for the traced end-to-end run.

:data:`LAYERS` maps each span name to the call sites that are patched
so every caller goes through the span.  A site is ``"module:attr"`` or
``"module:Class.attr"`` and names the binding the *caller* looks up at
call time.  ``build_scenario`` finds ``encode_sequence`` in
``repro.testbed.advisor_service``, while ``measure_recovery_fraction``
imports it from ``repro.video.codec`` inside its body, so both bindings
are patched under one span name.

:func:`install` resolves every site before it patches any, and a site
that no longer resolves to a callable fails with the span name and its
dotted path, so a rename breaks the traced run loudly instead of
silently dropping a layer.  The uninstaller puts the original objects
back.

Spans stay off the result path: a wrapper calls through with the same
arguments and returns the same object, and spans go to a
:class:`Recorder` that only the benchmark reads.  The untraced run
never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Sequence, Tuple)

__all__ = ["LAYERS", "SPLIT_BY", "LayerTableError", "Span", "Recorder",
           "install", "span_names", "per_span_cost_s", "self_times",
           "layer_totals", "dump_spans", "load_spans"]

_ADVISOR = "repro.testbed.advisor_service"

#: span name -> call sites (``module:attr`` or ``module:Class.attr``).
LAYERS: Dict[str, Tuple[str, ...]] = {
    # cold advisor path: clip synthesis, encode and calibration fits
    "video.synth.generate_clip": (f"{_ADVISOR}:generate_clip",),
    "video.codec.encode_sequence": (f"{_ADVISOR}:encode_sequence",
                                    "repro.video.codec:encode_sequence"),
    "video.codec.decode_bitstream": (f"{_ADVISOR}:decode_bitstream",
                                     "repro.video.codec:decode_bitstream"),
    "video.motion.analyze_motion": (f"{_ADVISOR}:analyze_motion",),
    "video.quality.sequence_mse": (f"{_ADVISOR}:sequence_mse",),
    "video.concealment.conceal_decode": (
        "repro.video.concealment:conceal_decode",
        "repro.testbed.experiment:conceal_decode"),
    "video.packetizer.frames_decodable": (
        "repro.video.packetizer:frames_decodable",
        "repro.testbed.experiment:frames_decodable"),
    "analysis.measure_reference_distance_distortion": (
        f"{_ADVISOR}:measure_reference_distance_distortion",),
    "analysis.measure_recovery_fraction": (
        f"{_ADVISOR}:measure_recovery_fraction",),
    "analysis.fit_distortion_polynomial": (
        f"{_ADVISOR}:fit_distortion_polynomial",),
    "analysis.blank_frame_distortion": (
        f"{_ADVISOR}:blank_frame_distortion",
        "repro.analysis.regression:blank_frame_distortion"),
    # analytic model: DCF fixed point, scenario, MMPP/G/1 sweep
    "core.scenario.calibrate_scenario": (f"{_ADVISOR}:calibrate_scenario",),
    "wifi.dcf.solve_dcf": ("repro.core.scenario:solve_dcf",
                           "repro.testbed.simulator:solve_dcf",
                           "repro.testbed.multiflow:solve_dcf",
                           "repro.mobility.field:solve_dcf"),
    "mobility.scenario.build_profile": ("repro.mobility:build_profile",
                                        "repro.mobility.process:build_profile"),
    "core.advisor.PolicyAdvisor.recommend": (
        "repro.core.advisor:PolicyAdvisor.recommend",),
    "core.delay.FrameworkModel.predict_batch": (
        "repro.core.delay:FrameworkModel.predict_batch",),
    # serve tier: request parsing, memo, framing
    "testbed.advisor_service.evaluate_payload": (
        f"{_ADVISOR}:evaluate_payload",),
    "testbed.advisor_service.ServiceRequest.from_header": (
        f"{_ADVISOR}:ServiceRequest.from_header",),
    "testbed.advisor_service.AdvisorMemo.key": (f"{_ADVISOR}:AdvisorMemo.key",),
    "testbed.advisor_service.AdvisorMemo.get": (f"{_ADVISOR}:AdvisorMemo.get",),
    "testbed.advisor_service.AdvisorMemo.put": (f"{_ADVISOR}:AdvisorMemo.put",),
    "testbed.advisor_service.encode_payload": (f"{_ADVISOR}:encode_payload",),
    "testbed.netproto.encode_frame": ("repro.testbed.server:encode_frame",),
    "testbed.backends.DirectoryBackend.read": (
        "repro.testbed.backends:DirectoryBackend.read",),
    # experiment grid: simulation engines, decode, quality, cache
    "testbed.simulator.SenderSimulator.run": (
        "repro.testbed.simulator:SenderSimulator.run",),
    "testbed.multiflow.run_multiflow": (
        "repro.testbed.multiflow:run_multiflow",),
    "testbed.vector_flows.run_vector_flows": (
        "repro.testbed.vector_flows:run_vector_flows",),
    "mobility.process.run_mobility": ("repro.mobility:run_mobility",),
    "video.quality.sequence_psnr": ("repro.testbed.experiment:sequence_psnr",),
    "video.quality.sequence_mos": ("repro.testbed.experiment:sequence_mos",),
    "testbed.engine.ExperimentEngine.cell_key": (
        "repro.testbed.engine:ExperimentEngine.cell_key",),
    "testbed.cache.ResultCache.put_runs": (
        "repro.testbed.cache:ResultCache.put_runs",),
}

#: span name -> (keyword argument, its values, default first): the span
#: is recorded as ``<name>.<value>``, one span name per engine.
SPLIT_BY: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "testbed.multiflow.run_multiflow": ("engine", ("events", "vector")),
}


class LayerTableError(LookupError):
    """A layer-table site no longer resolves to a callable."""


class Span(NamedTuple):
    name: str
    start: float        # time.perf_counter(), shared across processes
    end: float
    id: int
    parent: Optional[int]
    root: int           # the request id: the outermost span on its thread
    thread: int


def span_names() -> List[str]:
    """Every span name a traced run can record, split names expanded."""
    names = []
    for name in LAYERS:
        if name in SPLIT_BY:
            names.extend(f"{name}.{value}" for value in SPLIT_BY[name][1])
        else:
            names.append(name)
    return names


class Recorder:
    """Collects spans in memory; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable,
             split: Optional[Tuple[str, Tuple[str, ...]]] = None
             ) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent, root = stack[-1] if stack else (None, span_id)
            stack.append((span_id, root))
            label = name
            if split is not None:
                label = f"{name}.{kwargs.get(split[0], split[1][0])}"
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(label, start, end, span_id, parent, root,
                                  threading.get_ident()))

        return traced


def _noop() -> None:
    return None


def per_span_cost_s(calls: int = 20000) -> float:
    """Measured time one span adds to a call.  The traced run's untraced
    twin is another process, so tracing overhead is estimated as spans
    recorded times this cost."""
    traced = Recorder().wrap("probe", _noop)
    started = time.perf_counter()
    for _ in range(calls):
        _noop()
    plain_s = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        traced()
    traced_s = time.perf_counter() - started
    return max(traced_s - plain_s, 0.0) / calls


class _Site(NamedTuple):
    owner: Any
    attr: str
    original: Any


def _resolve(name: str, path: str) -> _Site:
    module_name, _, dotted = path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = dotted.split(".")
        for part in parents:
            owner = getattr(owner, part)
        # Read a class attribute from the class's own namespace, so a
        # classmethod stays a classmethod and an inherited method is not
        # shadowed by a patch on the subclass.
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
    except (ImportError, AttributeError, KeyError, ValueError) as exc:
        raise LayerTableError(
            f"layer {name!r}: cannot resolve {path} ({exc!r})") from exc
    target = (original.__func__
              if isinstance(original, (classmethod, staticmethod))
              else original)
    if not callable(target):
        raise LayerTableError(f"layer {name!r}: {path} is not callable")
    return _Site(owner, attr, original)


def install(recorder: Recorder,
            table: Dict[str, Tuple[str, ...]] = LAYERS
            ) -> Callable[[], None]:
    """Patch every site in ``table``; returns the uninstaller.

    All sites are resolved first, so a broken table patches nothing.
    """
    sites = [(name, _resolve(name, path))
             for name, paths in table.items() for path in paths]
    for name, site in sites:
        original = site.original
        split = SPLIT_BY.get(name)
        if isinstance(original, (classmethod, staticmethod)):
            patched: Any = type(original)(
                recorder.wrap(name, original.__func__, split))
        else:
            patched = recorder.wrap(name, original, split)
        setattr(site.owner, site.attr, patched)

    def uninstall() -> None:
        for _, site in reversed(sites):
            setattr(site.owner, site.attr, site.original)

    return uninstall


# -- analysis ------------------------------------------------------------------


def _covered(start: float, end: float,
             intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.id: (span.end - span.start)
            - _covered(span.start, span.end, children.get(span.id, ()))
            for span in spans}


def layer_totals(spans: Sequence[Span], start: float, end: float
                 ) -> Dict[str, Tuple[int, float]]:
    """Span name -> (calls, total self seconds) over spans inside
    ``[start, end]``."""
    inside = [span for span in spans
              if span.start >= start and span.end <= end]
    selfs = self_times(inside)
    totals: Dict[str, Tuple[int, float]] = {}
    for span in inside:
        calls, busy = totals.get(span.name, (0, 0.0))
        totals[span.name] = (calls + 1, busy + selfs[span.id])
    return totals


def dump_spans(path, spans: Sequence[Span], per_span_s: float) -> None:
    """JSONL: a header line with the per-span cost, then one span a line."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"per_span_s": per_span_s}) + "\n")
        for span in list(spans):  # a pool thread may still be appending
            handle.write(json.dumps(list(span)) + "\n")


def load_spans(path) -> Tuple[float, List[Span]]:
    with open(path, encoding="utf-8") as handle:
        per_span_s = json.loads(handle.readline())["per_span_s"]
        spans = [Span(*json.loads(line)) for line in handle if line.strip()]
    return per_span_s, spans
