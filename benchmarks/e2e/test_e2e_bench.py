"""Tests of the end-to-end benchmark's own machinery.

Run with ``python -m pytest benchmarks/e2e -q``; the repository's
tier-1 suite collects only ``tests/``.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
from repro.testbed.netproto import KIND_RESPONSE, encode_frame  # noqa: E402
from workloads import Measurement  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the percentile rule -------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (1, 50.0), (6, 50.0), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count,
                                                                 expected):
    assert loadgen.tail_percentile(count) == expected


def test_percentile_interpolates_and_the_50th_is_the_median():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0]
    assert loadgen.percentile(values, 50.0) == 3.5
    assert loadgen.percentile(values, 0.0) == 1.0
    assert loadgen.percentile(values, 100.0) == 6.0
    assert loadgen.percentile([7.0], 99.0) == 7.0


# -- self time -----------------------------------------------------------------


def _span(name, start, end, span_id, parent=None, root=None, thread=1):
    return layers.Span(name, start, end, span_id, parent,
                       span_id if root is None else root, thread)


def test_self_time_subtracts_only_the_span_s_own_children():
    spans = [
        _span("outer", 0.0, 10.0, 1),
        _span("inner", 2.0, 5.0, 2, parent=1, root=1),
        _span("leaf", 3.0, 4.0, 3, parent=2, root=1),
        _span("inner", 6.0, 7.0, 4, parent=1, root=1),
        # Another thread's span overlapping in time is not a child.
        _span("other", 1.0, 9.0, 5, thread=2),
    ]
    selfs = layers.self_times(spans)
    assert selfs == {1: pytest.approx(6.0), 2: pytest.approx(2.0),
                     3: pytest.approx(1.0), 4: pytest.approx(1.0),
                     5: pytest.approx(8.0)}
    totals = layers.layer_totals(spans, 0.0, 10.0)
    assert totals["inner"] == (2, pytest.approx(3.0))
    assert layers.layer_totals(spans, 0.5, 10.0).keys() == {
        "inner", "leaf", "other"}


def test_recorder_keeps_one_parent_stack_per_thread():
    recorder = layers.Recorder()
    inner = recorder.wrap("inner", lambda: time.sleep(0.05))

    def outer_body():
        time.sleep(0.05)
        inner()

    outer = recorder.wrap("outer", outer_body)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    spans = recorder.spans
    assert sorted(span.name for span in spans) == [
        "inner", "inner", "outer", "outer"]
    by_id = {span.id: span for span in spans}
    for span in spans:
        if span.name == "inner":
            parent = by_id[span.parent]
            assert parent.name == "outer"
            assert parent.thread == span.thread
            assert span.root == parent.id
    selfs = layers.self_times(spans)
    for span in spans:
        # Each outer span ran alongside the other thread's inner span;
        # only its own inner span is subtracted.
        assert selfs[span.id] == pytest.approx(0.05, abs=0.04)


# -- the layer table -----------------------------------------------------------


def test_every_layer_resolves_and_uninstall_restores_the_originals():
    import importlib

    def current():
        found = {}
        for paths in layers.LAYERS.values():
            for path in paths:
                module, _, dotted = path.partition(":")
                owner = importlib.import_module(module)
                *parents, attr = dotted.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                found[path] = (owner.__dict__[attr]
                               if isinstance(owner, type)
                               else getattr(owner, attr))
        return found

    before = current()
    uninstall = layers.install(layers.Recorder())
    try:
        patched = current()
        assert all(patched[path] is not before[path] for path in before)
    finally:
        uninstall()
    after = current()
    assert all(after[path] is before[path] for path in before)


def test_a_missing_entry_fails_loudly_and_patches_nothing():
    from repro.testbed import advisor_service
    original = advisor_service.__dict__["encode_payload"]
    table = {
        "testbed.advisor_service.encode_payload": (
            "repro.testbed.advisor_service:encode_payload",),
        "video.codec.renamed": ("repro.video.codec:no_such_function",),
    }
    with pytest.raises(layers.LayerTableError) as info:
        layers.install(layers.Recorder(), table)
    assert "video.codec.renamed" in str(info.value)
    assert "repro.video.codec:no_such_function" in str(info.value)
    assert advisor_service.encode_payload is original


def test_wrapped_calls_return_the_same_result_and_record_a_span():
    from repro.testbed.advisor_service import ServiceRequest
    recorder = layers.Recorder()
    table = {"testbed.advisor_service.ServiceRequest.from_header": (
        "repro.testbed.advisor_service:ServiceRequest.from_header",)}
    header = {"motion": "fast", "frames": 12}
    expected = ServiceRequest.from_header(header)
    uninstall = layers.install(recorder, table)
    try:
        assert ServiceRequest.from_header(header) == expected
    finally:
        uninstall()
    assert [span.name for span in recorder.spans] == [
        "testbed.advisor_service.ServiceRequest.from_header"]
    assert isinstance(ServiceRequest.__dict__["from_header"], classmethod)


def test_split_spans_are_named_by_the_keyword_value():
    recorder = layers.Recorder()
    split = layers.SPLIT_BY["testbed.multiflow.run_multiflow"]
    fn = recorder.wrap("run", lambda engine="events": engine, split)
    fn()
    fn(engine="vector")
    assert [span.name for span in recorder.spans] == [
        "run.events", "run.vector"]


def test_spans_round_trip_through_jsonl(tmp_path):
    spans = [_span("a", 1.0, 2.0, 1), _span("b", 1.2, 1.5, 2, parent=1,
                                            root=1)]
    path = tmp_path / "spans.jsonl"
    layers.dump_spans(path, spans, 2e-7)
    assert layers.load_spans(path) == (2e-7, spans)


def test_declared_metrics_match_what_run_computes():
    m = Measurement(setup_s=[1.0], latencies_ms=[2.0], cold_ms=[3.0],
                    window=(0.0, 1.0), rss_mb=100.0, peak_rss_mb=120.0,
                    attempted=1, counters={"evaluations": 1, "keys": 1,
                                           "memo_hits": 0, "memo_misses": 1,
                                           "busy_rejected": 0})
    assert set(run.END_TO_END) == {x["name"] for x in SPEC["end_to_end"]}
    assert set(run.per_layer(m)) == {x["name"] for x in SPEC["per_layer"]}


def test_every_per_layer_metric_names_what_it_should_move():
    groups = json.loads((HERE / "moves.json").read_text())
    per_layer = {x["name"] for x in SPEC["per_layer"]}
    end_to_end = {x["name"] for x in SPEC["end_to_end"]}
    workloads = {x["name"] for x in SPEC["workloads"]}
    mapped = set()
    for group in groups:
        assert set(group) == {"metrics", "moves", "workloads", "why"}
        assert set(group["metrics"]) <= per_layer, group["why"]
        assert set(group["moves"]) <= end_to_end, group["why"]
        assert group["workloads"] and set(group["workloads"]) <= workloads
        assert group["why"]
        mapped |= set(group["metrics"])
    assert mapped == per_layer


def test_the_untraced_path_never_imports_the_span_code(tmp_path):
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]\n"
        "from pathlib import Path\n"
        "import workloads\n"
        "plan = workloads.Plan(seed=1, seconds=0.01, size=workloads.TOY,"
        f" traced=False, workdir=Path({str(tmp_path)!r}))\n"
        "m = workloads.grid_cells(plan)\n"
        "assert not m.problems and m.latencies_ms, m.problems\n"
        "assert 'layers' not in sys.modules\n"
    )
    done = subprocess.run([sys.executable, "-c", script], timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# -- the open loop -------------------------------------------------------------


class _StallingServer:
    """Answers framed requests in order; stalls before answer ``stall_at``."""

    def __init__(self, stall_at: int, stall_s: float) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.stall_at, self.stall_s = stall_at, stall_s
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        conn, _ = self.listener.accept()
        frames = loadgen.FrameBuffer()
        answered = 0
        with conn:
            while True:
                chunk = conn.recv(1 << 16)
                if not chunk:
                    return
                for _ in frames.feed(chunk):
                    if answered == self.stall_at:
                        time.sleep(self.stall_s)
                    conn.sendall(encode_frame({"source": "memo"}, b"ok",
                                              kind=KIND_RESPONSE))
                    answered += 1

    def close(self) -> None:
        self.listener.close()
        self.thread.join(timeout=10.0)


def test_open_loop_times_from_the_due_time_so_a_stall_taxes_the_queue():
    server = _StallingServer(stall_at=5, stall_s=0.05)
    conn = loadgen.Connection("127.0.0.1", server.port)
    frame = loadgen.recommend_frame({"motion": "slow"})
    try:
        samples = loadgen.open_loop(conn, [frame], 500.0,
                                    lambda elapsed: elapsed < 0.1)
    finally:
        conn.close()
        server.close()
    assert [sample.index for sample in samples] == list(range(50))
    assert all(sample.header == {"source": "memo"} for sample in samples)
    latency = [sample.latency_ms for sample in samples]
    # Requests keep leaving on schedule during the stall ...
    assert max(sample.late_ms for sample in samples) < 25.0
    # ... so the stalled one and those queued behind it are charged for
    # the wait, each from its own due time.
    assert latency[5] >= 45.0
    stall_end = samples[5].done
    for sample in samples[6:]:
        if sample.due < stall_end - 0.01:
            assert sample.done >= stall_end
            assert sample.latency_ms >= (stall_end - sample.due) * 1e3
    assert sum(1 for value in latency[6:] if value >= 10.0) >= 15
    assert max(latency[:5]) < 45.0


# -- the compare tool ----------------------------------------------------------

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.2]


@pytest.mark.parametrize("head, better, bound, expected", [
    ([value * 0.8 for value in BASE], "lower", 0.1, "improved"),
    ([value * 1.3 for value in BASE], "lower", 0.1, "regressed"),
    ([value * 1.05 for value in BASE], "lower", 0.1, "unchanged"),
    ([value + 0.01 for value in BASE], "lower", 0.1, "unchanged"),
    ([value * 1.3 for value in BASE], "higher", 0.1, "improved"),
    ([value * 0.7 for value in BASE], "higher", 0.1, "regressed"),
    # 8 of 10 pairs won: not a gain, not beyond the bound either.
    ([value * 0.97 for value in BASE[:8]] + BASE[8:], "lower", 0.1,
     "unchanged"),
])
def test_compare_classifies_each_pair(head, better, bound, expected):
    assert compare.classify(BASE, head, better, bound) == expected


def test_a_spread_wider_than_the_bound_is_unresolved_unless_all_runs_win():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 90.0, 110.0, 70.0, 130.0,
             100.0]
    assert compare.classify(noisy, [value * 1.3 for value in noisy],
                            "lower", 0.1) == "unresolved"
    assert compare.classify(noisy, [10.0] * 10, "lower",
                            0.1) == "improved"
    # Every run wins, but five pairs are too few to claim it.
    assert compare.classify(noisy[:5], [10.0] * 5, "lower",
                            0.1) == "unresolved"


@pytest.mark.parametrize("base, head", [
    (BASE[:1], [50.0]),           # one run a side has no spread
    (BASE, [50.0, 50.0, 50.0]),   # 10 against 3 cannot pair up
    (BASE[:3], [50.0] * 10),
])
def test_unequal_or_single_run_sets_are_unresolved(base, head):
    assert compare.classify(base, head, "lower", 0.1) == "unresolved"


def test_fewer_than_ten_pairs_never_claim_a_gain():
    head = [value * 0.8 for value in BASE[:5]]
    assert compare.classify(BASE[:5], head, "lower", 0.1) == "unchanged"
    # ... but a regression beyond the bound still shows.
    worse = [value * 1.3 for value in BASE[:5]]
    assert compare.classify(BASE[:5], worse, "lower", 0.1) == "regressed"


def _result(workload, value, failed=0):
    return {"correct": True, "attempted": 10, "failed": failed,
            "metrics": {"latency_p50_ms": {"value": value, "unit": "ms"}},
            "details": {"workload": workload, "trace": 0}}


def test_more_failures_regress_and_void_any_gain(tmp_path):
    spec = {"end_to_end": [{"name": "latency_p50_ms", "unit": "ms",
                            "better": "lower", "bound": 0.1}]}
    base = {"w": [_result("w", value) for value in BASE]}
    head = {"w": [_result("w", value * 0.5, failed=1) for value in BASE]}
    rows = {row["metric"]: row["class"]
            for row in compare.compare(base, head, spec)}
    assert rows == {"error_frac": "regressed", "latency_p50_ms": "unchanged"}


def test_compare_reads_every_result_file_shape(tmp_path):
    single = tmp_path / "single.json"
    single.write_text(json.dumps(_result("advise-cold", 1.0)))
    everything = tmp_path / "all.json"
    everything.write_text(json.dumps({"trace": 0, "workloads": {
        "advise-cold": _result("advise-cold", 2.0),
        "grid-cells": _result("grid-cells", 3.0)}}))
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps({"runs": [json.loads(
        everything.read_text())]}))
    runs = compare.load_runs([single, everything, bundle])
    assert [r["metrics"]["latency_p50_ms"]["value"]
            for r in runs["advise-cold"]] == [1.0, 2.0, 2.0]
    assert len(runs["grid-cells"]) == 2
    traced = tmp_path / "traced.json"
    traced.write_text(json.dumps({"trace": 1, "workloads": {}}))
    with pytest.raises(ValueError):
        compare.load_runs([traced])
