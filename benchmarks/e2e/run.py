#!/usr/bin/env python
"""End-to-end benchmark of the advisor service and the experiment grid.

One workload, as ``BENCHMARK.json`` runs it::

    python3 benchmarks/e2e/run.py --workload advise-cold --seed 1 \\
        --seconds 20 --trace 0

prints a table and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  Without
``--workload`` every workload runs, each in a fresh process, and
``--out`` collects the results for ``compare.py``.  ``--smoke`` runs
every workload at toy size, traced and untraced, and checks that each
carries every metric ``BENCHMARK.json`` names.

The command exits non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = ROOT / "BENCHMARK.json"
SMOKE_SECONDS = 3.0

if not (ROOT / "src" / "repro").is_dir():
    raise SystemExit(f"no repro sources under {ROOT / 'src'}; run from a"
                     " full checkout")
sys.path.insert(0, str(ROOT / "src"))

from loadgen import percentile, tail_percentile  # noqa: E402
from workloads import FULL, TOY, WORKLOADS, Measurement, Plan  # noqa: E402

EVALUATE = "testbed.advisor_service.evaluate_payload"
CALIBRATION_LAYERS = ("video.codec.", "analysis.")


def _spec() -> Dict[str, Any]:
    return json.loads(SPEC.read_text())


def _workdir() -> Path:
    """A fresh scratch directory inside the checkout; the caller removes
    it, so a finished run leaves nothing behind."""
    return Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))


def _window_s(m: Measurement) -> float:
    return m.window[1] - m.window[0]


END_TO_END: Dict[str, Callable[[Measurement], float]] = {
    "setup_s": lambda m: statistics.median(m.setup_s),
    "latency_p50_ms": lambda m: percentile(m.latencies_ms, 50.0),
    "throughput_per_s": lambda m: len(m.latencies_ms) / _window_s(m),
    "rss_mb": lambda m: m.rss_mb,
}


def per_layer(m: Measurement) -> Dict[str, float]:
    """Per-layer metrics from the spans inside the timed window,
    normalised per attempted operation."""
    import layers

    start, end = m.window
    inside = [span for span in m.spans
              if span.start >= start and span.end <= end]
    totals = layers.layer_totals(inside, start, end)
    ops = m.attempted
    metrics: Dict[str, float] = {}
    for name in layers.span_names():
        calls, busy_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls / ops
        metrics[f"{name}.self_ms"] = busy_s * 1e3 / ops
    served = "evaluations" in m.counters
    cold_total_ms = sum(m.cold_ms)
    evaluate_ms = sum(span.end - span.start for span in inside
                      if span.name == EVALUATE) * 1e3
    calibration_ms = sum(busy for name, (_, busy) in totals.items()
                         if name.startswith(CALIBRATION_LAYERS)) * 1e3
    lookups = m.counters.get("memo_hits", 0) + m.counters.get(
        "memo_misses", 0)
    metrics.update({
        "serve.wait_ms": ((cold_total_ms - evaluate_ms) / len(m.cold_ms)
                          if served and m.cold_ms else 0.0),
        "serve.evaluations_per_key": (
            m.counters["evaluations"] / m.counters["keys"]
            if served else 0.0),
        "serve.busy_rejected": m.counters.get("busy_rejected", 0),
        "serve.memo_hit_ratio": (m.counters["memo_hits"] / lookups
                                 if lookups else 0.0),
        "client.latency_tail_ms": percentile(
            m.latencies_ms, tail_percentile(len(m.latencies_ms))),
        "client.cold_latency_p50_ms": percentile(m.cold_ms, 50.0),
        "loadgen.late_p99_ms": (percentile(m.late_ms, 99.0)
                                if m.late_ms else 0.0),
        "process.peak_rss_mb": m.peak_rss_mb,
        "trace.overhead_frac": len(inside) * m.per_span_s / _window_s(m),
        "trace.codec_analysis_frac": (calibration_ms / cold_total_ms
                                      if served and cold_total_ms else 0.0),
    })
    return metrics


def run_one(args) -> int:
    """Run one workload in this process; print its table and result."""
    size = TOY if args.smoke else FULL
    workdir = _workdir()
    try:
        plan = Plan(seed=args.seed, seconds=args.seconds, size=size,
                    traced=bool(args.trace), workdir=workdir)
        m = WORKLOADS[args.workload](plan)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not m.latencies_ms or not m.cold_ms:
        for problem in m.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        raise SystemExit(f"{args.workload}: no operation completed")

    declared = _spec()["per_layer" if args.trace else "end_to_end"]
    values = (per_layer(m) if args.trace
              else {name: fn(m) for name, fn in END_TO_END.items()})
    if set(values) != {metric["name"] for metric in declared}:
        raise SystemExit(
            f"computed metrics {sorted(values)} do not match"
            f" BENCHMARK.json {sorted(x['name'] for x in declared)}")
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in declared}
    correct = not m.problems
    tail = tail_percentile(len(m.latencies_ms))
    tail_ms = percentile(m.latencies_ms, tail)
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "samples": len(m.latencies_ms), "cold_samples": len(m.cold_ms),
        "tail_percentile": tail, "latency_tail_ms": tail_ms,
        "cold_latency_p50_ms": percentile(m.cold_ms, 50.0),
        "window_s": _window_s(m), "setup_runs_s": m.setup_s,
        "counters": m.counters, "problems": m.problems,
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  window {_window_s(m):.2f} s  {len(m.latencies_ms)} timed ops,"
          f" p{tail:g} {tail_ms:.3f} ms  {len(m.cold_ms)} cold,"
          f" p50 {details['cold_latency_p50_ms']:.3f} ms")
    for name, metric in metrics.items():
        print(f"  {name:<58} {metric['value']:>14.4f} {metric['unit']}")
    for problem in m.problems:
        print(f"  FAILED: {problem}")
    result = {"correct": correct, "attempted": m.attempted,
              "failed": m.failed, "metrics": metrics}
    if args.out is not None:
        args.out.write_text(json.dumps({**result, "details": details},
                                       indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process; ``--smoke`` runs both trace
    modes and checks every declared metric is present."""
    spec = _spec()
    traces = (0, 1) if args.smoke else (args.trace,)
    runs: Dict[str, Any] = {}
    ok = True
    started = time.perf_counter()
    workdir = _workdir()
    try:
        for trace in traces:
            declared = {metric["name"] for metric in
                        spec["per_layer" if trace else "end_to_end"]}
            for name in WORKLOADS:
                out = workdir / f"{name}-{trace}.json"
                argv = [sys.executable, str(Path(__file__).resolve()),
                        "--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(trace),
                        "--out", str(out)]
                if args.smoke:
                    argv.append("--smoke")
                code = subprocess.run(argv, cwd=str(ROOT)).returncode
                if not out.exists():
                    print(f"{name} (trace {trace}): exited {code} without a"
                          " result", file=sys.stderr)
                    ok = False
                    continue
                result = json.loads(out.read_text())
                missing = declared - set(result["metrics"])
                if code != 0 or not result["correct"] or missing:
                    print(f"{name} (trace {trace}): exit {code}, correct"
                          f" {result['correct']}, missing {sorted(missing)}",
                          file=sys.stderr)
                    ok = False
                runs[name] = result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    elapsed = time.perf_counter() - started
    print(f"{len(traces) * len(WORKLOADS)} workload runs in {elapsed:.1f} s:"
          f" {'all checks passed' if ok else 'FAILED'}")
    if args.out is not None and not args.smoke:
        args.out.write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "workloads": runs}, indent=1) + "\n")
    return 0 if ok else 1


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, each in a"
                             " fresh process)")
    parser.add_argument("--seed", type=int, default=2013,
                        help="workload seed; inputs derive from it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured run length (default: BENCHMARK.json"
                             " run_seconds; 3 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        nargs="?", const=1,
                        help="1: time each layer and report per-layer"
                             " metrics instead of end-to-end ones")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes; checks outputs and metric names")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the results (with details) as JSON;"
                             " not with --smoke")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(
            _spec()["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
