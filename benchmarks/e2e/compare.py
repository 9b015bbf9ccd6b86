#!/usr/bin/env python
"""Compare two sets of end-to-end results under the BENCHMARK.json bounds.

Usage::

    python benchmarks/e2e/compare.py --base parent-*.json --head change-*.json

A file is what ``run.py --out`` writes, for one workload or for all of
them; a file holding ``{"runs": [...]}``, such as ``results/seed.json``,
contributes every run in it.  Runs pair up in the order given: the
``i``-th base run of a workload with its ``i``-th head run.

Each (metric, workload) pair is classified as

- ``unresolved``: the two sides hold different numbers of runs, or fewer
  than two each; or the base runs spread (interquartile range over
  median) wider than the metric's bound, unless every head run beats
  every base run over at least ten pairs, which is ``improved``;
- ``regressed``: the head median is worse than the base median by more
  than the bound;
- ``improved``: over at least ten pairs, the head run beats its base run
  in at least 9 of 10 pairs (ties count for neither) and the medians
  differ by more than the base interquartile range;
- ``unchanged``: anything else.

The ``error_frac`` row of a workload (failed / attempted, over all its
runs) is ``regressed`` on any increase, and no metric of a workload
whose errors increased counts as ``improved``.  Exit status is 1 when a
row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

SPEC = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"

WIN_SHARE = 0.9
MIN_PAIRS = 10


def load_runs(paths: Sequence[Path]) -> Dict[str, List[Dict[str, Any]]]:
    """Workload -> its untraced results, in file order."""
    runs: Dict[str, List[Dict[str, Any]]] = {}

    def add(data: Dict[str, Any], where: Path) -> None:
        if "runs" in data:
            for run in data["runs"]:
                add(run, where)
            return
        if "workloads" in data:
            if data.get("trace"):
                raise ValueError(f"{where}: traced results carry per-layer"
                                 " metrics; compare untraced runs")
            for name, result in data["workloads"].items():
                runs.setdefault(name, []).append(result)
            return
        details = data.get("details", {})
        if details.get("trace"):
            raise ValueError(f"{where}: traced results carry per-layer"
                             " metrics; compare untraced runs")
        if "workload" not in details:
            raise ValueError(f"{where}: not a run.py --out result")
        runs.setdefault(details["workload"], []).append(data)

    for path in paths:
        add(json.loads(Path(path).read_text()), path)
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile of two or more values."""
    low, _, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def classify(base: Sequence[float], head: Sequence[float], better: str,
             bound: float) -> str:
    """One metric on one workload; see the module docstring."""
    def gain(new: float, old: float) -> float:
        return new - old if better == "higher" else old - new

    if len(base) != len(head) or len(base) < 2:
        return "unresolved"
    enough_pairs = len(base) >= MIN_PAIRS
    low, base_median, high = quartiles(base)
    head_median = statistics.median(head)
    spread = high - low
    if spread > bound * abs(base_median):
        if enough_pairs and all(gain(new, old) > 0
                                for new in head for old in base):
            return "improved"
        return "unresolved"
    if gain(head_median, base_median) < -bound * abs(base_median):
        return "regressed"
    wins = sum(1 for old, new in zip(base, head) if gain(new, old) > 0)
    if (enough_pairs and wins >= WIN_SHARE * len(base)
            and gain(head_median, base_median) > spread):
        return "improved"
    return "unchanged"


def error_frac(results: Sequence[Dict[str, Any]]) -> float:
    attempted = sum(result["attempted"] for result in results)
    return sum(result["failed"] for result in results) / attempted


def compare(base: Dict[str, List[Dict[str, Any]]],
            head: Dict[str, List[Dict[str, Any]]],
            spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, metric) present in both sets."""
    rows = []
    for workload in sorted(set(base) & set(head)):
        old_errors = error_frac(base[workload])
        new_errors = error_frac(head[workload])
        errors_up = new_errors > old_errors
        rows.append({
            "workload": workload, "metric": "error_frac",
            "base": old_errors, "base_iqr": 0.0, "head": new_errors,
            "class": ("regressed" if errors_up else
                      "improved" if new_errors < old_errors
                      else "unchanged"),
        })
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old = [run["metrics"][name]["value"] for run in base[workload]]
            new = [run["metrics"][name]["value"] for run in head[workload]]
            verdict = classify(old, new, metric["better"], metric["bound"])
            if verdict == "improved" and errors_up:
                verdict = "unchanged"  # a gain with more failures is none
            low, median, high = (quartiles(old) if len(old) > 1
                                 else (old[0], old[0], old[0]))
            rows.append({"workload": workload, "metric": name,
                         "base": median, "base_iqr": high - low,
                         "head": statistics.median(new), "class": verdict})
    return rows


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True,
                        help="result files of the parent commit")
    parser.add_argument("--head", type=Path, nargs="+", required=True,
                        help="result files of the change")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    try:
        base, head = load_runs(args.base), load_runs(args.head)
    except (ValueError, KeyError) as exc:
        parser.error(str(exc))
    rows = compare(base, head, spec)
    if not rows:
        parser.error("the two sets share no workload")
    print(f"{'workload':<14} {'metric':<20} {'base median':>14}"
          f" {'base IQR':>12} {'head median':>14} {'change':>8}  class")
    for row in rows:
        change = ((row["head"] - row["base"]) / row["base"] * 100.0
                  if row["base"] else 0.0)
        print(f"{row['workload']:<14} {row['metric']:<20}"
              f" {row['base']:>14.4f} {row['base_iqr']:>12.4f}"
              f" {row['head']:>14.4f} {change:>7.1f}%  {row['class']}")
    counts = {kind: sum(row["class"] == kind for row in rows)
              for kind in ("improved", "unchanged", "regressed",
                           "unresolved")}
    print(", ".join(f"{count} {kind}" for kind, count in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
