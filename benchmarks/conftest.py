"""Shared infrastructure for the figure/table benches.

Every bench regenerates one of the paper's tables or figures: it runs
the simulated testbed (and, where the figure shows "Analysis", the
analytical framework) and renders the figure as an aligned text table,
printed and written under ``benchmarks/results/``.

Knobs (environment variables):

- ``REPRO_BENCH_REPEATS``  repetitions per experimental cell (default 3;
  the paper uses 20 — set 20 for paper-grade confidence intervals);
- ``REPRO_BENCH_FRAMES``   clip length in frames (default 240; the paper
  uses 300);
- ``REPRO_CACHE``          set 0 to disable the on-disk result cache
  (default: cache under ``benchmarks/results/cache``);
- ``REPRO_CACHE_DIR``      override the cache directory;
- ``REPRO_CACHE_BACKEND``  cache store: ``dir`` (sharded files, the
  default) or a full ``dir:PATH`` / ``tcp:HOST:PORT`` spec;
- ``REPRO_CACHE_MAX_BYTES`` / ``REPRO_CACHE_MAX_ENTRIES``  size caps for
  the cache (LRU eviction; default: unbounded);
- ``REPRO_ENGINE_WORKERS`` worker processes for the experiment engine
  (default: CPU count; 1 = serial).

Experiment-backed benches go through the shared :data:`ENGINE`, so
already-computed grid cells replay from the content-addressed cache
with zero new simulations (see EXPERIMENTS.md "Result cache").
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis import (
    blank_frame_distortion,
    fit_distortion_polynomial,
    measure_recovery_fraction,
    measure_reference_distance_distortion,
)
from repro.core import FrameworkModel, calibrate_scenario
from repro.testbed import (
    DEVICES,
    CellSummary,
    ExperimentConfig,
    ExperimentEngine,
    GridCell,
    ResultCache,
    backend_from_env,
)
from repro.video import (
    CodecConfig,
    analyze_motion,
    decode_bitstream,
    encode_sequence,
    generate_clip,
    sensitivity_for,
    sequence_mse,
)

REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
N_FRAMES = int(os.environ.get("REPRO_BENCH_FRAMES", "240"))
RESULTS_DIR = Path(__file__).parent / "results"

_SEEDS = {"slow": 2013, "medium": 2015, "fast": 2014}

_CACHE_ENABLED = os.environ.get("REPRO_CACHE", "1").lower() not in (
    "0", "false", "no")
CACHE_DIR = Path(os.environ.get("REPRO_CACHE_DIR",
                                str(RESULTS_DIR / "cache")))


def _env_int(name: str):
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"{name} must be an integer, got {raw!r}")


ENGINE = ExperimentEngine(
    cache=ResultCache(
        backend=backend_from_env(CACHE_DIR),
        max_bytes=_env_int("REPRO_CACHE_MAX_BYTES"),
        max_entries=_env_int("REPRO_CACHE_MAX_ENTRIES"),
    ) if _CACHE_ENABLED else None,
    master_seed=int(os.environ.get("REPRO_BENCH_SEED", "0")),
    repeats=REPEATS,
)


def scenario_key(motion: str, gop_size: int) -> str:
    """Register the clip/bitstream for one cell and return its key."""
    key = f"{motion}/gop{gop_size}/{N_FRAMES}f"
    ENGINE.add_scenario(
        key, get_clip(motion), get_bitstream(motion, gop_size),
        meta={"motion": motion, "gop_size": gop_size, "frames": N_FRAMES},
    )
    return key


def grid_cell(motion: str, gop_size: int,
              config: ExperimentConfig) -> GridCell:
    """A :class:`GridCell` for the shared engine (scenario auto-registered)."""
    return GridCell(scenario_key(motion, gop_size), config)


def run_cell(motion: str, gop_size: int,
             config: ExperimentConfig) -> CellSummary:
    """Run (or replay from cache) one experiment cell via the engine."""
    return ENGINE.run_cell(scenario_key(motion, gop_size), config)


@lru_cache(maxsize=None)
def get_clip(motion: str):
    return generate_clip(motion, n_frames=N_FRAMES, seed=_SEEDS[motion])


@lru_cache(maxsize=None)
def get_bitstream(motion: str, gop_size: int):
    return encode_sequence(get_clip(motion),
                           CodecConfig(gop_size=gop_size, quantizer=8))


@lru_cache(maxsize=None)
def get_sensitivity(motion: str) -> float:
    return sensitivity_for(analyze_motion(get_clip(motion)).motion_class)


@lru_cache(maxsize=None)
def get_framework(motion: str, gop_size: int, device_key: str
                  ) -> FrameworkModel:
    """Calibrated analytical model for one clip/GOP/device cell."""
    clip = get_clip(motion)
    bitstream = get_bitstream(motion, gop_size)
    sensitivity = get_sensitivity(motion)
    curve = measure_reference_distance_distortion(clip, max_distance=30)
    polynomial = fit_distortion_polynomial(
        curve, cap=blank_frame_distortion(clip)
    )
    recovery = measure_recovery_fraction(
        clip, bitstream, sensitivity_fraction=sensitivity
    )
    baseline = sequence_mse(clip, decode_bitstream(bitstream))
    scenario = calibrate_scenario(
        bitstream,
        cipher_costs=DEVICES[device_key].cipher_costs,
        polynomial=polynomial,
        sensitivity_fraction=sensitivity,
        recovery_fraction=recovery,
        baseline_distortion=baseline,
    )
    return FrameworkModel(scenario)


def publish(name: str, text: str) -> None:
    """Print a rendered figure and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n[saved to benchmarks/results/{name}.txt]")


@pytest.fixture(scope="session")
def repeats() -> int:
    return REPEATS


@pytest.fixture(scope="session", autouse=True)
def _engine_lifecycle():
    """Release the engine's worker pool when the bench session ends."""
    yield
    stats = ENGINE.stats()
    parts = [f"simulations run: {stats['simulations_run']}"]
    cache_stats = stats["cache"]
    if cache_stats is not None:
        parts.append(f"cache hits: {cache_stats['hits']}")
        parts.append(f"misses: {cache_stats['misses']}")
        parts.append(f"evictions: {cache_stats['evictions']}")
        parts.append(f"corrupt: {cache_stats['corrupt']}")
        parts.append(
            f"entries: {cache_stats['entries']}"
            f" ({cache_stats['total_bytes']} B,"
            f" {cache_stats['index_backend']} index)")
    print(f"\n[experiment engine] {', '.join(parts)}")
    ENGINE.close()
