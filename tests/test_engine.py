"""Parallel cached experiment engine: determinism, caching, seeding."""

import pytest

from repro.core import standard_policies
from repro.testbed import (
    DEVICES,
    ExperimentConfig,
    ExperimentEngine,
    GridCell,
    ResultCache,
    RunMetrics,
    describe_config,
    scenario_fingerprint,
)


def _config(policy_name="I", algorithm="AES256", decode=False, flows=1,
            engine="legacy"):
    return ExperimentConfig(
        policy=standard_policies(algorithm)[policy_name],
        device=DEVICES["samsung-s2"],
        sensitivity_fraction=0.55,
        decode_video=decode,
        flows=flows,
        engine=engine,
    )


@pytest.fixture()
def engine_factory(slow_clip, slow_bitstream):
    """Engines pre-loaded with the shared test scenario, closed on exit."""
    engines = []

    def make(**kwargs):
        kwargs.setdefault("master_seed", 7)
        kwargs.setdefault("repeats", 3)
        engine = ExperimentEngine(**kwargs)
        engine.add_scenario("slow", slow_clip, slow_bitstream)
        engines.append(engine)
        return engine

    yield make
    for engine in engines:
        engine.close()


GRID_POLICIES = ("none", "I", "all")


class TestDeterminism:
    def test_fresh_engine_rerun_identical(self, engine_factory):
        cells = [GridCell("slow", _config(p)) for p in GRID_POLICIES]
        first = engine_factory(workers=1).run_grid(cells)
        again = engine_factory(workers=1).run_grid(cells)
        assert first == again

    @pytest.mark.slow
    def test_parallel_byte_identical_to_serial(self, engine_factory):
        cells = [GridCell("slow", _config(p)) for p in GRID_POLICIES]
        serial = engine_factory(workers=1).run_grid(cells)
        parallel = engine_factory(workers=2).run_grid(cells)
        assert serial == parallel

    def test_cell_independent_of_grid_composition(self, engine_factory):
        """A cell's seeds derive from its content, not its grid position,
        so running it alone or inside a grid gives identical results."""
        in_grid = engine_factory(workers=1).run_grid(
            [GridCell("slow", _config(p)) for p in GRID_POLICIES]
        )[1]
        alone = engine_factory(workers=1).run_cell(
            "slow", _config(GRID_POLICIES[1]))
        assert alone == in_grid

    def test_master_seed_changes_results(self, engine_factory):
        base = engine_factory(workers=1).run_cell("slow", _config("all"))
        other = engine_factory(workers=1, master_seed=8).run_cell(
            "slow", _config("all"))
        assert base.delay_ms != other.delay_ms

    def test_repeats_are_independent(self, engine_factory):
        engine = engine_factory(workers=1, repeats=4)
        summary = engine.run_cell("slow", _config("all"))
        assert summary.n_runs == 4
        assert summary.delay_ms.ci_halfwidth > 0.0  # streams not reused


class TestSummaries:
    def test_metrics_shape(self, engine_factory):
        summary = engine_factory(workers=1).run_cell(
            "slow", _config("I", decode=True))
        assert summary.delay_ms.mean > 0
        assert summary.power_w.mean > 0
        assert summary.receiver_psnr_db.mean > 30.0
        assert summary.eavesdropper_psnr_db.mean < 15.0
        assert summary.n_runs == 3

    def test_decode_disabled_skips_video_metrics(self, engine_factory):
        summary = engine_factory(workers=1).run_cell(
            "slow", _config("I", decode=False))
        assert summary.receiver_psnr_db is None
        assert summary.eavesdropper_mos is None

    def test_unknown_scenario_rejected(self, engine_factory):
        engine = engine_factory(workers=1)
        with pytest.raises(KeyError):
            engine.run_cell("nope", _config())


class TestCache:
    def test_replay_performs_zero_simulations(self, engine_factory,
                                              tmp_path):
        cells = [GridCell("slow", _config(p)) for p in GRID_POLICIES]
        first = engine_factory(workers=1, cache=ResultCache(tmp_path))
        fresh = first.run_grid(cells)
        assert first.simulations_run == 3 * len(cells)
        assert first.cache.misses == len(cells)

        replay_cache = ResultCache(tmp_path)
        second = engine_factory(workers=1, cache=replay_cache)
        replayed = second.run_grid(cells)
        assert second.simulations_run == 0
        assert replay_cache.hits == len(cells)
        assert replayed == fresh  # byte-identical summaries
        assert all(summary.from_cache for summary in replayed)

    def test_decoded_metrics_survive_the_cache(self, engine_factory,
                                               tmp_path):
        cell = GridCell("slow", _config("I", decode=True))
        fresh = engine_factory(
            workers=1, cache=ResultCache(tmp_path)).run_grid([cell])[0]
        replayed = engine_factory(
            workers=1, cache=ResultCache(tmp_path)).run_grid([cell])[0]
        assert replayed == fresh
        assert replayed.eavesdropper_mos == fresh.eavesdropper_mos

    def test_key_sensitivity(self, engine_factory, tmp_path):
        engine = engine_factory(workers=1, cache=ResultCache(tmp_path))
        keys = {
            engine.cell_key(GridCell("slow", _config("I"))),
            engine.cell_key(GridCell("slow", _config("all"))),
            engine.cell_key(GridCell("slow", _config("I", decode=True))),
            engine.cell_key(GridCell("slow", _config("I"), repeats=5)),
            engine.cell_key(GridCell("slow", _config("I", engine="events"))),
            engine.cell_key(GridCell(
                "slow", _config("I", flows=2, engine="events"))),
        }
        assert len(keys) == 6

    def test_clear(self, engine_factory, tmp_path):
        cache = ResultCache(tmp_path)
        engine = engine_factory(workers=1, cache=cache)
        engine.run_cell("slow", _config("I"))
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0


class TestCacheFidelity:
    def test_run_metrics_float_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        runs = [RunMetrics(mean_delay_ms=0.1 + 0.2,
                           mean_waiting_ms=1e-17,
                           average_power_w=3.14159265358979,
                           eavesdropper_psnr_db=None)]
        cache.put_runs("k" * 64, runs)
        assert cache.get_runs("k" * 64) == runs

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get_runs("absent") is None
        assert cache.misses == 1


class TestBugfixes:
    def test_duplicate_cells_simulated_once(self, engine_factory):
        """Two identical uncached cells must share one simulation batch,
        with the summary fanned back to both grid positions."""
        engine = engine_factory(workers=1)
        out = engine.run_grid([GridCell("slow", _config("I")),
                               GridCell("slow", _config("all")),
                               GridCell("slow", _config("I"))])
        assert engine.simulations_run == 3 * 2  # 2 unique cells, not 3
        assert out[0] == out[2]

    def test_duplicate_cells_single_cache_write(self, engine_factory,
                                                tmp_path):
        cache = ResultCache(tmp_path)
        engine = engine_factory(workers=1, cache=cache)
        engine.run_grid([GridCell("slow", _config("I")),
                         GridCell("slow", _config("I"))])
        assert engine.simulations_run == 3
        assert len(cache) == 1

    def test_zero_repeats_rejected_not_coerced(self, engine_factory):
        engine = engine_factory(workers=1)
        with pytest.raises(ValueError, match="repeats"):
            engine.run_cell("slow", _config("I"), repeats=0)
        with pytest.raises(ValueError, match="repeats"):
            engine.cell_key(GridCell("slow", _config("I"), repeats=-2))

    def test_engine_repeats_validated(self):
        with pytest.raises(ValueError, match="repeats"):
            ExperimentEngine(workers=1, repeats=0)

    def test_garbage_workers_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_ENGINE_WORKERS"):
            ExperimentEngine()

    def test_workers_env_still_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "1")
        assert ExperimentEngine().workers == 1


class TestStatsSurface:
    def test_stats_without_cache(self, engine_factory):
        engine = engine_factory(workers=1)
        engine.run_cell("slow", _config("I"))
        stats = engine.stats()
        assert stats["simulations_run"] == 3
        assert stats["memo_entries"] == 1
        assert stats["cache"] is None

    def test_stats_with_cache(self, engine_factory, tmp_path):
        engine = engine_factory(workers=1, cache=ResultCache(tmp_path))
        engine.run_cell("slow", _config("I"))
        engine.run_cell("slow", _config("I"))  # memo hit, no new lookup
        cache_stats = engine.stats()["cache"]
        assert cache_stats["entries"] == 1
        assert cache_stats["misses"] == 1
        assert cache_stats["evictions"] == 0
        assert cache_stats["corrupt"] == 0
        assert cache_stats["index_backend"] == "sqlite"


class TestScenarios:
    def test_conflicting_registration_rejected(self, slow_clip,
                                               slow_bitstream, fast_clip,
                                               fast_bitstream):
        engine = ExperimentEngine(workers=1)
        engine.add_scenario("clip", slow_clip, slow_bitstream)
        engine.add_scenario("clip", slow_clip, slow_bitstream)  # idempotent
        with pytest.raises(ValueError):
            engine.add_scenario("clip", fast_clip, fast_bitstream)

    def test_fingerprint_tracks_content(self, slow_clip, slow_bitstream,
                                        fast_clip, fast_bitstream):
        assert scenario_fingerprint(slow_clip, slow_bitstream) == \
            scenario_fingerprint(slow_clip, slow_bitstream)
        assert scenario_fingerprint(slow_clip, slow_bitstream) != \
            scenario_fingerprint(fast_clip, fast_bitstream)

    def test_describe_config_is_json_canonical(self):
        description = describe_config(_config("I"))
        assert description["policy"]["mode"] == "i_frames"
        assert description["device"]["name"] == "Samsung Galaxy S-II"
        assert description["link"] is None
        # schema v2: flows/engine appear only off their defaults, so
        # pre-existing cells keep their v1 payloads and seed streams.
        assert "flows" not in description
        assert "engine" not in description
        multi = describe_config(_config("I", flows=2, engine="events"))
        assert multi["flows"] == 2
        assert multi["engine"] == "events"

    def test_multiflow_cells_run_and_cache(self, engine_factory, tmp_path):
        engine = engine_factory(workers=1, cache=ResultCache(tmp_path))
        cell = GridCell("slow", _config("I", flows=2, engine="events"))
        first = engine.run_grid([cell])[0]
        before = engine.simulations_run
        second = engine.run_grid([cell])[0]
        assert engine.simulations_run == before
        assert second == first
        assert first.delay_ms.mean > 0
