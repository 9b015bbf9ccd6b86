"""Sharded result cache: layout, corruption handling, eviction, the
sqlite index and its recovery (also over directories that still hold the
JSON-lines index of older releases), and crash-safe maintenance."""

import hashlib
import json
import sqlite3

import pytest

from repro.testbed.cache import QUARANTINE_DIR, ResultCache, RunMetrics


def make_key(label) -> str:
    return hashlib.sha256(str(label).encode()).hexdigest()


def make_runs(value: float = 1.0):
    return [RunMetrics(mean_delay_ms=value, mean_waiting_ms=2.0,
                       average_power_w=3.0, receiver_psnr_db=38.5)]


STALE_KEY = make_key("indexed-only-by-an-older-release")


def open_cache(directory, index_kind, **kwargs) -> ResultCache:
    """Open a cache over ``directory`` as ``index_kind`` left it.

    ``"sqlite"`` is the one index the cache keeps.  ``"jsonl"`` is a
    directory from a release that indexed it in JSON lines: a stale
    ``index.jsonl`` sits beside the shards, naming an entry whose file is
    gone.  The cache must neither read nor count it, so every test that
    takes ``index_kind`` holds for both.
    """
    if index_kind == "jsonl":
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "index.jsonl").write_text(json.dumps(
            {"op": "put", "key": STALE_KEY, "size": 4096,
             "created": 0.0, "accessed": 0.0}) + "\n")
    return ResultCache(directory, **kwargs)


@pytest.fixture(params=["sqlite", "jsonl"])
def index_kind(request):
    return request.param


@pytest.fixture()
def cache(tmp_path, index_kind):
    cache = open_cache(tmp_path, index_kind)
    yield cache
    cache.close()


class TestShardedLayout:
    def test_entry_lands_in_its_shard(self, cache, tmp_path):
        key = make_key("cell")
        cache.put_runs(key, make_runs())
        assert (tmp_path / key[:2] / f"{key}.json").is_file()
        assert not (tmp_path / f"{key}.json").exists()
        assert cache.get_runs(key) == make_runs()

    def test_len_and_stats_come_from_the_index(self, cache, tmp_path):
        for i in range(5):
            cache.put_runs(make_key(i), make_runs(float(i)))
        assert len(cache) == 5
        stats = cache.stats()
        assert stats["entries"] == 5
        assert stats["total_bytes"] == cache.total_bytes() > 0
        assert stats["index_backend"] == "sqlite"
        assert (tmp_path / "index.sqlite").is_file()

    def test_round_trip_preserves_floats(self, cache):
        runs = [RunMetrics(mean_delay_ms=0.1 + 0.2,
                           mean_waiting_ms=1e-17,
                           average_power_w=3.14159265358979,
                           eavesdropper_psnr_db=None)]
        cache.put_runs("k" * 64, runs)
        assert cache.get_runs("k" * 64) == runs

    def test_missing_key_is_a_miss(self, cache):
        assert cache.get_runs("absent") is None
        assert cache.misses == 1
        assert cache.hits == 0


BAD_PAYLOADS = {
    "not-json": "{definitely not json",
    "not-a-dict": json.dumps([1, 2, 3]),
    "missing-runs": json.dumps({"meta": {}}),
    "runs-not-list": json.dumps({"runs": {"a": 1}}),
    "empty-runs": json.dumps({"runs": []}),
    "run-not-dict": json.dumps({"runs": [7]}),
    "future-schema-field": json.dumps({"runs": [{
        "mean_delay_ms": 1.0, "mean_waiting_ms": 2.0,
        "average_power_w": 3.0, "quantum_entanglement": 9.0}]}),
    "missing-required-field": json.dumps({"runs": [{
        "mean_delay_ms": 1.0, "mean_waiting_ms": 2.0}]}),
    "wrong-value-type": json.dumps({"runs": [{
        "mean_delay_ms": "fast", "mean_waiting_ms": 2.0,
        "average_power_w": 3.0}]}),
}


class TestCorruptEntries:
    @pytest.mark.parametrize("payload", sorted(BAD_PAYLOADS),
                             ids=sorted(BAD_PAYLOADS))
    def test_malformed_entry_is_a_quarantined_miss(self, cache, tmp_path,
                                                   payload):
        key = make_key(payload)
        cache.put_runs(key, make_runs())
        cache.backend.path_for(key).write_text(BAD_PAYLOADS[payload])

        assert cache.get_runs(key) is None
        assert cache.corrupt == 1
        assert cache.misses == 1
        assert cache.hits == 0
        # entry is gone from the store and the index, kept for post-mortem
        assert not cache.backend.path_for(key).exists()
        assert (tmp_path / QUARANTINE_DIR / f"{key}.json").is_file()
        assert len(cache) == 0
        # a second read is a plain miss, not another corruption
        assert cache.get_runs(key) is None
        assert cache.corrupt == 1
        assert cache.misses == 2

    def test_get_still_returns_schema_invalid_json(self, cache):
        """``get`` is the raw accessor: decodable JSON comes back as-is,
        only ``get_runs`` applies the schema."""
        key = make_key("raw")
        cache.put_runs(key, make_runs())
        cache.backend.path_for(key).write_text(
            BAD_PAYLOADS["missing-runs"])
        assert cache.get(key) == {"meta": {}}
        assert cache.corrupt == 0


class TestOrphanTempFiles:
    def _plant_orphans(self, cache, tmp_path):
        key = make_key("live")
        cache.put_runs(key, make_runs())
        (tmp_path / ".tmp-crashed1.json").write_text("{")
        (tmp_path / key[:2] / ".tmp-crashed2.json").write_text("{")
        return key

    def test_orphans_are_not_counted_as_entries(self, cache, tmp_path):
        self._plant_orphans(cache, tmp_path)
        assert len(cache) == 1
        assert cache.stats()["entries"] == 1

    def test_gc_sweeps_stale_orphans(self, tmp_path, index_kind):
        with open_cache(tmp_path, index_kind,
                        stale_tmp_seconds=0.0) as cache:
            key = self._plant_orphans(cache, tmp_path)
            report = cache.gc()
            assert report["tmp_removed"] == 2
            assert report["entries"] == 1
            assert not (tmp_path / ".tmp-crashed1.json").exists()
            assert not (tmp_path / key[:2] / ".tmp-crashed2.json").exists()
            assert cache.get_runs(key) == make_runs()

    def test_gc_spares_fresh_temp_files(self, tmp_path, index_kind):
        with open_cache(tmp_path, index_kind,
                        stale_tmp_seconds=3600.0) as cache:
            self._plant_orphans(cache, tmp_path)
            assert cache.gc()["tmp_removed"] == 0
            assert (tmp_path / ".tmp-crashed1.json").exists()

    def test_clear_removes_orphans_regardless_of_age(self, cache, tmp_path):
        self._plant_orphans(cache, tmp_path)
        assert cache.clear() == 1  # orphans removed but not counted
        assert len(cache) == 0
        assert not (tmp_path / ".tmp-crashed1.json").exists()
        assert list(tmp_path.glob("*/.tmp-*")) == []


class TestEviction:
    def test_max_entries_evicts_least_recently_used(self, tmp_path,
                                                    index_kind):
        with open_cache(tmp_path, index_kind, max_entries=2) as cache:
            k1, k2, k3 = (make_key(i) for i in range(3))
            cache.put_runs(k1, make_runs(1.0))
            cache.put_runs(k2, make_runs(2.0))
            assert cache.get_runs(k1) is not None  # k1 now more recent
            cache.put_runs(k3, make_runs(3.0))
            assert len(cache) == 2
            assert cache.evictions == 1
            assert cache.get_runs(k2) is None  # the LRU entry went
            assert cache.get_runs(k1) is not None
            assert cache.get_runs(k3) is not None
            assert not cache.backend.path_for(k2).exists()

    def test_max_bytes_respected(self, tmp_path, index_kind):
        probe = open_cache(tmp_path / "probe", index_kind)
        probe.put_runs(make_key("probe"), make_runs())
        entry_size = probe.total_bytes()
        probe.close()

        with open_cache(tmp_path / "real", index_kind,
                        max_bytes=int(entry_size * 2.5)) as cache:
            for i in range(4):
                cache.put_runs(make_key(i), make_runs())
            assert cache.evictions == 2
            assert len(cache) == 2
            assert cache.total_bytes() <= cache.max_bytes

    def test_newest_entry_never_evicted_by_its_own_put(self, tmp_path,
                                                       index_kind):
        with open_cache(tmp_path, index_kind, max_entries=1) as cache:
            for i in range(3):
                cache.put_runs(make_key(i), make_runs(float(i)))
                assert cache.get_runs(make_key(i)) is not None
            assert len(cache) == 1

    def test_gc_enforces_caps_on_existing_directory(self, tmp_path,
                                                    index_kind):
        with open_cache(tmp_path, index_kind) as cache:
            for i in range(6):
                cache.put_runs(make_key(i), make_runs())
        with open_cache(tmp_path, index_kind, max_entries=2) as capped:
            report = capped.gc()
            assert report["evicted"] == 4
            assert report["entries"] == 2
            assert len(capped) == 2

    def test_bad_caps_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(tmp_path, max_bytes=0)
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(tmp_path, max_entries=-1)


class TestIndexRebuild:
    def test_lost_index_rebuilt_from_shards(self, tmp_path, index_kind):
        with open_cache(tmp_path, index_kind) as cache:
            for i in range(3):
                cache.put_runs(make_key(i), make_runs())
        for path in list(tmp_path.glob("index.*")):
            path.unlink()
        # for "jsonl", an older release's index is all that is left
        with open_cache(tmp_path, index_kind) as reopened:
            assert len(reopened) == 3
            assert reopened.total_bytes() > 0
            assert reopened.get_runs(make_key(1)) is not None

    def test_get_heals_index_when_file_vanishes(self, cache):
        key = make_key("gone")
        cache.put_runs(key, make_runs())
        cache.backend.path_for(key).unlink()  # deleted behind our back
        assert cache.get_runs(key) is None
        assert len(cache) == 0  # the index followed the files

    def test_verify_rebuilds_and_quarantines(self, cache, tmp_path):
        good = make_key("good")
        bad = make_key("bad")
        adopted = make_key("adopted")
        cache.put_runs(good, make_runs())
        cache.put_runs(bad, make_runs())
        cache.backend.path_for(bad).write_text("{broken")
        # a file written by another process, unknown to this index
        foreign = cache.backend.path_for(adopted)
        foreign.parent.mkdir(parents=True, exist_ok=True)
        foreign.write_text(json.dumps(
            {"meta": {}, "runs": [{"mean_delay_ms": 1.0,
                                   "mean_waiting_ms": 2.0,
                                   "average_power_w": 3.0}]}))
        cache._index.remove(adopted)

        report = cache.verify()
        assert report["corrupt"] == 1
        assert report["adopted"] == 1
        assert report["stale_index"] == 1  # the quarantined key's old row
        assert report["entries"] == 2
        assert len(cache) == 2
        assert (tmp_path / QUARANTINE_DIR / f"{bad}.json").is_file()
        assert cache.get_runs(good) is not None
        assert cache.get_runs(adopted) is not None

    def test_corrupt_sqlite_index_recovered(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            cache.put_runs(make_key("x"), make_runs())
        (tmp_path / "index.sqlite").write_bytes(b"this is not a database")
        with ResultCache(tmp_path) as reopened:
            assert len(reopened) == 1  # fresh index rebuilt from shards
            assert reopened.get_runs(make_key("x")) is not None

    def test_unopenable_index_raises_after_one_retry(self, tmp_path):
        """Deleting a corrupt index is the only recovery; an index path
        that still cannot be opened is an error, not a silent miss."""
        (tmp_path / "index.sqlite").mkdir()
        with pytest.raises(sqlite3.Error):
            ResultCache(tmp_path).put_runs(make_key("x"), make_runs())


class TestClear:
    def test_clear_counts_entries_and_wipes_quarantine(self, cache,
                                                       tmp_path):
        for i in range(3):
            cache.put_runs(make_key(i), make_runs())
        bad = make_key(0)
        cache.backend.path_for(bad).write_text("{broken")
        cache.get_runs(bad)  # quarantines it
        assert cache.clear() == 2
        assert len(cache) == 0
        assert list((tmp_path / QUARANTINE_DIR).glob("*")) == []
        assert cache.get_runs(make_key(1)) is None

    def test_clear_on_missing_directory(self, tmp_path, index_kind):
        """For "jsonl" the directory exists but holds only the stale
        index of an older release: no entries, as if it were missing."""
        cache = open_cache(tmp_path / "never-created", index_kind)
        assert cache.clear() == 0
        assert len(cache) == 0
        assert cache.stats()["entries"] == 0
