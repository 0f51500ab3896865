"""Result cache: hit/miss semantics, the eviction score, the on-disk tier
and hot-set persistence."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.result import SynthesisResult
from repro.engine.cache import ResultCache


def make_result(error: int, method: str = "symgd") -> SynthesisResult:
    return SynthesisResult(
        weights=np.asarray([0.5, 0.3, 0.2]),
        attributes=["A1", "A2", "A3"],
        error=error,
        objective=float(error),
        optimal=False,
        method=method,
        diagnostics={"k": 3},
    )


def saved_entries(cache: ResultCache, path) -> dict:
    """The cache's hot-set records (score, freq, cost) by fingerprint."""
    cache.save_hot_set(path)
    entries = json.loads(path.read_text(encoding="utf-8"))["entries"]
    return {entry["fingerprint"]: entry for entry in entries}


def test_hit_miss_and_stats():
    cache = ResultCache(capacity=4)
    assert cache.get("a") is None
    cache.put("a", make_result(1))
    hit = cache.get("a")
    assert hit is not None and hit.error == 1
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1
    assert cache.stats.hit_rate == 0.5
    assert "a" in cache and len(cache) == 1


def test_rehit_entry_survives_eviction():
    cache = ResultCache(capacity=2)
    cache.put("a", make_result(1))
    cache.put("b", make_result(2))
    assert cache.get("a") is not None  # re-hit "a": it now outscores "b"
    cache.put("c", make_result(3))
    assert cache.stats.evictions == 1
    assert "b" not in cache
    assert "a" in cache and "c" in cache


def test_victim_is_lowest_score_not_oldest():
    cache = ResultCache(capacity=2)
    cache.put("expensive", make_result(1), cost=1.0)
    cache.put("cheap", make_result(2), cost=0.001)
    cache.put("newcomer", make_result(3), cost=0.5)
    # Recency alone would evict "expensive" (the oldest entry); the score
    # evicts the cheap one instead.
    assert cache.stats.evictions == 1
    assert "cheap" not in cache
    assert "expensive" in cache and "newcomer" in cache


def test_frequency_estimate_decays(tmp_path):
    cache = ResultCache(capacity=4)
    cache.put("a", make_result(1), cost=1.0)
    # 32 cache accesses that never touch "a": the store of "b" and 31 hits.
    cache.put("b", make_result(2), cost=1.0)
    for _ in range(31):
        assert cache.get("b") is not None
    entries = saved_entries(cache, tmp_path / "hot.json")
    assert entries["a"]["freq"] == pytest.approx(0.5)
    assert entries["a"]["score"] == pytest.approx(0.5)


def test_hot_set_survives_a_scan():
    cache = ResultCache(capacity=4)
    hot = [f"hot{i}" for i in range(3)]
    for key in hot:
        cache.put(key, make_result(1), cost=1.0)
    for _ in range(5):
        for key in hot:
            assert cache.get(key) is not None
    # A scan of cheap one-offs washes through: each newcomer is admitted
    # and immediately evicted as the global minimum score.
    for index in range(20):
        cache.put(f"scan{index}", make_result(2), cost=1e-9)
    for key in hot:
        assert key in cache
    assert cache.stats.evictions == 19


def test_disk_tier_round_trip(tmp_path):
    disk = tmp_path / "cache"
    cache = ResultCache(capacity=4, disk_path=disk)
    cache.put("deadbeef", make_result(3))
    assert (disk / "deadbeef.json").is_file()

    # A fresh cache instance (fresh process, conceptually) reads it back.
    fresh = ResultCache(capacity=4, disk_path=disk)
    result = fresh.get("deadbeef")
    assert result is not None and result.error == 3
    assert fresh.stats.disk_hits == 1
    # The disk hit is promoted into memory: next lookup avoids the disk.
    assert "deadbeef" in fresh


def test_eviction_keeps_disk_entry(tmp_path):
    cache = ResultCache(capacity=1, disk_path=tmp_path)
    cache.put("a", make_result(1))
    cache.put("b", make_result(2))  # evicts "a" from memory
    assert "a" not in cache
    recovered = cache.get("a")
    assert recovered is not None and recovered.error == 1
    assert cache.stats.disk_hits == 1


def test_unwritable_disk_tier_does_not_fail_put(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("", encoding="utf-8")
    # disk_path points at an existing *file*: every write attempt fails, but
    # the solve result must still land in the memory tier without raising.
    cache = ResultCache(capacity=2, disk_path=blocker)
    cache.put("a", make_result(4))
    hit = cache.get("a")
    assert hit is not None and hit.error == 4


def test_cached_entries_do_not_alias_caller_objects():
    cache = ResultCache(capacity=2)
    original = make_result(1)
    cache.put("a", original)
    original.weights[:] = -5.0  # caller mutates after storing
    first = cache.get("a")
    assert np.all(first.weights >= 0.0)
    first.diagnostics["k"] = "corrupted"  # caller mutates a hit
    second = cache.get("a")
    assert second.diagnostics["k"] == 3


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    cache = ResultCache(capacity=2, disk_path=tmp_path)
    assert cache.get("bad") is None
    assert cache.stats.misses == 1


def test_truncated_entry_is_quarantined_and_counted(tmp_path):
    (tmp_path / "torn.json").write_text('{"torn": ', encoding="utf-8")
    cache = ResultCache(capacity=2, disk_path=tmp_path)
    assert cache.get("torn") is None
    assert cache.stats.misses == 1
    assert cache.stats.quarantined == 1
    # The poison is renamed aside: evidence kept, re-parse impossible.
    assert not (tmp_path / "torn.json").exists()
    assert (tmp_path / "torn.json.quarantined").is_file()
    # The next lookup of the same key is a clean miss, not a re-quarantine.
    assert cache.get("torn") is None
    assert cache.stats.quarantined == 1
    # And the slot is writable again: a fresh solve repopulates it.
    cache.put("torn", make_result(9))
    restarted = ResultCache(capacity=2, disk_path=tmp_path)
    recovered = restarted.get("torn")
    assert recovered is not None and recovered.error == 9


def test_key_mismatched_envelope_is_quarantined(tmp_path):
    cache = ResultCache(capacity=2, disk_path=tmp_path)
    cache.put("aaaa", make_result(1))
    # Simulate a mislinked/misnamed entry: bbbb.json carrying aaaa's bytes.
    (tmp_path / "bbbb.json").write_text(
        (tmp_path / "aaaa.json").read_text(encoding="utf-8"), encoding="utf-8"
    )
    fresh = ResultCache(capacity=2, disk_path=tmp_path)
    # The envelope's recorded key disagrees with the filename: the wrong
    # answer must NOT be served under bbbb.
    assert fresh.get("bbbb") is None
    assert fresh.stats.quarantined == 1
    assert (tmp_path / "bbbb.json.quarantined").is_file()
    # The well-formed entry is untouched.
    hit = fresh.get("aaaa")
    assert hit is not None and hit.error == 1


def test_unrebuildable_payload_is_quarantined(tmp_path):
    import json

    (tmp_path / "hollow.json").write_text(
        json.dumps({"version": 1, "key": "hollow", "result": {"nope": True}}),
        encoding="utf-8",
    )
    cache = ResultCache(capacity=2, disk_path=tmp_path)
    assert cache.get("hollow") is None
    assert cache.stats.quarantined == 1
    assert (tmp_path / "hollow.json.quarantined").is_file()


def test_legacy_bare_result_files_stay_readable(tmp_path):
    import json

    # Pre-envelope format: the result dict directly, no key/version wrapper.
    (tmp_path / "old.json").write_text(
        json.dumps(make_result(6).to_dict()), encoding="utf-8"
    )
    cache = ResultCache(capacity=2, disk_path=tmp_path)
    hit = cache.get("old")
    assert hit is not None and hit.error == 6
    assert cache.stats.disk_hits == 1
    assert cache.stats.quarantined == 0


def test_fault_hook_sees_every_disk_read(tmp_path):
    cache = ResultCache(capacity=1, disk_path=tmp_path)
    cache.put("aa", make_result(1))
    cache.put("bb", make_result(2))  # evicts "aa" from memory
    seen = []
    cache.fault_hook = lambda key, path: seen.append((key, path.name))
    assert cache.get("aa") is not None  # served from disk -> hook fired
    assert seen == [("aa", "aa.json")]
    assert cache.get("aa") is not None  # now memory-resident -> no hook
    assert seen == [("aa", "aa.json")]


def test_clear_and_validation(tmp_path):
    with pytest.raises(ValueError):
        ResultCache(capacity=0)
    cache = ResultCache(capacity=2, disk_path=tmp_path)
    cache.put("a", make_result(1))
    cache.clear(disk=True)
    assert len(cache) == 0
    assert not list(tmp_path.glob("*.json"))


def test_get_sees_entry_raced_in_during_disk_probe():
    """Regression: get() used to drop the lock for the disk probe and then
    record a miss (returning None) even when a concurrent put() had landed
    the entry in memory during that window."""
    cache = ResultCache(capacity=4)
    result = make_result(5)
    original = cache._load_from_disk

    def racing_load(key):
        # A writer completes a put() while the reader is off-lock probing
        # the (absent) disk tier.
        cache.put(key, result)
        return original(key)

    cache._load_from_disk = racing_load
    got = cache.get("raced")
    assert got is not None and got.error == 5
    assert cache.stats.hits == 1
    assert cache.stats.misses == 0


def test_promote_is_stats_neutral(tmp_path):
    cache = ResultCache(capacity=4, disk_path=tmp_path)
    cache.put("a", make_result(1))

    restarted = ResultCache(capacity=4, disk_path=tmp_path)
    assert restarted.promote("a") is True
    assert "a" in restarted
    assert restarted.stats.promotions == 1
    assert restarted.stats.hits == 0 and restarted.stats.misses == 0
    # Promoting an already-resident key reports residency without counting.
    assert restarted.promote("a") is True
    assert restarted.stats.promotions == 1
    # Unknown keys are not fabricated -- and still not counted as misses.
    assert restarted.promote("nope") is False
    assert restarted.stats.hits == 0 and restarted.stats.misses == 0
    # The promoted entry serves real lookups as an ordinary memory hit.
    hit = restarted.get("a")
    assert hit is not None and hit.error == 1
    assert restarted.stats.hits == 1 and restarted.stats.disk_hits == 0


def test_promote_without_disk_tier_is_a_noop():
    cache = ResultCache(capacity=4)
    assert cache.promote("anything") is False
    assert cache.stats.promotions == 0
    assert cache.stats.hits == 0 and cache.stats.misses == 0


# -- hot-set persistence -------------------------------------------------------


def test_hot_set_round_trip_restores_entries_and_scores(tmp_path):
    cache_dir = tmp_path / "tier"
    cache = ResultCache(capacity=8, disk_path=cache_dir)
    for index in range(4):
        cache.put(f"k{index}", make_result(index), cost=float(index + 1))
    cache.get("k3")
    hot_file = tmp_path / "hot.json"
    assert cache.save_hot_set(hot_file) == 4
    saved = json.loads(hot_file.read_text(encoding="utf-8"))
    assert saved["version"] == 1

    restarted = ResultCache(capacity=8, disk_path=cache_dir)
    assert restarted.load_hot_set(hot_file) == 4
    assert len(restarted) == 4
    # Stats-neutral rebuild: promotions only, the hit-rate signal untouched.
    assert restarted.stats.promotions == 4
    assert restarted.stats.hits == 0 and restarted.stats.misses == 0
    # Scores survive: every cost comes back, the re-hit key (saved last)
    # keeps its frequency, and it still outranks the cheapest key.
    reloaded = saved_entries(restarted, tmp_path / "again.json")
    assert [reloaded[f"k{i}"]["cost"] for i in range(4)] == [1.0, 2.0, 3.0, 4.0]
    assert reloaded["k3"]["freq"] == saved["entries"][-1]["freq"] > 1.0
    assert reloaded["k3"]["score"] > reloaded["k0"]["score"]


def test_hot_set_reload_into_a_smaller_cache_keeps_the_best_entries(tmp_path):
    cache_dir = tmp_path / "tier"
    cache = ResultCache(capacity=8, disk_path=cache_dir)
    for index in range(6):
        cache.put(f"k{index}", make_result(index), cost=float(index + 1))
    hot_file = tmp_path / "hot.json"
    assert cache.save_hot_set(hot_file) == 6

    small = ResultCache(capacity=2, disk_path=cache_dir)
    loaded = small.load_hot_set(hot_file)
    # Each entry is inserted with its saved score, so the two costliest
    # win; the count and the kept scores cover resident entries only.
    assert loaded == len(small) == 2
    assert {f"k{i}" for i in range(6) if f"k{i}" in small} == {"k4", "k5"}
    assert set(saved_entries(small, tmp_path / "small.json")) == {"k4", "k5"}
