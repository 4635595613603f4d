"""Tests for the decoded-block cache and single-flight primitives."""

import threading

import numpy as np
import pytest

from repro.api.cache import CacheStats, DecodedBlockCache, SingleFlight


class TestDecodedBlockCache:
    def test_get_miss_then_hit(self):
        cache = DecodedBlockCache(100)
        assert cache.get("a") is None
        assert cache.put("a", "va", 10)
        assert cache.get("a") == "va"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = DecodedBlockCache(30)
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        cache.put("c", 3, 10)
        cache.put("d", 4, 10)          # evicts "a", the LRU entry
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.stats.evictions == 1
        assert cache.stats.current_bytes == 30

    def test_get_refreshes_recency(self):
        cache = DecodedBlockCache(30)
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        cache.put("c", 3, 10)
        assert cache.get("a") == 1     # "b" becomes LRU
        cache.put("d", 4, 10)
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_oversized_value_rejected(self):
        cache = DecodedBlockCache(100)
        cache.put("small", 1, 10)
        assert not cache.put("huge", 2, 101)
        assert cache.stats.rejected == 1
        # The oversized value must not have evicted anything.
        assert cache.get("small") == 1
        assert "huge" not in cache

    def test_replace_existing_key(self):
        cache = DecodedBlockCache(100)
        cache.put("a", 1, 40)
        cache.put("a", 2, 60)
        assert cache.get("a") == 2
        assert cache.stats.current_bytes == 60
        assert len(cache) == 1

    def test_multi_entry_eviction_for_large_value(self):
        cache = DecodedBlockCache(100)
        cache.put("a", 1, 40)
        cache.put("b", 2, 40)
        cache.put("c", 3, 90)          # needs both evicted
        assert cache.get("a") is None
        assert cache.get("b") is None
        assert cache.get("c") == 3
        assert cache.stats.evictions == 2

    def test_pop_and_clear(self):
        cache = DecodedBlockCache(100)
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        assert cache.pop("a") == 1
        assert cache.pop("missing") is None
        assert cache.stats.current_bytes == 10
        hits_before = cache.stats.hits
        assert cache.clear() == 1
        assert cache.stats.current_bytes == 0
        # Clearing drops contents, not lookup history.
        assert cache.stats.hits == hits_before

    def test_peak_bytes_tracks_high_water(self):
        cache = DecodedBlockCache(100)
        cache.put("a", 1, 80)
        cache.pop("a")
        cache.put("b", 2, 20)
        assert cache.stats.peak_bytes == 80

    def test_zero_capacity_rejects_everything(self):
        cache = DecodedBlockCache(0)
        assert not cache.put("a", 1, 1)
        assert cache.put("b", 2, 0)    # zero-cost entries still fit

    def test_negative_capacity_and_size_rejected(self):
        with pytest.raises(ValueError):
            DecodedBlockCache(-1)
        cache = DecodedBlockCache(10)
        with pytest.raises(ValueError):
            cache.put("a", 1, -5)

    def test_keys_in_lru_order(self):
        cache = DecodedBlockCache(100)
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        cache.get("a")
        assert cache.keys() == ["b", "a"]

    def test_thread_hammer_keeps_accounting_consistent(self):
        cache = DecodedBlockCache(1000)
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(300):
                    key = int(rng.integers(0, 20))
                    if rng.random() < 0.5:
                        cache.put(key, key, int(rng.integers(1, 200)))
                    else:
                        value = cache.get(key)
                        if value is not None and value != key:
                            errors.append((key, value))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert 0 <= cache.stats.current_bytes <= 1000
        total = sum(nbytes for _, nbytes in cache._entries.values())
        assert cache.stats.current_bytes == total


class TestCacheStats:
    def test_hit_rate_with_no_lookups(self):
        assert CacheStats().hit_rate == 0.0

    def test_to_dict_shape(self):
        info = CacheStats(hits=3, misses=1).to_dict()
        assert info["hit_rate"] == 0.75
        assert set(info) == {"hits", "misses", "evictions", "rejected",
                             "current_bytes", "peak_bytes", "hit_rate"}


class TestSingleFlight:
    def test_leader_and_follower_share_result(self):
        flights = SingleFlight()
        future, leader = flights.begin("k")
        assert leader
        follower_future, follower = flights.begin("k")
        assert not follower
        assert follower_future is future
        assert flights.coalesced == 1
        flights.resolve("k", 42)
        assert future.result(timeout=1) == 42
        assert flights.inflight == 0

    def test_reject_propagates_and_clears(self):
        flights = SingleFlight()
        future, _ = flights.begin("k")
        flights.reject("k", RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            future.result(timeout=1)
        # The key is retired: the next begin leads a fresh flight.
        _, leader = flights.begin("k")
        assert leader

    def test_distinct_keys_fly_independently(self):
        flights = SingleFlight()
        _, leader_a = flights.begin("a")
        _, leader_b = flights.begin("b")
        assert leader_a and leader_b
        assert flights.inflight == 2
        assert flights.coalesced == 0

    def test_run_coalesces_concurrent_threads(self):
        flights = SingleFlight()
        calls = []
        barrier = threading.Barrier(8)
        gate = threading.Event()
        results = []

        def compute():
            calls.append(1)
            gate.wait(timeout=5)
            return "value"

        def worker():
            barrier.wait(timeout=5)
            results.append(flights.run("k", compute))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        # Let every thread reach begin() before the leader finishes.
        while flights.coalesced < 7:
            if not any(t.is_alive() for t in threads):  # pragma: no cover
                break
        gate.set()
        for t in threads:
            t.join(timeout=5)
        assert len(calls) == 1
        assert results == ["value"] * 8
        assert flights.coalesced == 7

    def test_run_failure_reaches_every_waiter(self):
        flights = SingleFlight()
        barrier = threading.Barrier(4)
        gate = threading.Event()
        outcomes = []

        def compute():
            gate.wait(timeout=5)
            raise ValueError("decode failed")

        def worker():
            barrier.wait(timeout=5)
            try:
                flights.run("k", compute)
            except ValueError as exc:
                outcomes.append(str(exc))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        while flights.coalesced < 3:
            if not any(t.is_alive() for t in threads):  # pragma: no cover
                break
        gate.set()
        for t in threads:
            t.join(timeout=5)
        assert outcomes == ["decode failed"] * 4
