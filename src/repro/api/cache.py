"""Decoded-block caching and request coalescing primitives.

The serve layer (:mod:`repro.serve`) — and, later, a sharded
``SAGeCorpus`` — repeatedly answers the same question: *the decoded
form of block i of archive A under stream selection S*.  Answering it
twice wastes the numpy decode; answering it twice **concurrently**
wastes it twice at once.  This module holds the two primitives that
close both gaps, deliberately free of any HTTP or asyncio dependency
so every consumer (event loop, thread pool, plain synchronous code)
shares one implementation:

:class:`DecodedBlockCache`
    A bytes-bounded, thread-safe LRU.  Entries are keyed by an opaque
    hashable — the convention is ``(archive, block, selection_token)``
    (see ``StreamSelection.cache_token``) — and charged their *decoded*
    size, not their compressed size, so the budget reflects resident
    memory.  Hit/miss/evict accounting lives on :attr:`~DecodedBlockCache.stats`.

:class:`SingleFlight`
    Duplicate-suppression for in-flight work: the first caller to
    :meth:`~SingleFlight.begin` a key becomes the *leader* and performs
    the computation; every concurrent caller for the same key gets the
    leader's :class:`concurrent.futures.Future` to wait on instead of
    recomputing.  Failures propagate to all waiters and are **not**
    cached — the next request retries.

The charge for a decoded :class:`~repro.genomics.reads.ReadSet` is its
:attr:`~repro.genomics.reads.ReadSet.nbytes` — the bytes of its columns
(base codes, quality scores, read offsets, header text).  The static
counterpart,
:meth:`repro.core.container.SAGeBlock.decoded_nbytes_estimate`, prices
the same buffers *without* decoding the block, which is how a server
sizes this cache up front.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Hashable

__all__ = ["CacheStats", "DecodedBlockCache", "SingleFlight"]


@dataclass
class CacheStats:
    """Lookup and occupancy accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Values larger than the whole cache budget are not stored at all.
    rejected: int = 0
    current_bytes: int = 0
    peak_bytes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "rejected": self.rejected,
                "current_bytes": self.current_bytes,
                "peak_bytes": self.peak_bytes,
                "hit_rate": round(self.hit_rate, 4)}


class DecodedBlockCache:
    """A bytes-bounded, thread-safe LRU over decoded blocks.

    ``capacity_bytes`` bounds the *sum of the charged sizes* of the
    cached values, not their count: a fleet of small blocks and a
    handful of large ones compete for the same resident budget.  A
    value charged more than the whole capacity is rejected outright
    (counted in ``stats.rejected``) instead of evicting everything for
    a single entry.

    All methods are safe to call from any thread; the cache never
    invokes user code under its lock.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError(
                f"cache capacity must be >= 0 bytes, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self._lock = threading.Lock()
        #: key -> (value, charged_nbytes); insertion order == LRU order.
        self._entries: "OrderedDict[Hashable, tuple[Any, int]]" = \
            OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        # A pure membership probe: no stats, no recency update.
        with self._lock:
            return key in self._entries

    @property
    def current_bytes(self) -> int:
        return self.stats.current_bytes

    def get(self, key: Hashable) -> Any | None:
        """The cached value for ``key`` (refreshing its recency), or
        ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0]

    def put(self, key: Hashable, value: Any, nbytes: int) -> bool:
        """Store ``value`` charged at ``nbytes``; returns whether it was
        cached.  Evicts least-recently-used entries until the budget
        holds; replaces an existing entry for ``key`` in place."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"entry size must be >= 0, got {nbytes}")
        with self._lock:
            if nbytes > self.capacity_bytes:
                self.stats.rejected += 1
                return False
            old = self._entries.pop(key, None)
            if old is not None:
                self.stats.current_bytes -= old[1]
            while self._entries and \
                    self.stats.current_bytes + nbytes > self.capacity_bytes:
                _, (_, dropped) = self._entries.popitem(last=False)
                self.stats.current_bytes -= dropped
                self.stats.evictions += 1
            self._entries[key] = (value, nbytes)
            self.stats.current_bytes += nbytes
            self.stats.peak_bytes = max(self.stats.peak_bytes,
                                        self.stats.current_bytes)
            return True

    def pop(self, key: Hashable) -> Any | None:
        """Remove and return ``key``'s value (``None`` when absent)."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return None
            self.stats.current_bytes -= entry[1]
            return entry[0]

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped.  Lookup
        statistics are preserved — clearing resets *contents*, not
        history."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.current_bytes = 0
            return dropped

    def keys(self) -> list:
        """Current keys in LRU order (least recently used first)."""
        with self._lock:
            return list(self._entries)


class SingleFlight:
    """Coalesce concurrent computations of the same key into one.

    Usage (explicit, for event loops that must not block a thread)::

        future, leader = flights.begin(key)
        if not leader:
            value = future.result()        # or await asyncio.wrap_future
        else:
            try:
                value = compute()
            except BaseException as exc:
                flights.reject(key, exc)   # wakes every waiter with exc
                raise
            flights.resolve(key, value)

    or the synchronous convenience :meth:`run`, which wraps exactly
    that protocol.  Outcomes — success or failure — are delivered to
    every waiter registered before ``resolve``/``reject`` and then
    forgotten: single-flight deduplicates *in-flight* work only;
    memoization is the cache's job.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[Hashable, Future] = {}
        #: Total calls that joined another caller's in-flight compute.
        self.coalesced = 0

    def begin(self, key: Hashable) -> "tuple[Future, bool]":
        """Claim ``key``: returns ``(future, is_leader)``.

        The leader must later call :meth:`resolve` or :meth:`reject`
        exactly once; non-leaders wait on the returned future.
        """
        with self._lock:
            future = self._inflight.get(key)
            if future is not None:
                self.coalesced += 1
                return future, False
            future = Future()
            self._inflight[key] = future
            return future, True

    def resolve(self, key: Hashable, value: Any) -> None:
        """Deliver the leader's result to every waiter and retire the
        key."""
        with self._lock:
            future = self._inflight.pop(key)
        future.set_result(value)

    def reject(self, key: Hashable, exc: BaseException) -> None:
        """Deliver the leader's failure to every waiter and retire the
        key — the *next* ``begin`` for it starts a fresh computation."""
        with self._lock:
            future = self._inflight.pop(key)
        future.set_exception(exc)

    def run(self, key: Hashable, fn: Callable[[], Any]) -> Any:
        """Compute ``fn()`` once per concurrent burst of ``key``.

        The leader executes ``fn`` on the calling thread; every other
        concurrent caller blocks until the leader finishes and receives
        the same result (or the same exception).
        """
        future, leader = self.begin(key)
        if not leader:
            return future.result()
        try:
            value = fn()
        except BaseException as exc:
            self.reject(key, exc)
            raise
        self.resolve(key, value)
        return value

    @property
    def inflight(self) -> int:
        """Number of keys currently being computed."""
        with self._lock:
            return len(self._inflight)
