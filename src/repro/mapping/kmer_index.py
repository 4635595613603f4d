"""K-mer index over a consensus sequence.

The compressor identifies mismatches "by mapping reads to the consensus
sequence" (§5.1).  This index supports that: it stores every k-mer of the
consensus in a sorted array, and a prefix-bucket table over the top bits
of the k-mer value turns resolving a read's k-mers into a table lookup
(seeding as Alser et al. and Senol Cali describe it) instead of a binary
search per query.

Layout: two ``uint32`` columns, the sorted k-mer values and the
consensus position of each, plus a ``uint32`` bucket table.  A k-mer of
``k <= 16`` bases is at most 32 bits and a position of a consensus under
2**32 bases is 32 bits, so the index refuses ``k > 16`` and longer
consensuses.  One sort builds both columns: every valid k-mer is packed
as ``(value << 32) | position`` in a ``uint64`` and sorted once, which
orders equal values by position (the order a stable sort of the values
gives), and the columns are the packed words' two halves.  The bucket
table has one entry per ``bits``-bit value prefix, ``n <= 2**bits < 2n``
for ``n`` k-mers, so a bucket holds about one k-mer; it is cut from the
sorted prefixes' run boundaries.  Held, that is 12–16 bytes per k-mer.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from ..genomics import sequence as seq
from ..genomics.reads import run_index

#: Longest k-mer whose value fits a ``uint32`` column.
MAX_K = 16

#: Slots read from a query's bucket start: every query reads the first
#: ``_PROBES``, one they leave open (a crowded bucket) reads on, and
#: one still open after ``_MAX_PROBES`` (a repeat) is finished by
#: binary search.
_PROBES = 3
_MAX_PROBES = 8

#: Where a packed ``(value << 32) | position`` word keeps its value half
#: when viewed as two ``uint32``.
_VALUE_HALF = 1 if sys.byteorder == "little" else 0


@dataclass
class AnchorHits:
    """Matching (read position, consensus position) anchor pairs."""

    read_pos: np.ndarray
    cons_pos: np.ndarray

    def __len__(self) -> int:
        return int(self.read_pos.size)


class KmerIndex:
    """Sorted-array index of all k-mers in a consensus sequence."""

    #: Total number of indexes built in this process.  Building is the
    #: expensive part (a sort over every consensus k-mer), so tests use
    #: this counter to assert the index is shared, not rebuilt, across
    #: block-compressor workers and mapper-cache entries.
    build_count = 0

    def __init__(self, consensus: np.ndarray, k: int = 15,
                 max_occurrences: int = 32) -> None:
        """Index ``consensus``.

        ``max_occurrences`` caps how many consensus positions a single
        (repetitive) k-mer may report during queries.
        """
        if not 1 <= k <= MAX_K:
            raise ValueError(f"k={k} is outside 1..{MAX_K}: a k-mer value "
                             "is held in 32 bits")
        consensus = np.asarray(consensus, dtype=np.uint8)
        if consensus.size >= 1 << 32:
            raise ValueError("a consensus of 2**32 bases or more does not "
                             "fit the index's 32-bit positions")
        KmerIndex.build_count += 1
        self.consensus = consensus
        self.k = k
        self.max_occurrences = max_occurrences

        packed = seq.kmer_codes(consensus, k)
        invalid = packed == np.uint64(1) << np.uint64(2 * k)
        n = packed.size - int(np.count_nonzero(invalid))
        packed <<= np.uint64(32)
        packed |= np.arange(packed.size, dtype=np.uint64)
        packed[invalid] = ~np.uint64(0)     # after every valid k-mer
        del invalid
        packed.sort()
        halves = packed[:n].view(np.uint32)
        # Slots ``n`` on are stops, so a probe needs no bounds check.
        self._values = np.full(n + _MAX_PROBES, np.iinfo(np.uint32).max,
                               dtype=np.uint32)
        self._values[:n] = halves[_VALUE_HALF::2]
        self._positions = halves[1 - _VALUE_HALF::2].copy()
        del packed, halves

        # Prefix-bucket table: the top ``bits`` bits of a 2k-bit value
        # -> first slot whose value has that prefix or a later one.
        # Entry ``2**bits``, where every query >= 4**k is sent, is ``n``.
        bits = min(2 * k, max(n - 1, 0).bit_length())
        self._shift = np.uint64(2 * k - bits)
        self._limit = np.uint64(1) << np.uint64(2 * k)
        prefix = self._values[:n] >> np.uint32(2 * k - bits)
        first = np.ones(n, dtype=bool)
        np.not_equal(prefix[1:], prefix[:-1], out=first[1:])
        first = np.flatnonzero(first)
        self._buckets = np.repeat(
            np.append(first, n).astype(np.uint32),
            np.diff(prefix[first].astype(np.int64), prepend=-1,
                    append=1 << bits))

    def __len__(self) -> int:
        return int(self._positions.size)

    @property
    def values(self) -> np.ndarray:
        """Sorted k-mer values (read-only; for batched queries)."""
        return self._values[:len(self)]

    @property
    def positions(self) -> np.ndarray:
        """Consensus positions aligned with :attr:`values`."""
        return self._positions

    def query_ranges(self,
                     queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(first slot, uncapped occurrence count) per queried k-mer value.

        The one k-mer resolution rule.  A query's prefix bucket gives
        the first slot that can hold it; the next few slots settle
        nearly every query, and the rest (a crowded bucket of a
        repetitive consensus) are finished by binary search, so the
        answer is exact.  Absent values — the N sentinel and anything
        else >= 4**k included — report zero occurrences; their slot is
        not meaningful.
        """
        values, n = self._values, len(self)
        # A query >= 4**k is clamped to 4**k, whose bucket 2**bits is
        # empty (for k = 16 its 32-bit value wraps to 0, which no stop
        # equals).
        lo = np.minimum(np.asarray(queries, dtype=np.uint64), self._limit)
        queries = lo.astype(np.uint32)
        lo >>= self._shift
        lo = lo.view(np.int64)
        lo[:] = self._buckets.take(lo)
        # Read the slots from the bucket's start on: the query's first
        # slot is ``lo`` plus the slots below it, its count the slots
        # equal to it.  A query is settled by the first slot above it.
        below = np.zeros(queries.size, dtype=np.uint8)
        counts = np.zeros(queries.size, dtype=np.uint8)
        at = np.empty_like(queries)
        for probe in range(_PROBES):
            np.take(values[probe:], lo, out=at)
            below += at < queries
            counts += at == queries
        rest = np.flatnonzero(at <= queries)
        for probe in range(_PROBES, _MAX_PROBES):
            if not rest.size:
                break
            at_rest = values[probe:].take(lo[rest])
            wanted = queries[rest]
            below[rest] += at_rest < wanted
            counts[rest] += at_rest == wanted
            rest = rest[at_rest <= wanted]
        lo += below
        counts = counts.astype(np.int64)
        if rest.size:
            # Also every query equal to the stops, which are no slots.
            lo[rest] = np.searchsorted(values[:n], queries[rest], "left")
            counts[rest] = np.searchsorted(values[:n], queries[rest],
                                           "right") - lo[rest]
        return lo, counts

    def lookup(self, read_codes: np.ndarray, stride: int = 1) -> AnchorHits:
        """Anchor hits for every ``stride``-th k-mer of a read."""
        read_codes = np.asarray(read_codes, dtype=np.uint8)
        kmers = seq.kmer_codes(read_codes, self.k)[::stride]
        lo, counts = self.query_ranges(kmers)
        counts = np.minimum(counts, self.max_occurrences)
        out_read = np.repeat(
            np.arange(kmers.size, dtype=np.int64) * stride, counts)
        return AnchorHits(out_read, self.hit_positions(lo, counts))

    def hit_positions(self, lo: np.ndarray,
                      counts: np.ndarray) -> np.ndarray:
        """Consensus positions of slots ``lo[i] .. lo[i] + counts[i] - 1``,
        query after query, as ``int64`` (so anchor arithmetic on them
        never wraps)."""
        return self._positions[run_index(lo, counts)].astype(np.int64)
