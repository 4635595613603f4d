"""K-mer index over a consensus sequence.

The compressor identifies mismatches "by mapping reads to the consensus
sequence" (§5.1).  This index supports that: it stores every k-mer of the
consensus in a sorted array, and a prefix-bucket table over the top bits
of the k-mer value turns resolving a read's k-mers into a table lookup
(seeding as Alser et al. and Senol Cali describe it) instead of a binary
search per query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..genomics import sequence as seq
from ..genomics.reads import run_index

#: Rounds of the in-bucket advance before the (rare) queries still
#: behind their slot are finished by binary search.
_ADVANCE_ROUNDS = 3


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
                 max_occurrences: int = 32):
        """Index ``consensus``.

        ``max_occurrences`` caps how many consensus positions a single
        (repetitive) k-mer may report during queries.
        """
        KmerIndex.build_count += 1
        self.consensus = np.asarray(consensus, dtype=np.uint8)
        self.k = k
        self.max_occurrences = max_occurrences

        kmers = seq.kmer_codes(self.consensus, k)
        sentinel = np.uint64(1) << np.uint64(2 * k)
        valid = kmers != sentinel
        positions = np.nonzero(valid)[0].astype(np.int64)
        values = kmers[valid]
        order = np.argsort(values, kind="stable")
        self._positions = positions[order]
        n = values.size
        # Slot ``n`` is a stop: a value no k-mer equals, ending an empty
        # run, so a probe needs no bounds check.
        self._values = np.append(values[order], ~np.uint64(0))
        # One past the run of equal values each slot belongs to.
        self._ends = np.searchsorted(self._values, self._values, "right")
        self._ends[n] = n
        # Prefix-bucket table: the top ``bits`` bits of a 2k-bit value
        # -> first slot whose value has that prefix or a later one.
        # 4n <= 2**bits < 8n keeps most buckets empty or single, so the
        # bucket's first slot is nearly always the answer.
        bits = min(2 * k, max(4 * n - 1, 0).bit_length())
        self._shift = np.uint64(2 * k - bits)
        self._last_bucket = np.uint64(1 << bits)   # where the stop lives
        self._buckets = np.zeros(
            (1 << bits) + 1, dtype=np.int32 if n < 2 ** 31 else np.int64)
        np.cumsum(np.bincount(
            (self._values[:n] >> self._shift).astype(np.int64),
            minlength=1 << bits), out=self._buckets[1:])

    def __len__(self) -> int:
        return int(self._positions.size)

    @property
    def values(self) -> np.ndarray:
        """Sorted k-mer values (read-only; for batched queries)."""
        return self._values[:-1]

    @property
    def positions(self) -> np.ndarray:
        """Consensus positions aligned with :attr:`values`."""
        return self._positions

    def query_ranges(self,
                     queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(first slot, uncapped occurrence count) per queried k-mer value.

        The one k-mer resolution rule.  A query's prefix bucket gives
        the first slot that can hold it; slots still behind the query
        skip whole runs of equal values for a bounded number of rounds
        (a crowded bucket of a repetitive consensus), and what is left
        is finished by binary search, so the answer is exact.  Absent
        values — the N sentinel and anything else >= 4**k included —
        report zero occurrences; their slot is not meaningful.
        """
        queries = np.asarray(queries, dtype=np.uint64)
        values, ends = self._values, self._ends
        lo = self._buckets[
            np.minimum(queries >> self._shift, self._last_bucket)
        ].astype(np.int64)
        at = values[lo]
        behind = np.nonzero(at < queries)[0]
        for _ in range(_ADVANCE_ROUNDS):
            if not behind.size:
                break
            lo[behind] = ends[lo[behind]]
            at[behind] = values[lo[behind]]
            behind = behind[at[behind] < queries[behind]]
        if behind.size:
            lo[behind] = np.searchsorted(values, queries[behind], "left")
            at[behind] = values[lo[behind]]
        counts = np.where(at == queries, ends[lo] - lo, 0)
        return lo, counts

    def lookup(self, read_codes: np.ndarray, stride: int = 1) -> AnchorHits:
        """Anchor hits for every ``stride``-th k-mer of a read."""
        read_codes = np.asarray(read_codes, dtype=np.uint8)
        kmers = seq.kmer_codes(read_codes, self.k)[::stride]
        lo, counts = self.query_ranges(kmers)
        counts = np.minimum(counts, self.max_occurrences)
        out_read = np.repeat(
            np.arange(kmers.size, dtype=np.int64) * stride, counts)
        # For query i, slots lo[i] .. lo[i] + counts[i] - 1.
        return AnchorHits(out_read, self._positions[run_index(lo, counts)])
