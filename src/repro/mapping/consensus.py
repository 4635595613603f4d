"""Consensus sequence construction.

The paper allows the consensus to be "a user-provided reference or a
de-duplicated string derived from the reads" (§2.2).  Reference mode is
trivial; de-novo mode here is a greedy de Bruijn walk: count k-mers across
the reads, start from the most frequent, and extend in both directions by
majority successor/predecessor until coverage dies out.  It is intended
for low-error (short-read) sets, matching how reference-free genomic
compressors derive their consensus.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..genomics import sequence as seq
from ..genomics.reads import ReadSet


def _count_kmers(read_set: ReadSet, k: int) -> Counter:
    counts: Counter = Counter()
    sentinel = int(np.uint64(1) << np.uint64(2 * k))
    for read in read_set:
        for orient in (read.codes, seq.reverse_complement(read.codes)):
            kmers = seq.kmer_codes(orient, k)
            for value in kmers:
                value = int(value)
                if value != sentinel:
                    counts[value] += 1
    return counts


def _decode_kmer(value: int, k: int) -> np.ndarray:
    out = np.empty(k, dtype=np.uint8)
    for i in range(k - 1, -1, -1):
        out[i] = value & 3
        value >>= 2
    return out


def _revcomp_kmer(value: int, k: int) -> int:
    """Reverse complement of a 2-bit-packed k-mer."""
    out = 0
    for _ in range(k):
        out = (out << 2) | ((value & 3) ^ 3)
        value >>= 2
    return out


def _walk(start: int, counts: Counter, visited: set, k: int,
          min_count: int, budget: int) -> np.ndarray:
    """One bidirectional greedy walk; consumes k-mers (both strands)."""
    mask = (1 << (2 * (k - 1))) - 1
    high_shift = 2 * (k - 1)

    def consume(node: int) -> None:
        visited.add(node)
        visited.add(_revcomp_kmer(node, k))

    consume(start)
    forward: list[int] = []
    node = start
    while len(forward) < budget:
        suffix = node & mask
        best_next, best_count = -1, 0
        for base in range(4):
            cand = (suffix << 2) | base
            cnt = counts.get(cand, 0)
            if cnt >= min_count and cnt > best_count \
                    and cand not in visited:
                best_next, best_count = cand, cnt
        if best_next < 0:
            break
        consume(best_next)
        forward.append(best_next & 3)
        node = best_next

    backward: list[int] = []
    node = start
    back_budget = max(0, budget - len(forward))
    while len(backward) < back_budget:
        prefix = node >> 2
        best_prev, best_count = -1, 0
        for base in range(4):
            cand = (base << high_shift) | prefix
            cnt = counts.get(cand, 0)
            if cnt >= min_count and cnt > best_count \
                    and cand not in visited:
                best_prev, best_count = cand, cnt
        if best_prev < 0:
            break
        consume(best_prev)
        backward.append(best_prev >> high_shift)
        node = best_prev

    middle = _decode_kmer(start, k)
    left = np.array(backward[::-1], dtype=np.uint8)
    right = np.array(forward, dtype=np.uint8)
    return np.concatenate([left, middle, right]).astype(np.uint8)


def denovo_consensus(read_set: ReadSet, k: int = 21,
                     min_count: int = 1,
                     max_length: int | None = None,
                     max_contigs: int = 32) -> np.ndarray:
    """Greedy de Bruijn consensus from the reads themselves.

    Repeatedly walks from the most frequent unvisited k-mer, extending by
    majority successor/predecessor in both directions; each walk yields a
    contig, and contigs are concatenated (longest first) to form the
    consensus.  Consuming both strands of every traversed k-mer stops the
    mirror contig from being emitted.
    """
    counts = _count_kmers(read_set, k)
    if not counts:
        return np.empty(0, dtype=np.uint8)
    if max_length is None:
        max_length = 4 * read_set.total_bases

    visited: set[int] = set()
    contigs: list[np.ndarray] = []
    total = 0
    for _ in range(max_contigs):
        budget = max_length - total - k
        if budget <= 0:
            break
        start = -1
        best = 0
        for value, cnt in counts.items():
            if cnt >= min_count and cnt > best and value not in visited:
                start, best = value, cnt
        if start < 0:
            break
        contig = _walk(start, counts, visited, k, min_count, budget)
        if contig.size < 2 * k and contigs:
            break  # remaining coverage is fragmentary
        contigs.append(contig)
        total += int(contig.size)

    contigs.sort(key=lambda c: -c.size)
    return np.concatenate(contigs).astype(np.uint8)
