"""Seed–chain–extend read mapper against a consensus sequence.

This is the mismatch-finding stage of compression (§5.1): anchors from the
k-mer index are clustered by diagonal, chained monotonically, and the gaps
between anchors are closed with exact edit-distance alignment, yielding a
lossless edit script per read.  Chimeric reads (Property 4) are detected
when the primary chain leaves a large read flank uncovered; up to
``max_segments`` (the paper's N = 3) independently placed segments are
emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..genomics import sequence as seq
from . import alignment
from .alignment import EditOp, global_align, prefix_free_align, suffix_free_align
from .kmer_index import AnchorHits, KmerIndex


@dataclass
class MappedSegment:
    """One contiguous read interval placed at one consensus position."""

    cons_start: int
    read_start: int           # oriented-read coordinate (inclusive)
    read_end: int             # oriented-read coordinate (exclusive)
    ops: list[EditOp] = field(default_factory=list)  # segment-local coords

    @property
    def length(self) -> int:
        return self.read_end - self.read_start


@dataclass
class MappingResult:
    """Lossless mapping of one read against the consensus."""

    segments: list[MappedSegment] = field(default_factory=list)
    reverse: bool = False
    unmapped: bool = False
    clip_start: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.uint8))
    clip_end: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.uint8))
    cost: int = 0

    @property
    def is_chimeric(self) -> bool:
        return len(self.segments) > 1

    @property
    def n_mismatches(self) -> int:
        return sum(len(s.ops) for s in self.segments)


def reconstruct(consensus: np.ndarray, result: MappingResult,
                read_length: int) -> np.ndarray:
    """Rebuild the original read from a mapping (reference decoder).

    Mirrors what the SAGe hardware does: copy consensus bases, apply
    mismatches, reattach clips, un-reverse.  Used by tests to prove the
    mapper's edit scripts are lossless.
    """
    if result.unmapped:
        raise ValueError("cannot reconstruct an unmapped read from mapping")
    parts = [result.clip_start]
    for segment in result.segments:
        window = consensus[segment.cons_start:
                           segment.cons_start + segment.length
                           + _ops_cons_extra(segment.ops)]
        parts.append(alignment.apply_ops(window, segment.ops,
                                         segment.length))
    parts.append(result.clip_end)
    oriented = np.concatenate(parts).astype(np.uint8)
    if oriented.size != read_length:
        raise ValueError(
            f"reconstructed {oriented.size} bases, expected {read_length}")
    if result.reverse:
        return seq.reverse_complement(oriented)
    return oriented


def _ops_cons_extra(ops: list[EditOp]) -> int:
    """Extra consensus bases consumed beyond the read length (dels - ins)."""
    extra = 0
    for op in ops:
        if op.kind == alignment.DEL:
            extra += op.length
        elif op.kind == alignment.INS:
            extra -= op.length
    return max(0, extra)


@dataclass
class MapperConfig:
    """Tunables for the mapper."""

    k: int = 15
    stride: int = 2                 # query every stride-th read k-mer
    max_occurrences: int = 32       # repeat cap per k-mer
    diag_cluster_gap: int = 64      # diagonal clustering tolerance
    max_segments: int = 3           # paper's top-N for chimeric reads
    min_segment_anchors: int = 3    # anchors to accept a secondary segment
    min_segment_length: int = 100   # read bases to attempt a secondary
    clip_min_length: int = 6        # shortest detectable soft clip
    clip_max_length: int = 64       # longest flank treated as a soft clip
    clip_cost_fraction: float = 0.45  # head/tail cost ratio that means clip
    unmapped_cost_fraction: float = 0.40  # whole-read cost ratio => unmapped
    end_slack: int = 24             # extra consensus window at segment ends


class ReadMapper:
    """Maps reads to a consensus sequence, producing lossless edit scripts."""

    def __init__(self, consensus: np.ndarray,
                 config: MapperConfig | None = None,
                 index: KmerIndex | None = None):
        """Map against ``consensus``.

        ``index`` optionally supplies a prebuilt :class:`KmerIndex` over
        the same consensus, so one index can be shared across mappers
        (and across block-compressor workers).  An index whose ``k`` or
        ``max_occurrences`` disagrees with ``config`` is ignored and a
        matching one is built instead.
        """
        self.consensus = np.asarray(consensus, dtype=np.uint8)
        self.config = config or MapperConfig()
        if (index is None or index.k != self.config.k
                or index.max_occurrences != self.config.max_occurrences):
            index = KmerIndex(self.consensus, k=self.config.k,
                              max_occurrences=self.config.max_occurrences)
        self.index = index

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def map_batch(self, reads) -> list[MappingResult]:
        """Map a block of reads; the scalar reference maps one at a time.

        :class:`~repro.mapping.batch.BatchReadMapper` overrides this with
        the vectorized structure-of-arrays implementation; results are
        byte-identical by contract.
        """
        return [self.map_read(codes) for codes in reads]

    def map_read(self, codes: np.ndarray) -> MappingResult:
        """Map one read; always returns a result (possibly unmapped)."""
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.size < self.config.k:
            return MappingResult(unmapped=True)

        fwd_hits = self.index.lookup(codes, self.config.stride)
        rev_codes = seq.reverse_complement(codes)
        rev_hits = self.index.lookup(rev_codes, self.config.stride)
        if len(fwd_hits) == 0 and len(rev_hits) == 0:
            return MappingResult(unmapped=True)
        if len(rev_hits) > len(fwd_hits):
            oriented, hits, reverse = rev_codes, rev_hits, True
        else:
            oriented, hits, reverse = codes, fwd_hits, False

        result = self._map_oriented(oriented, hits)
        if result is None:
            return MappingResult(unmapped=True)
        result.reverse = reverse
        mapped_len = max(1, codes.size - result.clip_start.size
                         - result.clip_end.size)
        if result.cost > self.config.unmapped_cost_fraction * mapped_len:
            return MappingResult(unmapped=True)
        return result

    # ------------------------------------------------------------------
    # Chaining
    # ------------------------------------------------------------------

    def _cluster_anchors(self, hits: AnchorHits) -> list[np.ndarray]:
        """Group anchor indices into diagonal clusters, best first."""
        diag = hits.cons_pos - hits.read_pos
        order = np.argsort(diag, kind="stable")
        sorted_diag = diag[order]
        # Split where consecutive diagonals jump more than the tolerance.
        splits = np.nonzero(np.diff(sorted_diag)
                            > self.config.diag_cluster_gap)[0] + 1
        groups = np.split(order, splits)
        groups.sort(key=len, reverse=True)
        return groups

    def _monotone_chain(self, hits: AnchorHits,
                        idx: np.ndarray) -> list[tuple[int, int]]:
        """Greedy monotone chain of (read_pos, cons_pos) anchors."""
        read_pos = hits.read_pos[idx]
        cons_pos = hits.cons_pos[idx]
        order = np.argsort(read_pos, kind="stable")
        chain: list[tuple[int, int]] = []
        prev_read = prev_cons = -1
        prev_diag: int | None = None
        for i in order:
            r, c = int(read_pos[i]), int(cons_pos[i])
            if chain:
                if r <= prev_read or c <= prev_cons:
                    continue
                drift = (c - r) - prev_diag
                if abs(drift) > self.config.diag_cluster_gap:
                    continue
            chain.append((r, c))
            prev_read, prev_cons, prev_diag = r, c, c - r
        return chain

    def _map_oriented(self, oriented: np.ndarray,
                      hits: AnchorHits) -> MappingResult | None:
        clusters = self._cluster_anchors(hits)
        if not clusters:
            return None

        k = self.config.k
        chains: list[list[tuple[int, int]]] = []
        covered: list[tuple[int, int]] = []

        for cluster in clusters:
            if len(chains) >= self.config.max_segments:
                break
            if chains and len(cluster) < self.config.min_segment_anchors:
                break
            chain = self._monotone_chain(hits, cluster)
            if not chain:
                continue
            span = (chain[0][0], chain[-1][0] + k)
            overlap = any(not (span[1] <= lo or span[0] >= hi)
                          for lo, hi in covered)
            if overlap:
                continue
            if chains:
                uncovered = self._uncovered_length(oriented.size, covered)
                if (uncovered < self.config.min_segment_length
                        or span[1] - span[0]
                        < self.config.min_segment_length // 2):
                    continue
            chains.append(chain)
            covered.append(span)

        if not chains:
            return None
        chains.sort(key=lambda ch: ch[0][0])

        # Assign contiguous read intervals: boundaries at midpoints
        # between consecutive chains' anchor spans.
        bounds = [0]
        for left, right in zip(chains, chains[1:]):
            left_end = left[-1][0] + k
            right_start = right[0][0]
            bounds.append(max(left_end,
                              min(right_start,
                                  (left_end + right_start) // 2)))
        bounds.append(oriented.size)

        result = MappingResult()
        total_cost = 0
        for which, chain in enumerate(chains):
            seg_lo, seg_hi = bounds[which], bounds[which + 1]
            is_first = which == 0
            is_last = which == len(chains) - 1
            segment, clip_s, clip_e, cost = self._build_segment(
                oriented, chain, seg_lo, seg_hi, is_first, is_last)
            if segment is None:
                return None
            if clip_s.size:
                result.clip_start = clip_s
            if clip_e.size:
                result.clip_end = clip_e
            result.segments.append(segment)
            total_cost += cost
        result.cost = total_cost
        return result

    @staticmethod
    def _uncovered_length(read_len: int,
                          covered: list[tuple[int, int]]) -> int:
        mask = np.zeros(read_len, dtype=bool)
        for lo, hi in covered:
            mask[max(0, lo):min(read_len, hi)] = True
        return int(read_len - mask.sum())

    # ------------------------------------------------------------------
    # Segment construction
    # ------------------------------------------------------------------

    def _build_segment(self, oriented: np.ndarray,
                       chain: list[tuple[int, int]], seg_lo: int,
                       seg_hi: int, is_first: bool, is_last: bool):
        k = self.config.k
        cons = self.consensus
        ops: list[EditOp] = []
        cost = 0
        clip_s = np.empty(0, dtype=np.uint8)
        clip_e = np.empty(0, dtype=np.uint8)

        # --- interior: anchors + gap fills ---
        a0_read, a0_cons = chain[0]
        prev_read, prev_cons = a0_read + k, a0_cons + k
        for r, c in chain[1:]:
            if r < prev_read or c < prev_cons:
                # Overlapping same-diagonal anchor: contiguous exact match.
                # Different-diagonal overlaps (indel inside the overlap)
                # are skipped; the next non-overlapping anchor closes them.
                if c - r == prev_cons - prev_read:
                    prev_read, prev_cons = r + k, c + k
                continue
            read_gap = oriented[prev_read:r]
            cons_gap = cons[prev_cons:c]
            if read_gap.size == cons_gap.size:
                diff = np.nonzero(read_gap != cons_gap)[0]
                for d in diff:
                    ops.append(EditOp(alignment.SUB, prev_read + int(d), 1,
                                      read_gap[d:d + 1].copy()))
                cost += int(diff.size)
            else:
                res = global_align(read_gap, cons_gap)
                ops.extend(op.shifted(prev_read) for op in res.ops)
                cost += res.cost
            prev_read, prev_cons = r + k, c + k

        # --- head ---
        head = oriented[seg_lo:a0_read]
        cons_start = a0_cons - head.size
        if head.size:
            win_lo = max(0, a0_cons - head.size - self.config.end_slack)
            res = prefix_free_align(head, cons[win_lo:a0_cons])
            head_is_clip = (is_first
                            and self.config.clip_min_length <= head.size
                            <= self.config.clip_max_length
                            and res.cost
                            > self.config.clip_cost_fraction * head.size)
            if head_is_clip:
                clip_s = head.copy()
                seg_lo = a0_read
                cons_start = a0_cons
            else:
                cons_start = win_lo + res.cons_used_start
                ops = [op.shifted(seg_lo) for op in res.ops] + ops
                cost += res.cost

        # --- tail ---
        tail = oriented[prev_read:seg_hi]
        if tail.size:
            win_hi = min(cons.size,
                         prev_cons + tail.size + self.config.end_slack)
            res = suffix_free_align(tail, cons[prev_cons:win_hi])
            tail_is_clip = (is_last
                            and self.config.clip_min_length <= tail.size
                            <= self.config.clip_max_length
                            and res.cost
                            > self.config.clip_cost_fraction * tail.size)
            if tail_is_clip:
                clip_e = tail.copy()
                seg_hi = prev_read
            else:
                ops.extend(op.shifted(prev_read) for op in res.ops)
                cost += res.cost

        # Normalize op coordinates to segment-local (relative to seg_lo).
        local_ops = []
        for op in sorted(ops, key=lambda o: o.read_pos):
            local = op.shifted(-seg_lo)
            if local.read_pos < 0:
                return None, clip_s, clip_e, cost
            local_ops.append(local)

        if cons_start < 0:
            return None, clip_s, clip_e, cost
        segment = MappedSegment(cons_start=int(cons_start),
                                read_start=int(seg_lo),
                                read_end=int(seg_hi), ops=local_ops)
        return segment, clip_s, clip_e, cost
