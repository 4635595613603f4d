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
from typing import NamedTuple

import numpy as np

from ..genomics import sequence as seq
from . import alignment
from .alignment import (AlignmentResult, EditOp, global_align,
                        prefix_free_align, suffix_free_align)
from .kmer_index import AnchorHits, KmerIndex


class AlignmentJob(NamedTuple):
    """One extension problem a chain leaves open; the flavour names the
    scalar aligner that defines its answer (``<flavour>_align``)."""

    read_seg: np.ndarray
    cons_seg: np.ndarray
    flavour: str              # 'global' | 'prefix_free' | 'suffix_free'


@dataclass
class _SegmentPlan:
    """What one chain needs, besides its jobs' results, to become a
    :class:`MappedSegment`.  Job fields index the shared job list."""

    seg_lo: int
    seg_hi: int
    is_first: bool
    is_last: bool
    a0_read: int              # read position of the first anchor
    a0_cons: int
    tail_read: int            # read position past the last anchor
    head: np.ndarray
    tail: np.ndarray
    head_job: int | None
    head_win_lo: int
    tail_job: int | None
    #: Interior gaps in read order, ``(read_start, piece)``: a job index
    #: for an unequal-length gap, the substitutions themselves (in gap
    #: coordinates) for an equal-length one.
    gaps: list[tuple[int, int | list[EditOp]]]


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
        jobs: list[AlignmentJob] = []
        plan = self._plan_read(oriented, hits, jobs)
        if plan is None:
            return None
        return self._assemble_read(plan, self._solve_jobs(jobs))

    def _solve_jobs(self, jobs: list[AlignmentJob]) -> list[AlignmentResult]:
        """Solve extension jobs one at a time (the reference solver, and
        the only caller of the scalar aligners)."""
        aligners = {"global": global_align, "prefix_free": prefix_free_align,
                    "suffix_free": suffix_free_align}
        return [aligners[job.flavour](job.read_seg, job.cons_seg)
                for job in jobs]

    def _plan_read(self, oriented: np.ndarray, hits: AnchorHits,
                   jobs: list[AlignmentJob]
                   ) -> list[_SegmentPlan] | None:
        """Chain the anchors into segment plans, appending every
        alignment they leave open to ``jobs``."""
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

        last = len(chains) - 1
        return [self._plan_segment(oriented, chain, bounds[which],
                                   bounds[which + 1], which == 0,
                                   which == last, jobs)
                for which, chain in enumerate(chains)]

    def _assemble_read(self, plan: list[_SegmentPlan],
                       solved: list[AlignmentResult]
                       ) -> MappingResult | None:
        """Finish a planned read from the results of ``jobs`` (same
        indexing).  Consumes them: ops are shifted in place."""
        result = MappingResult()
        for seg_plan in plan:
            built = self._assemble_segment(seg_plan, solved)
            if built is None:
                return None
            segment, clip_s, clip_e, cost = built
            if clip_s.size:
                result.clip_start = clip_s
            if clip_e.size:
                result.clip_end = clip_e
            result.segments.append(segment)
            result.cost += cost
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

    def _plan_segment(self, oriented: np.ndarray,
                      chain: list[tuple[int, int]], seg_lo: int,
                      seg_hi: int, is_first: bool, is_last: bool,
                      jobs: list[AlignmentJob]) -> _SegmentPlan:
        k = self.config.k
        cons = self.consensus
        gaps: list[tuple[int, int | list[EditOp]]] = []

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
                if diff.size:
                    gaps.append((prev_read, [
                        EditOp(alignment.SUB, int(d), 1,
                               read_gap[d:d + 1].copy()) for d in diff]))
            else:
                gaps.append((prev_read, len(jobs)))
                jobs.append(AlignmentJob(read_gap, cons_gap, "global"))
            prev_read, prev_cons = r + k, c + k

        # --- head: aligns to a suffix of its consensus window ---
        head = oriented[seg_lo:a0_read]
        head_job, win_lo = None, 0
        if head.size:
            win_lo = max(0, a0_cons - head.size - self.config.end_slack)
            head_job = len(jobs)
            jobs.append(AlignmentJob(head, cons[win_lo:a0_cons],
                                     "prefix_free"))

        # --- tail: aligns to a prefix of its consensus window ---
        tail = oriented[prev_read:seg_hi]
        tail_job = None
        if tail.size:
            win_hi = min(cons.size,
                         prev_cons + tail.size + self.config.end_slack)
            tail_job = len(jobs)
            jobs.append(AlignmentJob(tail, cons[prev_cons:win_hi],
                                     "suffix_free"))
        return _SegmentPlan(seg_lo, seg_hi, is_first, is_last, a0_read,
                            a0_cons, prev_read, head, tail, head_job,
                            win_lo, tail_job, gaps)

    def _is_clip(self, flank: np.ndarray, cost: int) -> bool:
        """A flank this short and this costly is a soft clip."""
        return (self.config.clip_min_length <= flank.size
                <= self.config.clip_max_length
                and cost > self.config.clip_cost_fraction * flank.size)

    def _assemble_segment(
            self, plan: _SegmentPlan, solved: list[AlignmentResult]
    ) -> tuple[MappedSegment, np.ndarray, np.ndarray, int] | None:
        """``(segment, clip_start, clip_end, cost)``, or ``None`` when the
        chain cannot be a segment (an edit left of the segment start, or
        a placement left of the consensus).

        Every op is built once, already in segment-local coordinates;
        the pieces (head, gaps in chain order, tail) come in read order,
        so no sort is needed.
        """
        seg_lo, seg_hi = plan.seg_lo, plan.seg_hi
        cons_start = plan.a0_cons - plan.head.size
        clip_s = clip_e = np.empty(0, dtype=np.uint8)
        cost = 0

        # (read offset of the piece, its ops in piece coordinates)
        pieces: list[tuple[int, list[EditOp]]] = []
        if plan.head_job is not None:
            res = solved[plan.head_job]
            if plan.is_first and self._is_clip(plan.head, res.cost):
                clip_s = plan.head.copy()
                seg_lo = plan.a0_read
                cons_start = plan.a0_cons
            else:
                cons_start = plan.head_win_lo + res.cons_used_start
                pieces.append((plan.seg_lo, res.ops))
                cost += res.cost
        for read_start, piece in plan.gaps:
            if isinstance(piece, int):
                piece, gap_cost = solved[piece].ops, solved[piece].cost
            else:
                gap_cost = len(piece)
            pieces.append((read_start, piece))
            cost += gap_cost
        if plan.tail_job is not None:
            res = solved[plan.tail_job]
            if plan.is_last and self._is_clip(plan.tail, res.cost):
                clip_e = plan.tail.copy()
                seg_hi = plan.tail_read
            else:
                pieces.append((plan.tail_read, res.ops))
                cost += res.cost

        ops: list[EditOp] = []
        for read_start, piece_ops in pieces:
            shift = read_start - seg_lo
            if piece_ops and piece_ops[0].read_pos + shift < 0:
                return None
            if shift:
                for op in piece_ops:
                    op.read_pos += shift
            ops.extend(piece_ops)
        if cons_start < 0:
            return None
        segment = MappedSegment(cons_start=int(cons_start),
                                read_start=int(seg_lo),
                                read_end=int(seg_hi), ops=ops)
        return segment, clip_s, clip_e, cost
