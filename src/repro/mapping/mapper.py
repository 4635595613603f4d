"""Seed–chain–extend read mapper against a consensus sequence.

This is the mismatch-finding stage of compression (§5.1): anchors from the
k-mer index are clustered by diagonal, chained monotonically, and the gaps
between anchors are closed with exact edit-distance alignment, yielding a
lossless edit script per read.  Chimeric reads (Property 4) are detected
when the primary chain leaves a large read flank uncovered; up to
``max_segments`` (the paper's N = 3) independently placed segments are
emitted.

The edit scripts are columns from the traceback on: each alignment's
ops are ``(kind, read_pos, length)`` integer columns, an equal-length
gap's are its substitution positions, and :meth:`ReadMapper._assemble`
copies them, shifted into segment coordinates, into one
:class:`Placed` part of the rows it maps.  A block's mappings leave
``map_batch`` as one :class:`MappedBlock` table of columns, the layout
the compressor's emitter consumes; no per-read object is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from ..genomics import sequence as seq
from ..genomics.reads import run_index
from .alignment import (DEL, INS, SUB, SolvedJobs, global_align,
                        prefix_free_align, suffix_free_align)
from .kmer_index import KmerIndex


class AlignmentJob(NamedTuple):
    """One extension problem a chain leaves open; the flavour names the
    scalar aligner that defines its answer (``<flavour>_align``)."""

    read_seg: np.ndarray
    cons_seg: np.ndarray
    flavour: str              # 'global' | 'prefix_free' | 'suffix_free'


@dataclass
class _SegmentPlan:
    """What one chain needs, besides its jobs' results, to become a
    mapped segment.  Job fields index the shared job list."""

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
    #: for an unequal-length gap, the positions of its substitutions (in
    #: gap coordinates) for an equal-length one.
    gaps: list[tuple[int, int | list[int]]]


#: Anchors the block planner takes in one pass (whole rows, so a pass
#: may hold more): bounds its per-anchor temporaries.
_PLAN_ANCHORS = 4096


def block_columns(codes, offsets=None) -> tuple[np.ndarray, np.ndarray]:
    """A block's ``(codes, offsets)`` columns: as given, or packed from a
    sequence of per-read code arrays when ``offsets`` is ``None``."""
    if offsets is not None:
        return (np.asarray(codes, dtype=np.uint8),
                np.asarray(offsets, dtype=np.int64))
    reads = [np.asarray(c, dtype=np.uint8) for c in codes]
    offsets = np.zeros(len(reads) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, reads), np.int64, len(reads)),
              out=offsets[1:])
    flat = np.concatenate(reads) if reads else np.empty(0, dtype=np.uint8)
    return flat, offsets


class Placed(NamedTuple):
    """Mapped reads of a block as columns, in any row order: one part of
    a :class:`MappedBlock`, as a kernel proves it."""

    rows: np.ndarray          # per read: its row in the block
    reverse: np.ndarray
    cost: np.ndarray
    clip_s: np.ndarray        # clip lengths
    clip_e: np.ndarray
    n_segments: np.ndarray
    cons_start: np.ndarray    # per segment, read after read
    read_start: np.ndarray
    read_end: np.ndarray
    n_ops: np.ndarray
    kind: np.ndarray          # per op, segment after segment
    read_pos: np.ndarray
    length: np.ndarray


#: The part that places no read, in every column's dtype.
_NONE_PLACED = Placed._make(
    np.empty(0, dtype=bool if name == "reverse" else
             np.int8 if name == "kind" else np.int64)
    for name in Placed._fields)


@dataclass(eq=False)
class MappedBlock:
    """The mappings of one block of reads, as one table of columns.

    * per read (``len(self)`` rows): ``unmapped``, ``reverse``, ``cost``
      and clip lengths ``clip_s`` / ``clip_e``;
    * per segment, grouped by read in row order (a read's in the
      mapper's order): ``seg_row``, ``cons_start``, ``read_start``,
      ``read_end`` (oriented-read coordinates);
    * per edit op, grouped by segment: ``op_seg``, ``kind``
      (``alignment.SUB`` / ``INS`` / ``DEL``), segment-local
      ``read_pos`` and ``length``.

    Bases are not stored: an op's bases and a clip are the oriented
    read's own, gathered from the block's ``codes`` / ``offsets``
    (:meth:`oriented`).  This table is the one form a block's mappings
    take: both kernels write columns from the traceback on.
    """

    codes: np.ndarray
    offsets: np.ndarray
    unmapped: np.ndarray
    reverse: np.ndarray
    cost: np.ndarray
    clip_s: np.ndarray
    clip_e: np.ndarray
    seg_row: np.ndarray
    cons_start: np.ndarray
    read_start: np.ndarray
    read_end: np.ndarray
    op_seg: np.ndarray
    kind: np.ndarray
    read_pos: np.ndarray
    length: np.ndarray

    @classmethod
    def assemble(cls, codes: np.ndarray, offsets: np.ndarray,
                 parts: list[Placed]) -> "MappedBlock":
        """The table of a block from parts placing disjoint sets of its
        reads; a read no part places is unmapped."""
        part = Placed._make(map(np.concatenate, zip(
            *parts or [_NONE_PLACED])))
        order = np.argsort(part.rows, kind="stable")
        rows = part.rows[order]
        n_segments = part.n_segments[order]
        segs = run_index((np.cumsum(part.n_segments)
                          - part.n_segments)[order], n_segments)
        n_ops = part.n_ops[segs]
        ops = run_index((np.cumsum(part.n_ops) - part.n_ops)[segs], n_ops)
        n = offsets.size - 1
        per_read = []
        for column, default in ((part.reverse, False), (part.cost, 0),
                                (part.clip_s, 0), (part.clip_e, 0)):
            full = np.full(n, default, dtype=column.dtype)
            full[rows] = column[order]
            per_read.append(full)
        unmapped = np.ones(n, dtype=bool)
        unmapped[rows] = False
        return cls(codes, offsets, unmapped, *per_read,
                   np.repeat(rows, n_segments), part.cons_start[segs],
                   part.read_start[segs], part.read_end[segs],
                   np.repeat(np.arange(segs.size), n_ops), part.kind[ops],
                   part.read_pos[ops], part.length[ops])

    def __len__(self) -> int:
        return self.offsets.size - 1

    def _steps(self) -> np.ndarray:
        """Per op, how far it moves the consensus against the read: a
        deletion's length forward, an insertion's back, 0 for a
        substitution."""
        return np.where(self.kind == DEL, self.length, 0) \
            - np.where(self.kind == INS, self.length, 0)

    def placements(self) -> tuple[np.ndarray, np.ndarray]:
        """Where each op sits: ``(cons_at, read_at)``, its consensus
        offset — its segment's ``cons_start`` plus its ``read_pos`` plus
        the steps of the segment's earlier ops — and its oriented read
        offset."""
        step = self._steps()
        shift = np.cumsum(step) - step
        shift -= shift[np.searchsorted(self.op_seg, self.op_seg)]
        return (self.cons_start[self.op_seg] + self.read_pos + shift,
                self.read_start[self.op_seg] + self.read_pos)

    def cons_end(self) -> np.ndarray:
        """Per segment, the consensus offset past it: its ``cons_start``
        plus its read length plus the steps of all its ops."""
        end = self.cons_start + (self.read_end - self.read_start)
        np.add.at(end, self.op_seg, self._steps())
        return end

    def oriented(self, rows: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """The bases at oriented positions ``pos`` of reads ``rows``:
        reverse-complemented for a ``reverse`` read."""
        reverse = self.reverse[rows]
        length = self.offsets[rows + 1] - self.offsets[rows]
        bases = self.codes[self.offsets[rows]
                           + np.where(reverse, length - 1 - pos, pos)]
        return np.where(reverse, seq.COMPLEMENT[bases], bases)


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

    def map_batch(self, codes, offsets=None) -> MappedBlock:
        """Map a block of reads: its flat ``codes`` column and read
        ``offsets``, or (``offsets`` omitted) a sequence of per-read code
        arrays.  The scalar reference maps one read at a time: each read
        is seeded with :meth:`KmerIndex.lookup` on both strands, takes
        the strand with more hits, and is extended on its own.

        :class:`~repro.mapping.batch.BatchReadMapper` overrides this with
        the vectorized structure-of-arrays implementation; the tables are
        equal column for column by contract.
        """
        codes, offsets = block_columns(codes, offsets)
        bounds = offsets.tolist()
        stride = self.config.stride
        parts = []
        for row, (start, end) in enumerate(zip(bounds, bounds[1:])):
            fwd = codes[start:end]
            if fwd.size < self.config.k:
                continue
            fwd_hits = self.index.lookup(fwd, stride)
            rev = seq.reverse_complement(fwd)
            rev_hits = self.index.lookup(rev, stride)
            reverse = len(rev_hits) > len(fwd_hits)
            oriented, hits = (rev, rev_hits) if reverse else (fwd, fwd_hits)
            if len(hits) == 0:
                continue
            part = self._extend(oriented, np.zeros(1, dtype=np.int64),
                                np.array([oriented.size], dtype=np.int64),
                                np.array([reverse]),
                                np.zeros(len(hits), dtype=np.int64),
                                hits.read_pos, hits.cons_pos)
            parts.append(part._replace(rows=part.rows + row))
        return MappedBlock.assemble(codes, offsets, parts)

    # ------------------------------------------------------------------
    # Planning: anchors -> clusters -> chains -> segment plans, a block
    # of reads at a time
    # ------------------------------------------------------------------

    def _extend(self, oriented: np.ndarray, starts: np.ndarray,
                lengths: np.ndarray, reverse: np.ndarray, a_row: np.ndarray,
                a_rpos: np.ndarray, a_cons: np.ndarray) -> Placed:
        """The rows that map, of every anchored row: the rows are planned
        (:meth:`_plan_block`, whose arguments these are), the alignments
        they leave open are solved in one :meth:`_solve_jobs` call, and
        :meth:`_assemble` writes the rows out and holds them to the
        rules.  Row ``i`` is oriented ``reverse[i]``, and the part's
        ``rows`` index these rows; a read both kernels extend is mapped
        here and nowhere else."""
        jobs: list[AlignmentJob] = []
        plans = self._plan_block(oriented, starts, lengths, a_row, a_rpos,
                                 a_cons, jobs)
        return self._assemble(plans, self._solve_jobs(jobs), lengths,
                              reverse)

    def _solve_jobs(self, jobs: list[AlignmentJob]) -> SolvedJobs:
        """Solve extension jobs one at a time (the reference solver, and
        the only caller of the scalar aligners), into one table."""
        aligners = {"global": global_align, "prefix_free": prefix_free_align,
                    "suffix_free": suffix_free_align}
        return SolvedJobs.of([aligners[job.flavour](job.read_seg,
                                                    job.cons_seg)
                              for job in jobs])

    def _plan_block(self, oriented: np.ndarray, starts: np.ndarray,
                    lengths: np.ndarray, a_row: np.ndarray,
                    a_rpos: np.ndarray, a_cons: np.ndarray,
                    jobs: list[AlignmentJob]
                    ) -> list[list[_SegmentPlan] | None]:
        """Segment plans of every row of a block, appending each
        alignment they leave open to ``jobs`` (row after row).

        Row ``i`` is the oriented read ``oriented[starts[i]:][:lengths[i]]``;
        its anchors are those with ``a_row == i`` (``a_row`` ascending,
        each row's anchors in :meth:`KmerIndex.lookup` order).  A row
        without anchors plans to ``None``.  The rules, per read:

        * *cluster* — anchors sorted (stably) by diagonal split where
          consecutive diagonals jump more than ``diag_cluster_gap``;
          clusters are tried largest first (ties in diagonal order);
        * *chain* — a cluster's anchors in read order (ties by diagonal,
          then lookup order) are taken greedily when read and consensus
          position both advance past the last taken one and the diagonal
          drifts at most ``diag_cluster_gap`` from it;
        * *select* — at most ``max_segments`` chains; after the first,
          only clusters of ``min_segment_anchors`` or more whose chain
          span overlaps no chosen one, while ``min_segment_length``
          bases stay uncovered and the span is at least half that.

        Block arrays carry all of it but the selection: one sort clusters
        a pass of rows, and when every consecutive pair of a cluster
        passes the chain test, every anchor is taken (by induction), so
        only a cluster with a failing pair walks the greedy rule, from
        that pair on.
        """
        plans: list[list[_SegmentPlan] | None] = [None] * starts.size
        # Whole rows per pass, about _PLAN_ANCHORS anchors each, so the
        # per-anchor temporaries stay small next to the plans they make.
        row_end = np.searchsorted(a_row, np.arange(starts.size), "right")
        first = 0
        while first < a_row.size:
            last_row = max(int(a_row[first]), int(np.searchsorted(
                row_end, first + _PLAN_ANCHORS, "right")) - 1)
            part = slice(first, int(row_end[last_row]))
            first = part.stop
            R, C, D, lo, c_row = self._cluster_block(
                a_row[part], a_rpos[part], a_cons[part])
            rows, n_chains, chain_len, sel = self._chain_clusters(
                R, C, D, lo, c_row, lengths)
            for row, plan in zip(rows, self._plan_segments(
                    oriented, starts[rows], lengths[rows], n_chains,
                    chain_len, R[sel], C[sel], D[sel], jobs)):
                plans[row] = plan
        return plans

    def _cluster_block(self, a_row: np.ndarray, a_rpos: np.ndarray,
                       a_cons: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(R, C, D, lo, c_row)``: the anchors' read positions,
        consensus positions and diagonals in chain order (cluster by
        cluster, then by read position, diagonal and lookup order), the
        first position of each cluster and its row."""
        # Stable sorts on one int64 key each: rows x diagonal span and
        # clusters x read length stay far below 2**63.
        diag = a_cons - a_rpos
        low = int(diag.min())
        by_diag = np.argsort(a_row * (int(diag.max()) - low + 1)
                             + (diag - low), kind="stable")
        row_d, diag_d = a_row[by_diag], diag[by_diag]
        new = np.ones(by_diag.size, dtype=bool)
        new[1:] = (row_d[1:] != row_d[:-1]) \
            | (np.diff(diag_d) > self.config.diag_cluster_gap)
        rpos_d = a_rpos[by_diag]
        # Within a cluster, read order; ties keep (diagonal, lookup) order.
        order = by_diag[np.argsort((np.cumsum(new) - 1)
                                   * (int(rpos_d.max()) + 1) + rpos_d,
                                   kind="stable")]
        lo = np.flatnonzero(new)
        return a_rpos[order], a_cons[order], diag[order], lo, row_d[lo]

    def _chain_clusters(self, R: np.ndarray, C: np.ndarray, D: np.ndarray,
                        lo: np.ndarray, c_row: np.ndarray,
                        lengths: np.ndarray
                        ) -> tuple[list[int], list[int], np.ndarray,
                                   np.ndarray]:
        """Chain and select each row's clusters: ``(rows, n_chains,
        chain_len, sel)``, where ``sel`` holds the positions of the
        chosen chains' anchors, chain after chain (a row's in read
        order), row after row."""
        cfg = self.config
        gap, k = cfg.diag_cluster_gap, cfg.k
        size = np.diff(np.append(lo, R.size))
        in_cluster = np.ones(R.size, dtype=bool)   # t-1 and t: one cluster
        in_cluster[lo] = False
        fails = np.flatnonzero(in_cluster[1:] & ((R[1:] <= R[:-1])
                                                 | (C[1:] <= C[:-1])
                                                 | (np.abs(np.diff(D))
                                                    > gap)))
        failing, first = np.unique(np.searchsorted(lo, fails, "right") - 1,
                                   return_index=True)
        first_fail = dict(zip(failing.tolist(), fails[first].tolist()))
        lo_l, size_l = lo.tolist(), size.tolist()

        def chain_of(c: int) -> range | list[int]:
            """Positions of cluster ``c``'s chain, in chain order."""
            start, end = lo_l[c], lo_l[c] + size_l[c]
            f = first_fail.get(c)
            if f is None:
                return range(start, end)
            r, cc, d = (a[start:end].tolist() for a in (R, C, D))
            taken = list(range(start, f + 1))
            f -= start
            pr, pc, pd = r[f], cc[f], d[f]
            for t in range(f + 1, end - start):
                if r[t] <= pr or cc[t] <= pc or abs(d[t] - pd) > gap:
                    continue
                taken.append(start + t)
                pr, pc, pd = r[t], cc[t], d[t]
            return taken

        rows: list[int] = []
        n_chains: list[int] = []
        chain_len: list[int] = []
        runs: list[tuple[int, int]] = []
        by_size = np.lexsort((-size, c_row))
        for row, clusters in groupby(zip(c_row[by_size].tolist(),
                                         by_size.tolist()), itemgetter(0)):
            chains: list = []
            covered: list[tuple[int, int]] = []
            for _, c in clusters:
                if len(chains) >= cfg.max_segments:
                    break
                if chains and size_l[c] < cfg.min_segment_anchors:
                    break
                chain = chain_of(c)
                span = (int(R[chain[0]]), int(R[chain[-1]]) + k)
                if any(not (span[1] <= a or span[0] >= b)
                       for a, b in covered):
                    continue
                if chains and (
                        self._uncovered_length(int(lengths[row]), covered)
                        < cfg.min_segment_length
                        or span[1] - span[0] < cfg.min_segment_length // 2):
                    continue
                chains.append(chain)
                covered.append(span)
            chains.sort(key=lambda ch: R[ch[0]])
            for chain in chains:
                runs += ([(chain.start, len(chain))]
                         if isinstance(chain, range)
                         else [(t, 1) for t in chain])
                chain_len.append(len(chain))
            rows.append(row)
            n_chains.append(len(chains))
        begin, length = np.array(runs, dtype=np.int64).T
        return (rows, n_chains, np.array(chain_len, dtype=np.int64),
                run_index(begin, length))

    def _plan_segments(self, oriented: np.ndarray, starts: np.ndarray,
                       lengths: np.ndarray, n_chains: list[int],
                       chain_len: np.ndarray, R: np.ndarray, C: np.ndarray,
                       D: np.ndarray, jobs: list[AlignmentJob]
                       ) -> list[list[_SegmentPlan]]:
        """Cut chains into segment plans, one list per row.  ``R`` /
        ``C`` / ``D`` are the chains' anchors, chain after chain
        (``chain_len`` each); row ``i`` owns the next ``n_chains[i]``
        chains, in read order, and its oriented read is
        ``oriented[starts[i]:][:lengths[i]]``.  A segment's read interval
        ends at the midpoint between its chain's span and the next one's
        (clamped to both), its head and tail become ``prefix_free`` and
        ``suffix_free`` jobs, and its gaps come from :meth:`_plan_gaps`.
        """
        cons = self.consensus
        ends, pieces = self._plan_gaps(oriented, np.repeat(starts, n_chains),
                                       chain_len, R, C, D)
        plans = []
        c = 0
        for rs, n, count in zip(starts.tolist(), lengths.tolist(), n_chains):
            own = range(c, c + count)
            c += count
            bounds = [0]
            for left, right in zip(own, own[1:]):
                left_end, right_start = ends[left][2], ends[right][0]
                bounds.append(max(left_end,
                                  min(right_start,
                                      (left_end + right_start) // 2)))
            bounds.append(n)
            plan = []
            for w, ch in enumerate(own):
                gaps: list[tuple[int, int | list[int]]] = []
                for start, piece in pieces[ch]:
                    if isinstance(piece, tuple):
                        end, cons_lo, cons_hi = piece
                        piece = len(jobs)
                        jobs.append(AlignmentJob(
                            oriented[rs + start:rs + end],
                            cons[cons_lo:cons_hi], "global"))
                    gaps.append((start, piece))
                seg_lo, seg_hi = bounds[w], bounds[w + 1]
                a0r, a0c, _, tr, tc = ends[ch]
                head = oriented[rs + seg_lo:rs + a0r]
                tail = oriented[rs + tr:rs + seg_hi]
                head_lo, tail_hi = self._flank_windows(a0c, head.size, tc,
                                                       tail.size)
                # head: aligns to a suffix of its consensus window
                head_job, win_lo = None, 0
                if head.size:
                    win_lo = int(head_lo)
                    head_job = len(jobs)
                    jobs.append(AlignmentJob(head, cons[win_lo:a0c],
                                             "prefix_free"))
                # tail: aligns to a prefix of its consensus window
                tail_job = None
                if tail.size:
                    tail_job = len(jobs)
                    jobs.append(AlignmentJob(tail, cons[tc:tail_hi],
                                             "suffix_free"))
                plan.append(_SegmentPlan(seg_lo, seg_hi, w == 0,
                                         w == count - 1, a0r, a0c, tr,
                                         head, tail, head_job, win_lo,
                                         tail_job, gaps))
            plans.append(plan)
        return plans

    def _plan_gaps(self, oriented: np.ndarray, row_start: np.ndarray,
                   chain_len: np.ndarray, R: np.ndarray, C: np.ndarray,
                   D: np.ndarray) -> tuple[list[tuple], list[list]]:
        """``(ends, pieces)`` of each chain (its oriented read at
        ``row_start``): ``ends`` is ``(first anchor's read and consensus
        position, span end, read and consensus position past the last
        taken anchor)``; ``pieces`` its gaps in read order, each
        ``(read_start, positions)`` for the substitutions of an
        equal-length gap (gap coordinates), or ``(read_start, (read_end,
        cons_start, cons_end))`` for a ``global`` job.

        Walking a chain, an anchor on the last taken anchor's diagonal is
        always taken: past that anchor's k-mer the gap between them has
        equal lengths (diffed for substitutions), inside it the exact
        match goes on.  An anchor on another diagonal is taken only when
        it starts past the last taken k-mer in read and consensus, and
        its gap becomes a job; otherwise it is skipped.  When every
        diagonal change of a chain starts past the previous anchor's
        k-mer, every anchor is taken (by induction), so only a chain
        with a change that does not walks the rule, from there; every
        equal-length gap of the block is diffed in one flat compare.
        """
        k, cons = self.config.k, self.consensus
        ch_end = np.cumsum(chain_len)
        ch_start = ch_end - chain_len
        which = np.repeat(np.arange(chain_len.size), chain_len)
        taken = np.ones(R.size, dtype=bool)
        change = np.flatnonzero(D[1:] != D[:-1]) + 1
        change = change[which[change] == which[change - 1]]
        late = change[(R[change] < R[change - 1] + k)
                      | (C[change] < C[change - 1] + k)]
        walked, first = np.unique(which[late], return_index=True)
        for c, f in zip(walked.tolist(), late[first].tolist()):
            s, e = int(ch_start[c]), int(ch_end[c])
            r, cc, d = (a[s:e].tolist() for a in (R, C, D))
            last = f - 1 - s
            cur = d[last]
            for t in range(f - s, e - s):
                if d[t] != cur:
                    if r[t] < r[last] + k or cc[t] < cc[last] + k:
                        taken[s + t] = False
                        continue
                    cur = d[t]
                last = t
        kept = np.flatnonzero(taken)
        last_taken = kept[np.searchsorted(kept, ch_end) - 1]
        ends = list(zip(R[ch_start].tolist(), C[ch_start].tolist(),
                        (R[ch_end - 1] + k).tolist(),
                        (R[last_taken] + k).tolist(),
                        (C[last_taken] + k).tolist()))

        # Consecutive taken anchors p, q of a chain.
        p, q = kept[:-1], kept[1:]
        inside = which[p] == which[q]
        p, q = p[inside], q[inside]
        equal = D[p] == D[q]
        length = R[q] - R[p] - k
        diffed = equal & (length > 0)
        dp, dlen = p[diffed], length[diffed]
        at = run_index(row_start[which[dp]] + R[dp] + k, dlen)
        hit = np.flatnonzero(oriented[at] != cons[run_index(C[dp] + k,
                                                             dlen)])
        hit_gap = np.repeat(np.arange(dp.size), dlen)[hit]
        hit_pos = (hit - (np.cumsum(dlen) - dlen)[hit_gap]).tolist()
        subs = np.unique(hit_gap)
        gap_p = np.concatenate([dp[subs], p[~equal]])
        gap_q = np.concatenate([q[diffed][subs], q[~equal]])
        hits = np.concatenate([np.searchsorted(hit_gap, [subs, subs + 1]),
                               np.full((2, gap_p.size - subs.size), -1)],
                              axis=1)
        by_p = np.argsort(gap_p)
        gap_p, gap_q, hits = gap_p[by_p], gap_q[by_p], hits[:, by_p]
        pieces: list[list] = [[] for _ in range(chain_len.size)]
        for ch, start, h_lo, h_hi, end, cons_lo, cons_hi in zip(
                which[gap_p].tolist(), (R[gap_p] + k).tolist(),
                *hits.tolist(), R[gap_q].tolist(), (C[gap_p] + k).tolist(),
                C[gap_q].tolist()):
            pieces[ch].append((start, (end, cons_lo, cons_hi)) if h_lo < 0
                              else (start, hit_pos[h_lo:h_hi]))
        return ends, pieces

    @staticmethod
    def _uncovered_length(read_len: int,
                          covered: list[tuple[int, int]]) -> int:
        mask = np.zeros(read_len, dtype=bool)
        for lo, hi in covered:
            mask[max(0, lo):min(read_len, hi)] = True
        return int(read_len - mask.sum())

    # ------------------------------------------------------------------
    # The rules a kernel's proof rests on, each stated once.  Every
    # argument may be a scalar or an array (one entry per flank or read).
    # ------------------------------------------------------------------

    def _soft_clipped(self, n, cost):
        """Whether a flank of ``n`` bases (a first segment's head or a
        last one's tail) whose alignment costs ``cost`` is a soft clip:
        this short and this costly."""
        cfg = self.config
        return ((cfg.clip_min_length <= n) & (n <= cfg.clip_max_length)
                & (cost > cfg.clip_cost_fraction * n))

    def _unmapped(self, cost, length, clip_s, clip_e):
        """Whether a read of ``length`` bases, mapped at ``cost`` with
        ``clip_s`` / ``clip_e`` bases clipped, is stored unmapped: its cost
        is above ``unmapped_cost_fraction`` of its unclipped bases."""
        return cost > self.config.unmapped_cost_fraction \
            * np.maximum(1, length - clip_s - clip_e)

    def _flank_windows(self, head_end, head_len, tail_start, tail_len):
        """``(head_lo, tail_hi)``: a head of ``head_len`` bases ending at
        consensus ``head_end`` aligns in ``consensus[head_lo:head_end]``,
        a tail of ``tail_len`` bases starting at ``tail_start`` in
        ``consensus[tail_start:tail_hi]``; each window is ``end_slack``
        bases longer than its flank, clamped to the consensus."""
        slack = self.config.end_slack
        return (np.maximum(0, head_end - head_len - slack),
                np.minimum(self.consensus.size,
                           tail_start + tail_len + slack))

    # ------------------------------------------------------------------
    # Assembly: solved jobs -> the rows' columns
    # ------------------------------------------------------------------

    def _assemble(self, plans: list[list[_SegmentPlan] | None],
                  solved: SolvedJobs, lengths: np.ndarray,
                  reverse: np.ndarray) -> Placed:
        """The rows of ``plans`` that map (row ``i`` is ``lengths[i]``
        bases, oriented ``reverse[i]``), written from their jobs' table
        (``solved``, same job indexing) into one part.

        The clip rule is applied to every segment's head and tail at
        once: a first segment's head or a last one's tail that is a soft
        clip is left out, and its segment starts at its first anchor or
        ends past its last.  Every other piece (the head, the gaps in
        chain order, the tail: read order) costs its alignment, and the
        unmapped rule is applied to the rows' costs at once; a row
        without a plan is left out.  The mapped rows' pieces are then
        copied into the op columns in one gather, each position shifted
        from piece to segment coordinates.

        No piece starts left of its segment and no segment left of the
        consensus, by construction: a segment starts at or before its
        first anchor (at the previous chain's span end or later, which
        does not overlap it) and its gaps and tail start past that
        anchor, or at its head; and it is placed at an anchor or inside
        a head window clamped at 0 (``_flank_windows``).
        """
        segs = [seg for plan in plans if plan for seg in plan]
        if not segs:
            return _NONE_PLACED
        job_cost = solved.cost.tolist()
        used_start = solved.cons_used_start.tolist()
        op_lo, n_ops = solved.op_lo.tolist(), solved.n_ops.tolist()
        # Per segment, (head, tail): the length and alignment cost of a
        # flank that may be a soft clip (a first segment's head, a last
        # one's tail), else 0 and 0, which is no clip.
        n, cost = np.array([
            (seg.head.size if seg.is_first else 0,
             seg.tail.size if seg.is_last else 0,
             job_cost[seg.head_job]
             if seg.is_first and seg.head_job is not None else 0,
             job_cost[seg.tail_job]
             if seg.is_last and seg.tail_job is not None else 0)
            for seg in segs], dtype=np.int64).T.reshape(2, 2, -1)
        clips = iter(self._soft_clipped(n, cost).T.tolist())

        # Each row's segments as (start, end, consensus start, pieces),
        # a piece ``(read start, first op, ops)`` in the job ops
        # followed by the equal-length gaps' substitutions; its cost and
        # clip lengths.
        subs: list[int] = []
        n_job_ops = solved.kind.size
        planned, row_cost, clip_s, clip_e = [], [], [], []
        for plan in plans:
            segments, total, head_clip, tail_clip = [], 0, 0, 0
            for seg in plan or ():
                clip_h, clip_t = next(clips)
                lo, hi = seg.seg_lo, seg.seg_hi
                cons_start, jobs = seg.a0_cons, []
                if clip_h:
                    lo, head_clip = seg.a0_read, seg.head.size
                elif seg.head_job is not None:
                    cons_start = seg.head_win_lo + used_start[seg.head_job]
                    jobs.append((seg.seg_lo, seg.head_job))
                jobs += seg.gaps
                if clip_t:
                    hi, tail_clip = seg.tail_read, seg.tail.size
                elif seg.tail_job is not None:
                    jobs.append((seg.tail_read, seg.tail_job))
                pieces = []
                for at, piece in jobs:
                    if isinstance(piece, int):
                        total += job_cost[piece]
                        pieces.append((at, op_lo[piece], n_ops[piece]))
                    else:               # substitution positions
                        total += len(piece)
                        pieces.append((at, n_job_ops + len(subs),
                                       len(piece)))
                        subs += piece
                segments.append((lo, hi, cons_start, pieces))
            planned.append(segments)
            row_cost.append(total)
            clip_s.append(head_clip)
            clip_e.append(tail_clip)
        per_row = np.array([row_cost, clip_s, clip_e,
                            [len(segments) for segments in planned]],
                           dtype=np.int64)
        rows = np.flatnonzero(np.array([plan is not None for plan in plans])
                              & ~self._unmapped(per_row[0], lengths,
                                                per_row[1], per_row[2]))
        row_cost, clip_s, clip_e, n_segments = per_row[:, rows]

        # The mapped rows' pieces, gathered from the ops at once.
        seg_columns, piece_columns = [], []
        for row in rows.tolist():
            for lo, hi, cons_start, pieces in planned[row]:
                seg_columns.append((cons_start, lo, hi,
                                    sum(count for _, _, count in pieces)))
                piece_columns += [(first, count, at - lo)
                                  for at, first, count in pieces]
        cons_start, lo, hi, seg_ops = np.array(
            seg_columns, dtype=np.int64).reshape(-1, 4).T
        first, count, shift = np.array(
            piece_columns, dtype=np.int64).reshape(-1, 3).T
        kind, read_pos, length = np.concatenate(
            [np.stack([solved.kind, solved.read_pos, solved.length]),
             np.array([[SUB] * len(subs), subs, [1] * len(subs)],
                      dtype=np.int64).reshape(3, -1)],
            axis=1)[:, run_index(first, count)]
        read_pos += np.repeat(shift, count)
        return Placed(rows, reverse[rows], row_cost, clip_s, clip_e,
                      n_segments, cons_start, lo, hi, seg_ops,
                      kind.astype(np.int8), read_pos, length)
