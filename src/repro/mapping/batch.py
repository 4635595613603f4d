"""Vectorized batched read mapper with bit-parallel pre-alignment filtering.

:class:`~repro.mapping.mapper.ReadMapper` (the scalar reference) walks one
read at a time through seed–chain–extend; at short-read scale the per-read
Python and tiny-array numpy overhead dominates compression time (Fig. 18:
~98% of encode is mismatch finding).  :class:`BatchReadMapper` restructures
the same computation into structure-of-arrays passes over a whole block of
reads:

1. **Batched seeding** — all reads (both orientations) are concatenated and
   2-bit-packed k-mer codes are computed in one pass; one
   ``KmerIndex.query_ranges`` call (a prefix-bucket table lookup)
   resolves every strided query against the consensus index, and
   per-read anchor diagonals reduce with
   ``np.minimum/maximum.reduceat``.
2. **Bit-parallel pre-alignment filter** — candidate (read, diagonal)
   placements are screened GateKeeper / Shifted-Hamming-Distance style
   (Alser et al.; Senol Cali): read and consensus windows are packed four
   bases per byte and XORed, and a 256-entry LUT counts mismatching 2-bit
   base slots.  Candidates whose zero-shift count exceeds the edit
   threshold are rejected before any DP runs.
3. **Banded vectorized verification** — survivors are verified exactly: a
   full-read window compare recovers mismatch positions, and read
   heads/tails with nonzero straight-diagonal cost run through a batched
   (candidates × window) edit-distance DP reproducing the exact
   ``prefix_free_align``/``suffix_free_align`` optima, replacing one full
   ``_dp_matrix`` call per read end.
4. **Batched extension** — every read stages 2–3 could not prove
   (multi-diagonal chains, indel-bearing ends, chimeric candidates, filter
   rejects: > 99 % of a long-read block) is chained by the scalar rules of
   :mod:`repro.mapping.mapper`, but *planned* first: the block's gap, head
   and tail alignments are collected into one job list and
   :func:`solve_extension_jobs` solves it bucket by bucket, one numpy row
   step per DP row of a whole bucket instead of one per row of every job
   (GenASM's argument, Senol Cali: extension pays when issued as wide,
   regular operations over many windows at once).  The reads are then
   assembled from the results.

Byte-identity contract, in two halves.  Stages 2–3 emit a result
themselves only when they can prove the scalar mapper would produce the
identical ``MappingResult``: single-diagonal anchor chains whose
heads/tails are pure substitution paths (DP optimum equals the
straight-diagonal Hamming cost, which pins the scalar traceback to that
diagonal) or soft clips (decided from the exact DP cost alone).  For
everything else there is nothing to prove: :class:`BatchReadMapper`
inherits planning and assembly and overrides only the job solver, whose
kernel runs ``alignment._dp_matrix``'s recurrence and tie-breaks cell for
cell and hands the same backpointers to the same traceback — so archives
are byte-identical between ``mapper="python"`` and ``mapper="numpy"``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np

from ..genomics import sequence as seq
from .alignment import (BP_DIAG, BP_LEFT, BP_UP, SUB, AlignmentResult, EditOp,
                        trace_ops)
from .kmer_index import AnchorHits, KmerIndex
from .mapper import (AlignmentJob, MappedSegment, MapperConfig, MappingResult,
                     ReadMapper)

#: Mapper used when neither the options nor ``SAGE_MAPPER`` select one.
DEFAULT_MAPPER = "numpy"

#: Heads/tails longer than this fall back to the scalar mapper instead of
#: the batched verification DP (keeps the padded DP matrices narrow).
_VERIFY_CAP = 128

#: Most padded backpointer cells (one byte each) a bucket of extension
#: jobs may hold at once; a fuller bucket is split, down to one job.
_EXTENSION_CELL_CAP = 1 << 21

#: Fill past the end of a padded read / consensus row: never equal to
#: each other or to a base code (``N_CODE`` included).
_READ_PAD, _CONS_PAD = 255, 254

#: Mismatching 2-bit base slots per XOR byte (4 packed bases/byte).
_SLOT_LUT = np.zeros(256, dtype=np.uint8)
for _s in (0, 2, 4, 6):
    _SLOT_LUT += (((np.arange(256) >> _s) & 3) != 0).astype(np.uint8)

#: Byte mask keeping the first r packed bases of a byte (MSB-first).
_KEEP_MASK = np.array([0x00, 0xC0, 0xF0, 0xFC, 0xFF], dtype=np.uint8)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

@dataclass
class MapperStats:
    """Counters from the batched mapper's filter and verify stages."""

    reads: int = 0              # reads presented to map_batch
    batches: int = 0            # map_batch calls
    no_anchor: int = 0          # reads unmapped for lack of any anchor
    multi_diagonal: int = 0     # anchor chains not on a single diagonal
    candidates: int = 0         # single-diagonal placements filtered
    filter_rejected: int = 0    # exceeded the edit threshold before DP
    zero_mismatch: int = 0      # clean SHD mask: emitted with no DP at all
    verified: int = 0           # candidates exactly verified
    false_accepts: int = 0      # passed the filter, failed verification
    fast_path: int = 0          # reads proven and emitted by stages 1-3
    fallback: int = 0           # reads left to the scalar chain rules
    dp_cells: int = 0           # batched verification DP cells computed
    extension_jobs: int = 0     # gap/head/tail alignments solved batched
    extension_cells: int = 0    # their real (read x consensus) DP cells

    def merge(self, other: "MapperStats") -> None:
        """Accumulate ``other`` into this instance."""
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    @property
    def fast_path_fraction(self) -> float:
        return self.fast_path / self.reads if self.reads else 0.0


#: Process-wide accumulator (``bench/`` reads it; workers=1 only —
#: process-pool workers accumulate into their own copy).
GLOBAL_STATS = MapperStats()


def reset_stats() -> None:
    """Zero the process-wide mapper statistics."""
    GLOBAL_STATS.reset()


# ----------------------------------------------------------------------
# Bit-parallel primitives
# ----------------------------------------------------------------------

def pack_bases(rows: np.ndarray) -> np.ndarray:
    """Pack base-code rows four bases per byte, first base in the high bits.

    ``N`` (code 4) folds onto ``A``; the filter consuming these bytes can
    therefore only under-count mismatches, which is safe (it only admits
    more candidates to exact verification).
    """
    rows = np.asarray(rows, dtype=np.uint8)
    n, width = rows.shape
    n_bytes = (width + 3) // 4
    padded = np.zeros((n, n_bytes * 4), dtype=np.uint8)
    padded[:, :width] = rows & 3
    quads = padded.reshape(n, n_bytes, 4)
    return ((quads[:, :, 0] << 6) | (quads[:, :, 1] << 4)
            | (quads[:, :, 2] << 2) | quads[:, :, 3])


def _revcomp_kmers(kmers: np.ndarray, k: int) -> np.ndarray:
    """Reverse-complement packed k-mer values (sentinels pass through).

    Complementing flips every 2-bit base (``A=00 <-> T=11``,
    ``C=01 <-> G=10``), i.e. an XOR against all-ones; reversal swaps
    2-bit groups pairwise, then nibbles, then byte order.
    """
    mask2k = (np.uint64(1) << np.uint64(2 * k)) - np.uint64(1)
    sentinel = np.uint64(1) << np.uint64(2 * k)
    x = kmers ^ mask2k
    m2 = np.uint64(0x3333333333333333)
    x = ((x & m2) << np.uint64(2)) | ((x >> np.uint64(2)) & m2)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    x = ((x & m4) << np.uint64(4)) | ((x >> np.uint64(4)) & m4)
    x = x.byteswap()
    x >>= np.uint64(64 - 2 * k)
    return np.where(kmers == sentinel, sentinel, x)


def _byte_masks(lengths: np.ndarray, n_bytes: int) -> np.ndarray:
    """Per-row byte masks zeroing packed base slots beyond each length."""
    byte_idx = np.arange(n_bytes)
    full = lengths[:, None] // 4
    mask = np.where(byte_idx[None, :] < full, 0xFF, 0).astype(np.uint8)
    partial = byte_idx[None, :] == full
    mask = np.where(partial, _KEEP_MASK[lengths % 4][:, None], mask)
    return mask


def _shd_counts(packed_reads: np.ndarray, masks: np.ndarray,
                diagonals: np.ndarray,
                phased_cons: list[np.ndarray]) -> np.ndarray:
    """Masked mismatch count of each packed read against the consensus
    window starting at its diagonal (one shifted-Hamming evaluation)."""
    n, n_bytes = packed_reads.shape
    window = np.empty_like(packed_reads)
    phase = diagonals & 3
    start = diagonals >> 2
    span = np.arange(n_bytes, dtype=np.int64)
    for p in range(4):
        grp = np.nonzero(phase == p)[0]
        if grp.size:
            # Clamp: rows shorter than the padded width would gather past
            # the phase array; the masks zero those bytes anyway.
            idx = np.minimum(start[grp][:, None] + span[None, :],
                             phased_cons[p].size - 1)
            window[grp] = phased_cons[p][idx]
    window ^= packed_reads
    window &= masks
    return _SLOT_LUT[window].sum(axis=1, dtype=np.int64)


# ----------------------------------------------------------------------
# Batched edit-distance DP
# ----------------------------------------------------------------------

def _dp_last_rows(read_rows: np.ndarray, read_lens: np.ndarray,
                  win_rows: np.ndarray, free_start: bool,
                  back: np.ndarray | None = None) -> np.ndarray:
    """``alignment._dp_matrix`` over a plane of problems, one numpy row
    step per DP row of all of them; returns each problem's own last row
    (row ``read_lens[p]``, int32, one row per problem).

    ``read_rows`` / ``win_rows`` are padded 2-D inputs.  The recurrence
    and tie-breaks are the oracle's (``diag <= up`` takes the diagonal,
    left only when strictly smaller), and a cell depends only on cells
    above and to its left, so padding past a problem's own rectangle
    never reaches the cells inside it.  ``back``, when given, is the
    (problems, rows + 1, columns + 1) uint8 cube that receives the
    oracle's backpointers; distances live in two rolling rows.
    """
    n_prob, n_max = read_rows.shape
    m_max = win_rows.shape[1]
    cols = np.arange(1, m_max + 1, dtype=np.int32)
    if free_start:
        prev = np.zeros((n_prob, m_max + 1), dtype=np.int32)
    else:
        prev = np.tile(np.arange(m_max + 1, dtype=np.int32), (n_prob, 1))
    if back is not None:
        back[:, 0, :] = BP_LEFT
        back[:, :, 0] = BP_UP
        back[:, 0, 0] = BP_DIAG
    last = prev.copy()
    ends = set(read_lens.tolist())
    for i in range(1, n_max + 1):
        diag = prev[:, :-1] + (read_rows[:, i - 1, None] != win_rows)
        up = prev[:, 1:] + 1
        best = np.minimum(diag, up)
        # Left dependency row[j] = min(best[j], row[j-1] + 1) unrolls to
        # a prefix-min with unit carry: row[j] = j + min_{t<=j}(cand[t]
        # - t) where cand[0] is the first-column value.
        row = np.empty_like(prev)
        row[:, 0] = i
        np.subtract(best, cols, out=row[:, 1:])
        np.minimum.accumulate(row, axis=1, out=row)
        row[:, 1:] += cols
        if back is not None:
            # (diag > up) as a byte is BP_DIAG / BP_UP already.
            back[:, i, 1:] = np.where(row[:, 1:] < best, np.uint8(BP_LEFT),
                                      (diag > up).view(np.uint8))
        if i in ends:
            done = read_lens == i
            last[done] = row[done]
        prev = row
    return last


def _batched_last_rows(read_rows: np.ndarray, read_lens: np.ndarray,
                       win_rows: np.ndarray, free_start: bool,
                       stats: MapperStats) -> np.ndarray:
    """Last DP rows of the fast path's head / tail verification
    (:func:`_dp_last_rows`, no backpointers), counted in ``dp_cells``."""
    stats.dp_cells += int((read_lens * (win_rows.shape[1] + 1)).sum())
    return _dp_last_rows(read_rows, read_lens, win_rows, free_start)


def solve_extension_jobs(jobs: list[AlignmentJob],
                         stats: MapperStats) -> list[AlignmentResult]:
    """Every job's ``global`` / ``prefix_free`` / ``suffix_free_align``
    result, from one batched DP per bucket of similar shapes.

    Jobs are bucketed by padded shape (ceil(log2) of the read and of the
    consensus length) and by row-0 flavour; each bucket is one
    :func:`_dp_last_rows` run with a backpointer cube (split while the
    cube would exceed ``_EXTENSION_CELL_CAP``), and the traceback is the
    oracle's own walk over the job's slice of the cube — so matrices,
    tracebacks and results are the scalar aligners' exactly.
    """
    results: list[AlignmentResult | None] = [None] * len(jobs)
    if not jobs:
        return results  # type: ignore[return-value]
    n = np.array([job.read_seg.size for job in jobs], dtype=np.int64)
    m = np.array([job.cons_seg.size for job in jobs], dtype=np.int64)
    free = np.array([job.flavour == "prefix_free" for job in jobs])
    stats.extension_jobs += len(jobs)
    stats.extension_cells += int((n * m).sum())

    # frexp's exponent of (x - 1) is its bit length: ceil(log2 x).
    key = ((np.frexp(np.maximum(n - 1, 0))[1] * 64
            + np.frexp(np.maximum(m - 1, 0))[1]) * 2 + free)
    order = np.argsort(key, kind="stable")
    edges = np.nonzero(np.diff(key[order]))[0] + 1
    for bucket in np.split(order, edges):
        cube = (int(n[bucket].max()) + 1) * (int(m[bucket].max()) + 1)
        step = max(1, _EXTENSION_CELL_CAP // cube)
        for lo in range(0, bucket.size, step):
            part = bucket[lo:lo + step]
            which = part.tolist()
            solved = _solve_bucket([jobs[j] for j in which], n[part],
                                   m[part], bool(free[which[0]]))
            for j, res in zip(which, solved):
                results[j] = res
    return results  # type: ignore[return-value]


def _solve_bucket(jobs: list[AlignmentJob], n: np.ndarray, m: np.ndarray,
                  free_start: bool) -> list[AlignmentResult]:
    """Solve jobs of one row-0 flavour and similar shapes (``n`` x ``m``
    their read x consensus lengths) in one batched DP."""
    read_rows = np.full((len(jobs), int(n.max())), _READ_PAD, dtype=np.uint8)
    cons_rows = np.full((len(jobs), int(m.max())), _CONS_PAD, dtype=np.uint8)
    for r, job in enumerate(jobs):
        read_rows[r, :job.read_seg.size] = job.read_seg
        cons_rows[r, :job.cons_seg.size] = job.cons_seg
    back = np.empty((len(jobs), read_rows.shape[1] + 1,
                     cons_rows.shape[1] + 1), dtype=np.uint8)
    last = _dp_last_rows(read_rows, n, cons_rows, free_start, back)

    # global / prefix_free end in the last column; suffix_free at the
    # first minimum of its own last row.
    own = np.arange(last.shape[1])[None, :] <= m[:, None]
    first_min = np.where(own, last, np.iinfo(np.int32).max).argmin(axis=1)
    suffix_free = np.array([job.flavour == "suffix_free" for job in jobs])
    end_j = np.where(suffix_free, first_min, m).tolist()
    solved = []
    for r, job in enumerate(jobs):
        ops, start_j = trace_ops(job.read_seg, job.cons_seg, back[r],
                                 job.read_seg.size, end_j[r], free_start)
        solved.append(AlignmentResult(ops, int(last[r, end_j[r]]), start_j,
                                      end_j[r]))
    return solved


# ----------------------------------------------------------------------
# The batched mapper
# ----------------------------------------------------------------------

class BatchReadMapper(ReadMapper):
    """Block-at-a-time mapper; byte-identical to :class:`ReadMapper`.

    ``map_batch`` runs the vectorized pipeline described in the module
    docstring.  The chain/segment rules are inherited unchanged; reads
    outside the provable fast path are planned and assembled by them,
    and only the alignments in between are solved here
    (:meth:`_solve_jobs`).
    """

    def __init__(self, consensus: np.ndarray,
                 config: MapperConfig | None = None,
                 index: KmerIndex | None = None):
        super().__init__(consensus, config, index)
        self.stats = MapperStats()
        self._phased_cons: list[np.ndarray] | None = None
        self._cons_has_n = bool((self.consensus == seq.N_CODE).any())

    # -- consensus packing (lazy; shared across batches) ---------------

    def _cons_phases(self) -> list[np.ndarray]:
        if self._phased_cons is None:
            cons = self.consensus
            phases = []
            for p in range(4):
                tail = cons[p:]
                packed = (pack_bases(tail[None, :])[0] if tail.size
                          else np.zeros(1, dtype=np.uint8))
                # Pad so shifted gathers near the consensus end stay in
                # bounds; padded bytes are masked out of every count.
                phases.append(np.concatenate(
                    [packed, np.zeros(2, dtype=np.uint8)]))
            self._phased_cons = phases
        return self._phased_cons

    # -- public API ----------------------------------------------------

    def map_batch(self, reads) -> list[MappingResult]:
        codes_list = [np.asarray(c, dtype=np.uint8) for c in reads]
        n = len(codes_list)
        results: list[MappingResult | None] = [None] * n
        st = MapperStats()
        st.reads = n
        st.batches = 1
        if n:
            self._map_block(codes_list, results, st)
        # Anything not proven identical above goes through the scalar
        # reference implementation.
        for i, res in enumerate(results):
            if res is None:
                results[i] = self.map_read(codes_list[i])
                st.fallback += 1
        st.fast_path = n - st.fallback
        self.stats.merge(st)
        GLOBAL_STATS.merge(st)
        return results  # type: ignore[return-value]

    # -- pipeline ------------------------------------------------------

    def _map_block(self, codes_list: list[np.ndarray],
                   results: list[MappingResult | None],
                   st: MapperStats) -> None:
        cfg = self.config
        k = cfg.k
        n = len(codes_list)
        cons = self.consensus
        index = self.index
        lengths = np.array([c.size for c in codes_list], dtype=np.int64)
        total = int(lengths.sum())
        if total == 0 or len(index) == 0 or total < k:
            for i in range(n):
                results[i] = MappingResult(unmapped=True)
            st.no_anchor += n
            return

        # ---- stage 1: batched seeding --------------------------------
        offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(lengths)[:-1]])
        read_id = np.repeat(np.arange(n, dtype=np.int64), lengths)
        fwd = np.concatenate(codes_list)
        local = np.arange(total, dtype=np.int64) - offsets[read_id]
        rev_src = offsets[read_id] + lengths[read_id] - 1 - local
        rev = seq.COMPLEMENT[fwd[rev_src]]

        fwd_kmers = self._flat_kmers(fwd, k)

        # Strided query positions, restarting at each read boundary
        # (identical to the scalar lookup's kmers[::stride]).
        n_kmers = np.maximum(lengths - k + 1, 0)
        n_sel = (n_kmers + cfg.stride - 1) // cfg.stride
        sel_total = int(n_sel.sum())
        if sel_total == 0:
            for i in range(n):
                results[i] = MappingResult(unmapped=True)
            st.no_anchor += n
            return
        sel_read = np.repeat(np.arange(n, dtype=np.int64), n_sel)
        sel_local = (np.arange(sel_total, dtype=np.int64)
                     - (np.cumsum(n_sel) - n_sel)[sel_read]) * cfg.stride
        sel_flat = offsets[sel_read] + sel_local

        # The reverse-complement query at local position j is the
        # bit-reversed complement of the forward k-mer window mirrored
        # about the read centre — no second k-mer pass needed.
        mirror = (offsets[sel_read] + lengths[sel_read] - k) - sel_local
        queries = np.concatenate([fwd_kmers[sel_flat],
                                  _revcomp_kmers(fwd_kmers[mirror], k)])
        lo, counts = index.query_ranges(queries)
        counts = np.minimum(counts, index.max_occurrences)
        fwd_counts, rev_counts = counts[:sel_total], counts[sel_total:]
        fwd_total = np.bincount(sel_read, weights=fwd_counts,
                                minlength=n).astype(np.int64)
        rev_total = np.bincount(sel_read, weights=rev_counts,
                                minlength=n).astype(np.int64)
        use_rev = rev_total > fwd_total
        no_hit = (fwd_total + rev_total) == 0
        for i in np.nonzero(no_hit)[0]:
            results[i] = MappingResult(unmapped=True)
        st.no_anchor += int(no_hit.sum())
        oriented = np.where(use_rev[read_id], rev, fwd)

        # Expand the chosen orientation's anchors (grouped by read).
        sel_rev = use_rev[sel_read]
        ch_lo = np.where(sel_rev, lo[sel_total:], lo[:sel_total])
        ch_cnt = np.where(sel_rev, rev_counts, fwd_counts).astype(np.int64)
        total_anchors = int(ch_cnt.sum())
        if total_anchors == 0:
            return
        a_sel = np.repeat(np.arange(sel_total, dtype=np.int64), ch_cnt)
        slot = (np.arange(total_anchors, dtype=np.int64)
                - np.repeat(np.cumsum(ch_cnt) - ch_cnt, ch_cnt))
        a_cons = index.positions[ch_lo[a_sel] + slot]
        a_read = sel_read[a_sel]
        a_rpos = sel_local[a_sel]
        diagonal = a_cons - a_rpos

        anchors_per_read = np.bincount(a_read, minlength=n)
        with_anchors = np.nonzero(anchors_per_read > 0)[0]
        group_start = (np.cumsum(anchors_per_read)
                       - anchors_per_read)[with_anchors]
        start_of = np.zeros(n, dtype=np.int64)
        start_of[with_anchors] = group_start
        diag_min = np.minimum.reduceat(diagonal, group_start)
        diag_max = np.maximum.reduceat(diagonal, group_start)
        first_anchor = a_rpos[group_start]
        last_anchor = a_rpos[group_start
                             + anchors_per_read[with_anchors] - 1]

        read_len = lengths[with_anchors]
        single = ((diag_min == diag_max) & (diag_min >= 0)
                  & (diag_min + read_len <= cons.size))
        st.multi_diagonal += int((~single).sum())
        keep = np.nonzero(single)[0]
        if keep.size == 0:
            self._drain_anchored(results, st, oriented, offsets, lengths,
                                 use_rev, a_rpos, a_cons, start_of,
                                 anchors_per_read)
            return

        # Candidate arrays: one provisional placement per read.
        cand = with_anchors[keep]              # read index
        c_diag = diag_min[keep]
        c_a0 = first_anchor[keep]              # head length
        c_end = last_anchor[keep] + k          # read pos past last anchor
        c_len = read_len[keep]
        n_cand = cand.size
        st.candidates += n_cand

        # ---- stage 2: bit-parallel pre-alignment filter --------------
        width = int(c_len.max())
        if bool((lengths == lengths[0]).all()):
            rows = oriented.reshape(n, int(lengths[0]))[cand]
        else:
            span = np.minimum(np.arange(width, dtype=np.int64)[None, :],
                              (c_len - 1)[:, None])
            rows = oriented[offsets[cand][:, None] + span]
        packed = pack_bases(rows)
        masks = _byte_masks(c_len, packed.shape[1])
        h0 = _shd_counts(packed, masks, c_diag, self._cons_phases())
        threshold = cfg.unmapped_cost_fraction * c_len
        reject = h0 > threshold
        st.filter_rejected += int(reject.sum())
        accept = ~reject

        read_has_n = np.bincount(
            read_id, weights=(fwd == seq.N_CODE), minlength=n) > 0
        exact_zero = accept & (h0 == 0)
        if self._cons_has_n:
            # Packed N folds onto A, so a clean mask is not proof of a
            # clean window; route through exact verification instead.
            exact_zero &= False
        else:
            exact_zero &= ~read_has_n[cand]
        st.zero_mismatch += int(exact_zero.sum())
        for c in np.nonzero(exact_zero)[0]:
            r = int(cand[c])
            results[r] = MappingResult(
                segments=[MappedSegment(cons_start=int(c_diag[c]),
                                        read_start=0,
                                        read_end=int(c_len[c]))],
                reverse=bool(use_rev[r]))

        # ---- stage 3: exact vectorized verification ------------------
        verify = np.nonzero(accept & ~exact_zero)[0]
        if verify.size:
            self._verify_and_emit(verify, cand, c_diag, c_a0, c_end, c_len,
                                  oriented, offsets, use_rev, results, st)

        # ---- stage 4: everything unproven (multi-diagonal, filter
        # rejects, indel-bearing ends) is chained on the anchors already
        # expanded above and extended as one batch.
        self._drain_anchored(results, st, oriented, offsets, lengths,
                             use_rev, a_rpos, a_cons, start_of,
                             anchors_per_read)

    def _drain_anchored(self, results: list[MappingResult | None],
                        st: MapperStats, oriented: np.ndarray,
                        offsets: np.ndarray, lengths: np.ndarray,
                        use_rev: np.ndarray, a_rpos: np.ndarray,
                        a_cons: np.ndarray, start_of: np.ndarray,
                        anchors_per_read: np.ndarray) -> None:
        """Chain, extend and assemble the unproven reads of the block.

        Replays the tail of :meth:`ReadMapper.map_read` on the batch's
        anchors: the orientation is already chosen (same capped-hit-count
        comparison) and the anchors are already expanded in the exact
        order :meth:`KmerIndex.lookup` would emit them.  Every read is
        planned first, so the block's gap, head and tail alignments are
        solved in one :meth:`_solve_jobs` call.
        """
        ucf = self.config.unmapped_cost_fraction
        jobs: list[AlignmentJob] = []
        planned = []
        for r in range(len(results)):
            if results[r] is not None or anchors_per_read[r] == 0:
                continue
            s = int(start_of[r])
            e = s + int(anchors_per_read[r])
            hits = AnchorHits(a_rpos[s:e], a_cons[s:e])
            o = int(offsets[r])
            codes = oriented[o:o + int(lengths[r])]
            planned.append((r, self._plan_read(codes, hits, jobs)))
        solved = self._solve_jobs(jobs)
        for r, plan in planned:
            res = (self._assemble_read(plan, solved) if plan is not None
                   else None)
            if res is not None:
                res.reverse = bool(use_rev[r])
                mapped_len = max(1, int(lengths[r]) - res.clip_start.size
                                 - res.clip_end.size)
                if res.cost > ucf * mapped_len:
                    res = None
            results[r] = (res if res is not None
                          else MappingResult(unmapped=True))
            st.fallback += 1

    def _solve_jobs(self, jobs: list[AlignmentJob]) -> list[AlignmentResult]:
        """The batched solver (the one thing this kernel overrides of
        the chain/segment logic in :mod:`repro.mapping.mapper`)."""
        st = MapperStats()
        solved = solve_extension_jobs(jobs, st)
        self.stats.merge(st)
        GLOBAL_STATS.merge(st)
        return solved

    @staticmethod
    def _flat_kmers(flat: np.ndarray, k: int) -> np.ndarray:
        """``seq.kmer_codes`` over a concatenation of reads.

        Windows crossing read boundaries produce garbage values, but the
        strided query selection never samples those positions.
        """
        n_pos = flat.size - k + 1
        vals = np.zeros(n_pos, dtype=np.uint64)
        bad = np.zeros(n_pos, dtype=bool)
        for off in range(k):
            window = flat[off:off + n_pos]
            bad |= window == seq.N_CODE
            vals = (vals << np.uint64(2)) | window.astype(np.uint64)
        vals[bad] = np.uint64(1) << np.uint64(2 * k)
        return vals

    def _verify_and_emit(self, verify: np.ndarray, cand: np.ndarray,
                         c_diag: np.ndarray, c_a0: np.ndarray,
                         c_end: np.ndarray, c_len: np.ndarray,
                         oriented: np.ndarray, offsets: np.ndarray,
                         use_rev: np.ndarray,
                         results: list[MappingResult | None],
                         st: MapperStats) -> None:
        """Exactly verify filter survivors; emit or leave for fallback."""
        cfg = self.config
        cons = self.consensus
        n_ver = verify.size
        st.verified += n_ver
        v_read = cand[verify]
        v_diag = c_diag[verify]
        v_a0 = c_a0[verify]
        v_end = c_end[verify]
        v_len = c_len[verify]
        v_off = offsets[v_read]

        # Full-window compare at the candidate diagonal: exact mismatch
        # positions (oriented-read coordinates) grouped by candidate.
        flat_total = int(v_len.sum())
        row_of = np.repeat(np.arange(n_ver, dtype=np.int64), v_len)
        pos_in_read = (np.arange(flat_total, dtype=np.int64)
                       - np.repeat(np.cumsum(v_len) - v_len, v_len))
        mism = (oriented[v_off[row_of] + pos_in_read]
                != cons[v_diag[row_of] + pos_in_read])
        hit = np.nonzero(mism)[0]
        mm_row = row_of[hit]
        mm_pos = pos_in_read[hit]
        h_all = np.bincount(mm_row, minlength=n_ver)
        in_head = mm_pos < v_a0[mm_row]
        in_tail = mm_pos >= v_end[mm_row]
        h_head = np.bincount(mm_row[in_head], minlength=n_ver)
        h_tail = np.bincount(mm_row[in_tail], minlength=n_ver)
        h_mid = h_all - h_head - h_tail

        bad = np.zeros(n_ver, dtype=bool)  # provably-identical test failed
        slack = cfg.end_slack

        # Heads: cost 0 when the straight diagonal is clean; otherwise the
        # exact prefix_free_align optimum from the batched DP.
        head_cost = np.zeros(n_ver, dtype=np.int64)
        need_head = np.nonzero(h_head > 0)[0]
        if need_head.size:
            too_long = v_a0[need_head] > _VERIFY_CAP
            bad[need_head[too_long]] = True
            need_head = need_head[~too_long]
        if need_head.size:
            hn = v_a0[need_head]
            win_lo = np.maximum(0, v_diag[need_head] - slack)
            hm = hn + v_diag[need_head] - win_lo
            read_rows = self._gather_rows(oriented, v_off[need_head], 0,
                                          hn, pad=_READ_PAD)
            win_rows = self._gather_rows(cons, win_lo, 0, hm, pad=_CONS_PAD)
            last = _batched_last_rows(read_rows, hn, win_rows,
                                      free_start=True, stats=st)
            head_cost[need_head] = last[np.arange(need_head.size), hm]
        head_clip = ((cfg.clip_min_length <= v_a0)
                     & (v_a0 <= cfg.clip_max_length)
                     & (head_cost > cfg.clip_cost_fraction * v_a0))
        head_sub = head_cost == h_head
        bad |= ~head_clip & ~head_sub

        # Tails: suffix_free_align additionally requires the first argmin
        # of the last DP row to land exactly at the straight diagonal.
        tail_n = v_len - v_end
        tail_cost = np.zeros(n_ver, dtype=np.int64)
        tail_sub = np.ones(n_ver, dtype=bool)
        need_tail = np.nonzero(h_tail > 0)[0]
        if need_tail.size:
            too_long = tail_n[need_tail] > _VERIFY_CAP
            bad[need_tail[too_long]] = True
            need_tail = need_tail[~too_long]
        if need_tail.size:
            tn = tail_n[need_tail]
            win_start = v_end[need_tail] + v_diag[need_tail]
            tm = np.minimum(cons.size - win_start, tn + slack)
            read_rows = self._gather_rows(oriented, v_off[need_tail],
                                          v_end[need_tail], tn,
                                          pad=_READ_PAD)
            win_rows = self._gather_rows(cons, win_start, 0, tm,
                                         pad=_CONS_PAD)
            last = _batched_last_rows(read_rows, tn, win_rows,
                                      free_start=False, stats=st)
            col = np.arange(last.shape[1])[None, :]
            masked = np.where(col <= tm[:, None], last, np.iinfo(np.int32).max)
            arg = masked.argmin(axis=1)
            val = masked[np.arange(need_tail.size), arg]
            tail_cost[need_tail] = val
            tail_sub[need_tail] = (arg == tn) & (val == h_tail[need_tail])
        tail_clip = ((cfg.clip_min_length <= tail_n)
                     & (tail_n <= cfg.clip_max_length)
                     & (tail_cost > cfg.clip_cost_fraction * tail_n))
        bad |= ~tail_clip & ~tail_sub

        st.false_accepts += int(bad.sum())

        cost = (h_mid + np.where(head_clip, 0, head_cost)
                + np.where(tail_clip, 0, tail_cost))
        clip_s = np.where(head_clip, v_a0, 0)
        clip_e = np.where(tail_clip, tail_n, 0)
        mapped_len = np.maximum(1, v_len - clip_s - clip_e)
        unmapped = cost > cfg.unmapped_cost_fraction * mapped_len

        # ---- emission ------------------------------------------------
        mm_bounds = np.searchsorted(mm_row, np.arange(n_ver + 1))
        for v in np.nonzero(~bad)[0]:
            r = int(v_read[v])
            if unmapped[v]:
                results[r] = MappingResult(unmapped=True)
                continue
            length = int(v_len[v])
            a0 = int(v_a0[v])
            end = int(v_end[v])
            base = int(v_off[v])
            is_head_clip = bool(head_clip[v])
            is_tail_clip = bool(tail_clip[v])
            seg_lo = a0 if is_head_clip else 0
            seg_hi = end if is_tail_clip else length
            ops = []
            for p in mm_pos[mm_bounds[v]:mm_bounds[v + 1]]:
                p = int(p)
                if (is_head_clip and p < a0) or (is_tail_clip and p >= end):
                    continue
                ops.append(EditOp(SUB, p - seg_lo, 1,
                                  oriented[base + p:base + p + 1].copy()))
            res = MappingResult(
                segments=[MappedSegment(cons_start=int(v_diag[v]) + seg_lo,
                                        read_start=seg_lo,
                                        read_end=seg_hi, ops=ops)],
                reverse=bool(use_rev[r]), cost=int(cost[v]))
            if is_head_clip:
                res.clip_start = oriented[base:base + a0].copy()
            if is_tail_clip:
                res.clip_end = oriented[base + end:base + length].copy()
            results[r] = res

    @staticmethod
    def _gather_rows(flat: np.ndarray, starts: np.ndarray, extra,
                     lens: np.ndarray, pad: int) -> np.ndarray:
        """Pad variable-length slices ``flat[starts+extra :][:lens]`` into a
        2-D matrix; ``pad`` fills past each row's length."""
        width = int(lens.max())
        span = np.arange(width, dtype=np.int64)[None, :]
        begin = (starts + extra)[:, None]
        idx = begin + np.minimum(span, (lens - 1)[:, None])
        rows = flat[idx].astype(np.uint8, copy=True)
        rows[span >= lens[:, None]] = pad
        return rows


# ----------------------------------------------------------------------
# Mapper kernel registry
# ----------------------------------------------------------------------

_MAPPERS: dict[str, type[ReadMapper]] = {
    "python": ReadMapper,
    "numpy": BatchReadMapper,
}


def available_mappers() -> tuple[str, ...]:
    """Registered mapper kernel names, sorted."""
    return tuple(sorted(_MAPPERS))


def resolve_mapper(spec: str | None) -> str:
    """Resolve a mapper spec (``None``/``"auto"`` → env → default)."""
    if spec in (None, "auto"):
        spec = os.environ.get("SAGE_MAPPER", DEFAULT_MAPPER)
    if spec not in _MAPPERS:
        raise ValueError(f"unknown mapper {spec!r}; expected 'auto' or "
                         f"one of {available_mappers()}")
    return spec


def make_mapper(spec: str | None, consensus: np.ndarray,
                config: MapperConfig | None = None,
                index: KmerIndex | None = None) -> ReadMapper:
    """Build the mapper a spec resolves to (sharing ``index`` if given)."""
    return _MAPPERS[resolve_mapper(spec)](consensus, config, index)
