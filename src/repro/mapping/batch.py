"""Vectorized batched read mapper: seeding, exact window compare, batched DP.

:class:`~repro.mapping.mapper.ReadMapper` (the scalar reference) walks one
read at a time through seed–chain–extend; at short-read scale the per-read
Python and tiny-array numpy overhead dominates compression time (Fig. 18:
~98% of encode is mismatch finding).  :class:`BatchReadMapper` restructures
the same computation into structure-of-arrays passes over a whole block of
reads:

1. **Batched seeding** — the block arrives as its flat ``codes`` column
   and ``offsets``; 2-bit-packed k-mer codes are computed in one pass
   over it (``seq.kmer_codes``), the reverse-complement queries are the
   bit-reversed mirrored windows of the same pass, one
   ``KmerIndex.query_ranges`` call (a prefix-bucket table lookup)
   resolves every strided query against the consensus index, and
   per-read anchor diagonals reduce with
   ``np.minimum/maximum.reduceat``.
2. **Exact window compare** — every read whose anchors all sit on one
   diagonal is compared base for base with the consensus window at that
   diagonal (one ``(candidates × read length)`` compare; ``N`` against
   ``N`` is equal, as in the scalar DP).  A read with no mismatch is
   emitted as it stands, with no DP at all.
3. **Flank verification** — the other candidates' mismatch positions
   come from the same compare.  One loop over the two flanks (the head
   before the first anchor, the tail past the last) runs each flank
   with a mismatch through one batched (candidates × window)
   edit-distance DP, reproducing the exact
   ``prefix_free_align``/``suffix_free_align`` optima in place of one
   scalar alignment per read end.
4. **Batched extension** — every read stages 2–3 could not prove
   (multi-diagonal chains, indel-bearing ends, chimeric candidates:
   > 99 % of a long-read block) goes, in one call, through
   ``ReadMapper._extend``: the scalar mapper's own extension, run a
   block at a time.  ``ReadMapper._plan_block`` clusters, chains and
   cuts the block's anchors into segment plans as block arrays (one
   sort, one chain test per anchor pair, one flat compare for the
   equal-length gaps, Python steps only where a chain's greedy rule or
   a diagonal change needs one), collecting the block's gap, head and
   tail alignments into one job list.  :func:`solve_extension_jobs`
   solves it in bit-vector form (GenASM's argument, Senol Cali: a DP
   row and a traceback step are a few word operations, issued over
   many windows at once): each job whose consensus window fits 64 bits
   is one ``uint64`` lane, the lanes of a chunk advance together one
   numpy row step per read base, each keeping two words per row (its +1
   and -1 column steps), and are walked back together one cell per
   numpy step over those words (``alignment.trace_lanes``).  A job
   wider than 64 columns (4 % of a long-read block's) is solved as the
   scalar aligners solve it, on Python-int rows.  The solved jobs leave
   as one table of op columns, and ``ReadMapper._assemble`` copies the
   kept pieces' ops, shifted, into the reads' columns in one gather and
   holds the reads to the clip and unmapped rules.

Every stage writes the reads it maps straight into columns (a
:class:`~repro.mapping.mapper.Placed` part each), and the parts become
the block's :class:`~repro.mapping.mapper.MappedBlock` table once.  The
table is what leaves the mapper: there are no per-read objects, and its
consumers (the compressor's emitter, the analysis sinks, the pileup)
read its columns.

Byte-identity contract, in two halves.  Stages 2–3 emit a result
themselves only when they can prove the scalar mapper would produce the
identical mapping, and what they prove is one thing: that a flank's DP
optimum lies on the candidate's straight diagonal (it equals the
flank's Hamming cost, which pins the scalar traceback there).  Every
rule the answer then follows — which flank is a soft clip, which read
is unmapped, which consensus window a flank aligns in — is a
``ReadMapper`` method that takes arrays as well as scalars
(``_soft_clipped``, ``_unmapped``, ``_flank_windows``), called here and
by the scalar mapper alike.  For everything else there is nothing to
prove: stage 4 is ``ReadMapper._extend`` itself, and
:class:`BatchReadMapper` overrides only its job solver, which runs the
scalar aligners' own recurrence (``alignment.row_step``, in lanes) and
their own traceback rule and tie-breaks (``alignment.trace_ops``, one
job at a time, or ``alignment.trace_lanes``, a chunk of lanes at once)
over each job's row words — so archives are byte-identical between
``SAGeConfig(mapper_kernel="python")`` and ``mapper_kernel="numpy"``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..genomics import sequence as seq
from ..genomics.reads import run_index
from .alignment import (SUB, SolvedJobs, _align, dp_last_rows,
                        trace_lanes)
from .kmer_index import KmerIndex
from .mapper import (AlignmentJob, MappedBlock, MapperConfig, Placed,
                     ReadMapper, block_columns)

#: The mapper of ``SAGeConfig()`` and of every analysis consumer.
DEFAULT_MAPPER = "numpy"

#: Heads/tails longer than this go to stage 4 instead of the batched
#: verification DP.  Each flank's candidates share one padded DP plane:
#: on flanks this short the plane's row steps cost more than its padded
#: cells, so splitting them by shape is slower.
_VERIFY_CAP = 128

#: Widest consensus window an extension job may have to run as a lane
#: (one ``uint64`` word per row step).
_LANE_BITS = 64

#: Most bytes of row words one chunk of lanes may store (two 8-byte
#: words per DP row of each lane, all a traceback needs); a fuller
#: chunk is split, down to one lane.
_LANE_CHUNK_BYTES = 1 << 21

#: Fill past the end of a padded read / consensus row: never equal to
#: each other or to a base code (``N_CODE`` included).
_READ_PAD, _CONS_PAD = 255, 254


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

@dataclass
class MapperStats:
    """Counters of the batched mapper's stages."""

    reads: int = 0              # reads presented to map_batch
    batches: int = 0            # map_batch calls
    verified: int = 0           # candidates with a mismatch, sent to stage 3
    fallback: int = 0           # reads left to the scalar chain rules
    dp_cells: int = 0           # stage-3 DP cells computed, padding included
    extension_jobs: int = 0     # gap/head/tail alignments solved batched
    extension_cells: int = 0    # their real (read x consensus) DP cells

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    @property
    def fast_path(self) -> int:
        """Reads stages 1-3 settled (mapped or unmapped)."""
        return self.reads - self.fallback

    @property
    def fast_path_fraction(self) -> float:
        return self.fast_path / self.reads if self.reads else 0.0


#: The mapper's one counter, process-wide: every batch of every
#: :class:`BatchReadMapper` adds to it (``bench/`` reads it; workers=1
#: only — process-pool workers accumulate into their own copy).
GLOBAL_STATS = MapperStats()


def reset_stats() -> None:
    """Zero the process-wide mapper statistics."""
    GLOBAL_STATS.reset()


# ----------------------------------------------------------------------
# Block primitives
# ----------------------------------------------------------------------

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


def _oriented(codes: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
              reverse: np.ndarray) -> np.ndarray:
    """The block's codes with each ``reverse`` read reverse-complemented
    in place of its forward bases (the other reads are copied as is)."""
    out = codes.copy()
    if bool((lengths == lengths[0]).all()):
        rows = out.reshape(lengths.size, int(lengths[0]))
        rows[reverse] = seq.COMPLEMENT[rows[reverse, ::-1]]
        return out
    at = run_index(starts[reverse], lengths[reverse])
    mirror = np.repeat(2 * starts[reverse] + lengths[reverse] - 1,
                       lengths[reverse]) - at
    out[at] = seq.COMPLEMENT[codes[mirror]]
    return out


def _substitution_reads(rows, reverse, cons_start, read_start, read_end,
                        cost=0, clip_s=0, clip_e=0, mm_seg=(),
                        mm_pos=()) -> Placed:
    """Reads placed as one segment each, whose edit ops are the
    substitutions at segment-local ``mm_pos`` of segments ``mm_seg``
    (ascending)."""
    m = rows.size
    mm_seg = np.asarray(mm_seg, dtype=np.int64)

    def per_read(value):
        return np.broadcast_to(np.asarray(value, dtype=np.int64), (m,))

    return Placed(rows, reverse, per_read(cost), per_read(clip_s),
                  per_read(clip_e), per_read(1), per_read(cons_start),
                  per_read(read_start), per_read(read_end),
                  np.bincount(mm_seg, minlength=m),
                  np.full(mm_seg.size, SUB, dtype=np.int8),
                  np.asarray(mm_pos, dtype=np.int64),
                  np.ones(mm_seg.size, dtype=np.int64))


# ----------------------------------------------------------------------
# Batched extension: bit-vector lanes
# ----------------------------------------------------------------------

def solve_extension_jobs(jobs: list[AlignmentJob],
                         stats: MapperStats) -> SolvedJobs:
    """Every job's ``global`` / ``prefix_free`` / ``suffix_free_align``
    result, as one table, from the aligners' own bit-vector recurrence
    (:func:`~repro.mapping.alignment.row_step`) and traceback rule.

    A job whose consensus window fits one ``uint64`` word is a lane:
    lanes sorted by read length advance together, one numpy row step
    per read base, in chunks whose stored row words stay within
    ``_LANE_CHUNK_BYTES`` (a chunk holds at least one lane), and each
    chunk is walked back at once
    (:func:`~repro.mapping.alignment.trace_lanes`).  A wider job is
    solved as the scalar aligners solve it
    (:func:`~repro.mapping.alignment._align`), one job at a time.
    """
    n = np.array([job.read_seg.size for job in jobs], dtype=np.int64)
    m = np.array([job.cons_seg.size for job in jobs], dtype=np.int64)
    stats.extension_jobs += len(jobs)
    stats.extension_cells += int((n * m).sum())

    wide = np.flatnonzero(m > _LANE_BITS)
    parts = [(wide, SolvedJobs.of([
        _align(jobs[j].read_seg, jobs[j].cons_seg,
               jobs[j].flavour == "prefix_free",
               jobs[j].flavour == "suffix_free") for j in wide.tolist()]))]
    lanes = np.flatnonzero(m <= _LANE_BITS)
    lanes = lanes[np.argsort(-n[lanes], kind="stable")]
    # Greedy chunks: a chunk takes lanes while their row words (two
    # 8-byte words per row, n + 1 rows) fit under the cap.
    words = 16 * (n[lanes] + 1)
    after = np.cumsum(words)
    lo = 0
    while lo < lanes.size:
        hi = max(lo + 1, int(np.searchsorted(
            after, after[lo] - words[lo] + _LANE_CHUNK_BYTES, side="right")))
        which = lanes[lo:hi]
        parts.append((which, _solve_lanes([jobs[j] for j in which.tolist()],
                                          which, n[which], m[which])))
        lo = hi
    # One table: each part's per-job columns put at its jobs, its op
    # ranges shifted past the ops of the parts before it.
    per_job, per_op = SolvedJobs._fields[:5], SolvedJobs._fields[5:]
    columns = {name: np.zeros(len(jobs), dtype=np.int64) for name in per_job}
    shift = 0
    for which, part in parts:
        for name in per_job:
            columns[name][which] = getattr(part, name)
        columns["op_lo"][which] += shift
        shift += part.kind.size
    return SolvedJobs(**columns, **{
        name: np.concatenate([getattr(part, name) for _, part in parts])
        for name in per_op})


def _solve_lanes(jobs: list[AlignmentJob], which: np.ndarray, n: np.ndarray,
                 m: np.ndarray) -> SolvedJobs:
    """Solve one chunk of lanes (``which`` their job indices, ``n`` their
    read lengths, descending, ``m`` their window widths, at most 64):
    their table, lane after lane, laid out as
    :func:`~repro.mapping.alignment.trace_lanes` takes them."""
    k = len(jobs)
    start = np.zeros(k, dtype=np.int64)
    np.cumsum(n[:-1] + 1, out=start[1:])
    reads = np.zeros(int(start[-1] + n[-1] + 1), dtype=np.uint8)
    reads[run_index(start + 1, n)] = np.concatenate(
        [job.read_seg for job in jobs])
    cons_rows = np.full((k, _LANE_BITS), _CONS_PAD, dtype=np.uint8)
    cons_rows.reshape(-1)[run_index(np.arange(k) * _LANE_BITS, m)] = \
        np.concatenate([job.cons_seg for job in jobs])
    free_start, free_end = (np.array([job.flavour == flavour for job in jobs])
                            for flavour in ("prefix_free", "suffix_free"))
    return trace_lanes(reads, cons_rows, n, m, free_start, free_end)


# ----------------------------------------------------------------------
# The batched mapper
# ----------------------------------------------------------------------

class BatchReadMapper(ReadMapper):
    """Block-at-a-time mapper; byte-identical to :class:`ReadMapper`.

    ``map_batch`` runs the vectorized pipeline described in the module
    docstring.  The rules and the extension are inherited unchanged;
    reads outside the provable fast path go through
    :meth:`ReadMapper._extend`, and only the alignments it leaves open
    are solved here (:meth:`_solve_jobs`).
    """

    # -- public API ----------------------------------------------------

    def map_batch(self, codes, offsets=None) -> MappedBlock:
        codes, offsets = block_columns(codes, offsets)
        GLOBAL_STATS.reads += offsets.size - 1
        GLOBAL_STATS.batches += 1
        return MappedBlock.assemble(codes, offsets,
                                    self._map_block(codes, offsets))

    # -- pipeline ------------------------------------------------------

    def _map_block(self, fwd: np.ndarray, bounds: np.ndarray) -> list[Placed]:
        """The mapped reads of the block (``fwd`` / ``bounds``: its codes
        and offsets), one part per stage that placed them; every read
        no part places is unmapped."""
        cfg = self.config
        k = cfg.k
        n = bounds.size - 1
        cons = self.consensus
        index = self.index
        offsets, lengths = bounds[:-1], np.diff(bounds)
        if fwd.size < k or len(index) == 0:
            return []

        # ---- stage 1: batched seeding --------------------------------
        fwd_kmers = seq.kmer_codes(fwd, k)

        # Strided query positions, restarting at each read boundary
        # (identical to the scalar lookup's kmers[::stride]).
        n_kmers = np.maximum(lengths - k + 1, 0)
        n_sel = (n_kmers + cfg.stride - 1) // cfg.stride
        sel_total = int(n_sel.sum())
        if sel_total == 0:
            return []
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
        oriented = _oriented(fwd, offsets, lengths, use_rev)

        # Expand the chosen orientation's anchors (grouped by read).
        sel_rev = use_rev[sel_read]
        ch_lo = np.where(sel_rev, lo[sel_total:], lo[:sel_total])
        ch_cnt = np.where(sel_rev, rev_counts, fwd_counts).astype(np.int64)
        if not ch_cnt.any():
            return []
        a_sel = np.repeat(np.arange(sel_total, dtype=np.int64), ch_cnt)
        a_cons = index.hit_positions(ch_lo, ch_cnt)
        a_read = sel_read[a_sel]
        a_rpos = sel_local[a_sel]
        diagonal = a_cons - a_rpos

        anchors_per_read = np.bincount(a_read, minlength=n)
        with_anchors = np.nonzero(anchors_per_read > 0)[0]
        group_start = (np.cumsum(anchors_per_read)
                       - anchors_per_read)[with_anchors]
        diag_min = np.minimum.reduceat(diagonal, group_start)
        diag_max = np.maximum.reduceat(diagonal, group_start)
        first_anchor = a_rpos[group_start]
        last_anchor = a_rpos[group_start
                             + anchors_per_read[with_anchors] - 1]

        read_len = lengths[with_anchors]
        single = ((diag_min == diag_max) & (diag_min >= 0)
                  & (diag_min + read_len <= cons.size))
        keep = np.nonzero(single)[0]
        # Reads whose answer stages 2-3 settle (mapped or unmapped).
        settled = np.zeros(n, dtype=bool)
        if keep.size == 0:
            return [self._drain_anchored(settled, oriented, offsets, lengths,
                                         use_rev, a_read, a_rpos, a_cons)]

        # Candidate arrays: one provisional placement per read.
        cand = with_anchors[keep]              # read index
        c_diag = diag_min[keep]
        c_a0 = first_anchor[keep]              # head length
        c_end = last_anchor[keep] + k          # read pos past last anchor
        c_len = read_len[keep]

        # ---- stage 2: exact window compare ---------------------------
        # ``single`` keeps every window inside the consensus.
        if bool((lengths == lengths[0]).all()):
            width = int(lengths[0])
            mism = (oriented.reshape(n, width)[cand]
                    != np.lib.stride_tricks.sliding_window_view(
                        cons, width)[c_diag])
        else:
            span = np.arange(int(c_len.max()), dtype=np.int64)[None, :]
            at = np.minimum(span, (c_len - 1)[:, None])
            mism = ((oriented[offsets[cand][:, None] + at]
                     != cons[c_diag[:, None] + at])
                    & (span < c_len[:, None]))
        clean = ~mism.any(axis=1)
        zero = np.flatnonzero(clean)
        settled[cand[zero]] = True
        parts = [_substitution_reads(
            cand[zero], use_rev[cand[zero]], c_diag[zero], 0, c_len[zero])]

        # ---- stage 3: exact vectorized verification ------------------
        verify = np.flatnonzero(~clean)
        if verify.size:
            mm_row, mm_pos = np.nonzero(mism[verify])
            parts.append(self._verify_and_emit(
                verify, mm_row, mm_pos, cand, c_diag, c_a0, c_end, c_len,
                oriented, offsets, use_rev, settled))

        # ---- stage 4: everything unproven (multi-diagonal,
        # indel-bearing ends) is chained on the anchors already expanded
        # above and extended as one batch.
        parts.append(self._drain_anchored(
            settled, oriented, offsets, lengths, use_rev, a_read, a_rpos,
            a_cons))
        return parts

    def _drain_anchored(self, settled: np.ndarray,
                        oriented: np.ndarray, offsets: np.ndarray,
                        lengths: np.ndarray, use_rev: np.ndarray,
                        a_read: np.ndarray, a_rpos: np.ndarray,
                        a_cons: np.ndarray) -> Placed:
        """Stage 4: the anchored reads stages 2-3 did not settle, taken
        through the scalar mapper's own extension
        (:meth:`ReadMapper._extend`) in one call; the part holds those
        that map.  Their orientation is already chosen (the same
        capped-hit-count comparison) and their anchors are already
        expanded, grouped by read, in the order :meth:`KmerIndex.lookup`
        would emit them."""
        open_ = ~settled[a_read]
        rows = np.unique(a_read[open_])
        GLOBAL_STATS.fallback += rows.size
        part = self._extend(oriented, offsets[rows], lengths[rows],
                            use_rev[rows],
                            np.searchsorted(rows, a_read[open_]),
                            a_rpos[open_], a_cons[open_])
        return part._replace(rows=rows[part.rows])

    def _solve_jobs(self, jobs: list[AlignmentJob]) -> SolvedJobs:
        """The batched solver (the one thing this kernel overrides of
        the chain/segment logic in :mod:`repro.mapping.mapper`)."""
        return solve_extension_jobs(jobs, GLOBAL_STATS)

    def _verify_and_emit(self, verify: np.ndarray, mm_row: np.ndarray,
                         mm_pos: np.ndarray, cand: np.ndarray,
                         c_diag: np.ndarray, c_a0: np.ndarray,
                         c_end: np.ndarray, c_len: np.ndarray,
                         oriented: np.ndarray, offsets: np.ndarray,
                         use_rev: np.ndarray,
                         settled: np.ndarray) -> Placed:
        """Exactly verify the candidates ``verify`` (with mismatches at
        read positions ``mm_pos`` of rows ``mm_row``, ascending): the
        reads they prove mapped (those proven unmapped are only
        ``settled``); the rest are left for stage 4.

        A candidate is one segment on one diagonal.  What stage 3 proves
        of each flank (the head before its first anchor, the tail past
        its last) is that the scalar aligner's optimum lies on that
        diagonal — it costs exactly the flank's substitutions and, for a
        tail, its first minimum ends where the flank's bases do — or
        that the flank is clipped.  The clip, unmapped and window rules
        are the scalar mapper's own methods."""
        cons = self.consensus
        n_ver = verify.size
        GLOBAL_STATS.verified += n_ver
        v_read = cand[verify]
        v_diag = c_diag[verify]
        v_a0 = c_a0[verify]
        v_end = c_end[verify]
        v_len = c_len[verify]
        v_off = offsets[v_read]
        tail_n = v_len - v_end
        head_lo, tail_hi = self._flank_windows(v_diag + v_a0, v_a0,
                                               v_diag + v_end, tail_n)
        in_head = mm_pos < v_a0[mm_row]
        in_tail = mm_pos >= v_end[mm_row]
        # Between the anchors a candidate's cost is its substitutions.
        cost = np.bincount(mm_row[~in_head & ~in_tail], minlength=n_ver)
        bad = np.zeros(n_ver, dtype=bool)  # provably-identical test failed
        clips = []
        # Per flank: its read offset and length, its mismatches, its
        # consensus window, and whether it is a head (prefix_free: it
        # ends in the window's last column) or a tail (suffix_free: it
        # ends at the first minimum of its last row).
        for at, n, in_flank, lo, hi, head in (
                (0, v_a0, in_head, head_lo, v_diag + v_a0, True),
                (v_end, tail_n, in_tail, v_diag + v_end, tail_hi, False)):
            subs = np.bincount(mm_row[in_flank], minlength=n_ver)
            flank_cost = np.zeros(n_ver, dtype=np.int64)
            straight = np.ones(n_ver, dtype=bool)
            need = np.flatnonzero(subs > 0)
            bad[need[n[need] > _VERIFY_CAP]] = True
            need = need[n[need] <= _VERIFY_CAP]
            if need.size:
                fn, m = n[need], (hi - lo)[need]
                read_rows = self._gather_rows(oriented, (v_off + at)[need],
                                              fn, _READ_PAD)
                win_rows = self._gather_rows(cons, lo[need], m, _CONS_PAD)
                GLOBAL_STATS.dp_cells += read_rows.size \
                    * (win_rows.shape[1] + 1)
                last = dp_last_rows(read_rows, fn, win_rows, head)
                if head:
                    end = straight_end = m
                else:
                    own = np.arange(last.shape[1])[None, :] <= m[:, None]
                    end = np.where(own, last, np.iinfo(last.dtype).max) \
                        .argmin(axis=1)
                    straight_end = fn
                flank_cost[need] = last[np.arange(need.size), end]
                straight[need] = (end == straight_end) \
                    & (flank_cost[need] == subs[need])
            clip = self._soft_clipped(n, flank_cost)
            bad |= ~clip & ~straight
            cost += np.where(clip, 0, flank_cost)
            clips.append(np.where(clip, n, 0))
        clip_s, clip_e = clips
        unmapped = self._unmapped(cost, v_len, clip_s, clip_e)

        # ---- emission: one segment per mapped read; its mismatches
        # outside the clips are its substitutions ----------------------
        settled[v_read[~bad]] = True
        mapped = ~bad & ~unmapped
        seg_lo, seg_hi = clip_s, v_len - clip_e
        inside = (mapped[mm_row] & (mm_pos >= seg_lo[mm_row])
                  & (mm_pos < seg_hi[mm_row]))
        mm_row, mm_pos = mm_row[inside], mm_pos[inside]
        rank = np.cumsum(mapped) - 1
        e = np.flatnonzero(mapped)
        return _substitution_reads(
            v_read[e], use_rev[v_read[e]], v_diag[e] + seg_lo[e], seg_lo[e],
            seg_hi[e], cost[e], clip_s[e], clip_e[e], rank[mm_row],
            mm_pos - seg_lo[mm_row])

    @staticmethod
    def _gather_rows(flat: np.ndarray, starts: np.ndarray, lens: np.ndarray,
                     pad: int) -> np.ndarray:
        """Pad variable-length slices ``flat[starts:][:lens]`` into a 2-D
        matrix; ``pad`` fills past each row's length."""
        width = int(lens.max())
        span = np.arange(width, dtype=np.int64)[None, :]
        idx = starts[:, None] + np.minimum(span, (lens - 1)[:, None])
        rows = flat[idx].astype(np.uint8, copy=True)
        rows[span >= lens[:, None]] = pad
        return rows


# ----------------------------------------------------------------------
# The two mapper kernels
# ----------------------------------------------------------------------

_MAPPERS: dict[str, type[ReadMapper]] = {
    "python": ReadMapper,
    "numpy": BatchReadMapper,
}


def available_mappers() -> tuple[str, ...]:
    """The mapper kernel names, sorted."""
    return tuple(sorted(_MAPPERS))


def resolve_mapper(name: str | None) -> str:
    """A mapper kernel name, checked (``None`` is :data:`DEFAULT_MAPPER`)."""
    name = DEFAULT_MAPPER if name is None else name
    if name not in _MAPPERS:
        raise ValueError(f"unknown mapper {name!r}; expected one of "
                         f"{available_mappers()}")
    return name


def make_mapper(name: str, consensus: np.ndarray,
                config: MapperConfig | None = None,
                index: KmerIndex | None = None) -> ReadMapper:
    """Build the mapper kernel called ``name`` (sharing ``index`` if
    given)."""
    return _MAPPERS[resolve_mapper(name)](consensus, config, index)
