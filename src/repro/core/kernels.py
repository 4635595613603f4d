"""Codec kernel layer: interchangeable block *decode* strategies.

SAGe compresses a read set once, offline, and spends its design on the
decode side — the Scan Unit / Read Construction Unit walk (§5.1–5.2) is
the data-preparation path.  A kernel here is what that hardware is: a
way to turn one block's streams back into reads.  The encoder has no
kernel; :class:`~repro.core.compressor.SAGeCompressor` writes every
stream through :class:`~repro.core.bitio.BitWriter`, so the format is
stated by one writer and the kernels only change the read schedule.

Two kernels are registered:

``python``
    The reference bit-serial path: the sequential
    :meth:`SAGeDecompressor.iter_read_codes` walk over
    :class:`~repro.core.bitio.BitReader` fields.

``numpy``
    The vectorized path.  It runs a vectorized unary-prefix scan over
    the matching-position guide array (``np.unpackbits`` + zero-run
    detection) to classify every entry at once, gathers the
    variable-width position fields in one pass (:func:`gather_fields`),
    walks the interleaved mismatch streams over precomputed 64-bit
    windows and next-zero indexes (one list lookup per field), and
    reconstructs all substitution-only reads with a single consensus
    gather + mismatch scatter.  The side streams a read touches at most
    a few times — ``lengths``, ``corner``, ``side``, ``unmapped`` — go
    through the same :class:`~repro.core.bitio.BitReader` as the
    reference walk.

Both kernels decode identical reads from the same bytes for every
configuration — asserted in ``tests/test_core_kernels.py`` — so the
codec is a pure-speed knob, chosen once per decoder:
:class:`repro.api.EngineOptions` ``codec`` reaches
``SAGeDecompressor(codec=)``, which keeps the kernel it resolved for
life, with ``auto`` deferring to env ``SAGE_CODEC``.

Adding a kernel: subclass :class:`CodecKernel`, implement
``decode_reads`` (archive block → ``(codes, offsets)``: every read's
base codes in one flat ``uint8`` buffer in emission order, read ``i``
at ``codes[offsets[i]:offsets[i + 1]]``), then :func:`register_kernel`
it.  The flat buffer becomes the ``codes`` column of the block's
:class:`~repro.genomics.reads.ReadSet` as is — no kernel hands out
per-read arrays.  Identical output is what keeps kernels freely
interchangeable mid-pipeline.
"""

from __future__ import annotations

import os

import numpy as np

from ..genomics import sequence as seq
from ..genomics.reads import run_index
from .bitio import BitIOError, BitReader
from .compressor import INDEL_LENGTH_BITS, RAW_COUNT_BITS
from .errors import CorruptArchiveError, DecompressionError
from .formats import read_corner_payload, read_unmapped
from .mismatch import INDEL_INS, TYPE_DEL, TYPE_INS, TYPE_SUB

__all__ = ["CodecKernel", "DEFAULT_CODEC", "NumpyKernel", "PythonKernel",
           "available_kernels", "gather_fields", "get_kernel",
           "register_kernel", "resolve_codec", "resolve_kernel"]

#: Codec used when neither the options nor ``SAGE_CODEC`` select one.
DEFAULT_CODEC = "numpy"

_EMPTY_U8 = np.empty(0, dtype=np.uint8)


# ----------------------------------------------------------------------
# Batched bit gathering primitives
# ----------------------------------------------------------------------


def gather_fields(stream: tuple[bytes, int], offsets, widths, *,
                  name: str = "") -> np.ndarray:
    """Extract many big-endian fields from one stream in one pass.

    ``stream`` is a ``(payload, bit_length)`` pair; ``offsets[i]`` /
    ``widths[i]`` locate each field in bits.  Every field is read
    through a 64-bit window gathered per offset, so the whole batch
    costs a handful of vectorized passes.  Fields must be at most 63
    bits wide (the format's :data:`~repro.core.prefix_codes.MAX_WIDTH`).
    """
    payload, bit_length = stream
    offsets = np.asarray(offsets, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
    if offsets.size == 0:
        return np.empty(0, dtype=np.int64)
    if int((offsets + widths).max()) > bit_length:
        raise BitIOError(
            f"{name or 'bit stream'}: field gather past end "
            f"(stream is {bit_length} bits)")
    data = np.frombuffer(payload, dtype=np.uint8)
    ext = np.concatenate([data, np.zeros(9, dtype=np.uint8)])
    byte = offsets >> 3
    window = np.zeros(offsets.size, dtype=np.uint64)
    for k in range(8):
        window = (window << np.uint64(8)) | ext[byte + k]
    off = (offsets & 7).astype(np.uint64)
    w = widths.astype(np.uint64)
    shifted = window << off                      # drops the leading bits
    vals = shifted >> (np.uint64(64) - np.maximum(w, np.uint64(1)))
    need = off + w
    over = need > np.uint64(64)
    if over.any():
        extra = ext[byte[over] + 8].astype(np.uint64)
        vals[over] |= extra >> (np.uint64(72) - need[over])
    return np.where(w > 0, vals, np.uint64(0)).astype(np.int64)


def _stream_words(blk, name: str):
    """``(w64, bit_length)`` window view of one stream.

    ``w64[i]`` is the 64-bit big-endian window starting at byte ``i`` of
    the stream zero-padded by 8 bytes, as plain Python ints: any field of
    up to 56 bits is one list lookup plus a shift/mask — the innermost
    primitive of the skeleton walk, with no per-call method dispatch.
    """
    payload, bits = blk.streams[name]
    data = np.frombuffer(payload, dtype=np.uint8)
    ext = np.concatenate([data, np.zeros(8, dtype=np.uint8)])
    window = np.zeros(len(data) + 1, dtype=np.uint64)
    for k in range(8):
        window = (window << np.uint64(8)) | ext[k:k + len(window)]
    return window.tolist(), bits


def _next_zero_list(blk, name: str, limit: int) -> list[int]:
    """Per-bit next-zero index of one stream (the vectorized unary-prefix
    scan): one ``np.unpackbits`` pass plus a reversed minimum-accumulate
    turns every unary read into a single lookup; positions whose run
    never terminates map to ``limit``."""
    payload, _bits = blk.streams[name]
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))[:limit]
    idx = np.arange(limit, dtype=np.int64)
    nz = np.where(bits == 0, idx, np.int64(limit))
    return np.minimum.accumulate(nz[::-1])[::-1].tolist()


# ----------------------------------------------------------------------
# Batched decode (numpy kernel)
# ----------------------------------------------------------------------


def _matching_positions(arch, blk, n_mapped: int) -> np.ndarray:
    """All matching positions in one pass over the mpga/mpa streams.

    With reordering, the guide array is a pure run of unary class codes:
    one ``np.unpackbits`` scan classifies every read's delta at once and
    the variable-width deltas are gathered in a single pass.
    """
    if not arch.level.reorder:
        w_cons = arch.w_cons
        offsets = np.arange(n_mapped, dtype=np.int64) * w_cons
        widths = np.full(n_mapped, w_cons, dtype=np.int64)
        return gather_fields(blk.streams["mpa"], offsets, widths,
                             name="mpa")
    table = blk.tables["mp"]
    payload, bits = blk.streams["mpga"]
    bitarr = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))[:bits]
    zeros = np.nonzero(bitarr == 0)[0]
    if zeros.size < n_mapped:
        raise BitIOError(
            f"mpga: unary scan past end (stream is {bits} bits, "
            f"{zeros.size} codes for {n_mapped} reads)")
    z = zeros[:n_mapped].astype(np.int64)
    class_idx = np.diff(z, prepend=np.int64(-1)) - 1
    n_classes = len(table.widths)
    if (class_idx >= n_classes).any():
        bad = int(class_idx[class_idx >= n_classes][0])
        raise CorruptArchiveError(f"guide stream names class {bad}, "
                                  f"but table has {n_classes}")
    widths = table.widths_np[class_idx]
    offsets = np.cumsum(widths) - widths
    deltas = gather_fields(blk.streams["mpa"], offsets, widths,
                           name="mpa")
    return np.cumsum(deltas)


def _past(name: str, nbits: int, pos: int, limit: int) -> BitIOError:
    return BitIOError(
        f"{name}: read of {nbits} bits past end at bit {pos} "
        f"(stream is {limit} bits)")


def _bad_class(idx: int, n_classes: int) -> CorruptArchiveError:
    return CorruptArchiveError(f"guide stream names class {idx}, "
                               f"but table has {n_classes}")


def _flatten(reads: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-read code arrays as one ``(codes, offsets)`` flat buffer."""
    offsets = np.zeros(len(reads) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([read.size for read in reads], dtype=np.int64)
    return (np.concatenate(reads) if reads else _EMPTY_U8), offsets


def _decode_reads_batched(dec, index: int
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Decode every read of block ``index`` through the numpy kernel.

    Same reads (and emission order) as
    ``SAGeDecompressor.iter_read_codes(index=index)``, written into one
    flat buffer by structure-of-arrays passes:

    1. one vectorized unary-prefix scan + field gather classifies every
       matching position (:func:`_matching_positions`) and read length;
    2. a skeleton walk over the interleaved mmpga/mmpa/mbta streams
       records mismatch events without reconstructing — every field is
       an O(1) window lookup on precomputed ``w64``/next-zero views;
    3. all substitution-only reads are rebuilt with a single consensus
       gather + mismatch scatter (reverse-strand rows gather backwards
       and are complemented in the same buffer); indel/chimeric/corner
       reads take a per-read scalar fallback into their slice.
    """
    arch = dec.archive
    block = arch.block(index)
    level = arch.level
    tuned = level.tuned_mismatch
    if tuned:
        count_widths = block.tables["count"].widths
        mmp_widths = block.tables["mmp"].widths
    else:
        count_widths = mmp_widths = ()
    indel_table = block.tables.get("indel")
    indel_widths = indel_table.widths if indel_table is not None else ()
    w_rlen = block.w_rlen
    w_cons = arch.w_cons
    if max((w_rlen, *count_widths, *mmp_widths, *indel_widths)) > 56:
        # Adversarially wide field classes would overflow the single
        # 64-bit window; such tables never occur in practice — stay on
        # the reference walk rather than complicate the hot loop.
        return _flatten(list(dec.iter_read_codes(index=index)))

    cons = dec.consensus
    cons_size = int(cons.size)
    n_mapped = block.n_mapped

    # --- pass 1a: per-read lengths (dedicated stream) ---
    if block.fixed_length:
        lengths = None
    else:
        table = block.tables["len"]
        widths = table.widths
        n_classes = len(widths)
        lr = BitReader(*block.streams["lengths"], name="lengths")
        lengths = [0] * n_mapped
        for i in range(n_mapped):
            idx = lr.read_unary()
            if idx >= n_classes:
                raise _bad_class(idx, n_classes)
            lengths[i] = lr.read(widths[idx])

    # --- pass 1b: vectorized matching positions ---
    fc_arr = _matching_positions(arch, block, n_mapped) if n_mapped \
        else np.empty(0, dtype=np.int64)
    first_cons = fc_arr.tolist()

    # --- pass 2: skeleton walk (classify entries, no reconstruction) ---
    b_w64, b_lim = _stream_words(block, "mbta")
    g_w64, g_lim = _stream_words(block, "mmpga")
    a_w64, a_lim = _stream_words(block, "mmpa")
    g_nz = _next_zero_list(block, "mmpga", g_lim)
    b_pos = g_pos = a_pos = 0

    corner = BitReader(*block.streams["corner"], name="corner")
    side = BitReader(*block.streams["side"], name="side") \
        if (level.chimeric and block.long_reads) else None
    type_inf = level.type_inference
    indel_blocks = level.indel_blocks
    corner_marker = level.corner_marker
    raw_bits = RAW_COUNT_BITS
    raw_mask = (1 << RAW_COUNT_BITS) - 1
    indel_len_mask = (1 << INDEL_LENGTH_BITS) - 1
    n_count = len(count_widths)
    n_mmp = len(mmp_widths)
    n_indel = len(indel_widths)
    count_masks = tuple((1 << w) - 1 for w in count_widths)
    mmp_masks = tuple((1 << w) - 1 for w in mmp_widths)
    indel_masks = tuple((1 << w) - 1 for w in indel_widths)
    w_rlen_mask = (1 << w_rlen) - 1
    fixed_len = block.fixed_read_length

    simple_idx: list[int] = []        # read index per simple row
    simple_rev: list[int] = []        # parallel: reverse flag per row
    sub_row: list[int] = []           # scatter coordinates (simple rows)
    sub_pos: list[int] = []
    sub_base: list[int] = []
    complex_recs: list[tuple] = []

    for i in range(n_mapped):
        length = fixed_len if lengths is None else lengths[i]
        if b_pos >= b_lim:
            raise _past("mbta", 1, b_pos, b_lim)
        reverse = (b_w64[b_pos >> 3] >> (63 - (b_pos & 7))) & 1
        b_pos += 1
        fc = first_cons[i]
        segments = None                   # None => single segment at fc
        if side is not None and side.read(1):
            segments = [(0, fc)]
            for _ in range(side.read(2)):
                core_start = side.read(w_rlen)
                cons_start = side.read(w_cons)
                segments.append((core_start, cons_start))

        # mismatch count
        if tuned:
            if g_pos >= g_lim:
                raise _past("mmpga", 1, g_pos, g_lim)
            z = g_nz[g_pos]
            if z >= g_lim:
                raise _past("mmpga", 1, g_lim, g_lim)
            cidx = z - g_pos
            if cidx >= n_count:
                raise _bad_class(cidx, n_count)
            g_pos = z + 1
            w = count_widths[cidx]
            if g_pos + w > g_lim:
                raise _past("mmpga", w, g_pos, g_lim)
            count = (g_w64[g_pos >> 3] >> (64 - (g_pos & 7) - w)) \
                & count_masks[cidx]
            g_pos += w
        else:
            if g_pos + raw_bits > g_lim:
                raise _past("mmpga", raw_bits, g_pos, g_lim)
            count = (g_w64[g_pos >> 3]
                     >> (64 - (g_pos & 7) - raw_bits)) & raw_mask
            g_pos += raw_bits

        # corner-case info (must precede reconstruction)
        n_runs: list[tuple[int, int]] | None = None
        clip_s = clip_e = _EMPTY_U8
        clip_n = 0
        remaining = count
        pending = 0
        have_pending = False
        if not corner_marker:
            has_n = corner.read(1)
            has_clip = corner.read(1)
            if has_n or has_clip:
                n_runs, clip_s, clip_e = read_corner_payload(corner,
                                                             w_rlen)
                clip_n = int(clip_s.size) + int(clip_e.size)
        elif count > 0:
            if tuned:
                if g_pos >= g_lim:
                    raise _past("mmpga", 1, g_pos, g_lim)
                z = g_nz[g_pos]
                if z >= g_lim:
                    raise _past("mmpga", 1, g_lim, g_lim)
                pidx = z - g_pos
                if pidx >= n_mmp:
                    raise _bad_class(pidx, n_mmp)
                g_pos = z + 1
                w = mmp_widths[pidx]
                if a_pos + w > a_lim:
                    raise _past("mmpa", w, a_pos, a_lim)
                pos0 = (a_w64[a_pos >> 3] >> (64 - (a_pos & 7) - w)) \
                    & mmp_masks[pidx]
                a_pos += w
            else:
                if a_pos + w_rlen > a_lim:
                    raise _past("mmpa", w_rlen, a_pos, a_lim)
                pos0 = (a_w64[a_pos >> 3]
                        >> (64 - (a_pos & 7) - w_rlen)) & w_rlen_mask
                a_pos += w_rlen
            remaining -= 1
            if pos0 == 0:
                if b_pos >= b_lim:
                    raise _past("mbta", 1, b_pos, b_lim)
                flag = (b_w64[b_pos >> 3] >> (63 - (b_pos & 7))) & 1
                b_pos += 1
                if flag:
                    # Pseudo-mismatch: this read is a corner case.
                    n_runs, clip_s, clip_e = read_corner_payload(
                        corner, w_rlen)
                    clip_n = int(clip_s.size) + int(clip_e.size)
                else:
                    have_pending = True
            else:
                pending = pos0
                have_pending = True

        core_len = length - clip_n
        multi = segments is not None and len(segments) > 1
        events: list[tuple] | None = [] \
            if (n_runs or clip_n or multi) else None
        row = len(simple_idx)         # candidate simple row for this read
        n_subs = 0                    # optimistically committed subs
        read_ptr = 0
        q = fc
        if multi:
            nseg = len(segments)
            bounds = [start for start, _ in segments[1:]]
            bounds.append(core_len)
            seg_idx = 0
            seg_end = bounds[0]
        prev_pos = 0
        while remaining > 0 or have_pending:
            if have_pending:
                pos = pending
                have_pending = False
            else:
                if tuned:
                    if g_pos >= g_lim:
                        raise _past("mmpga", 1, g_pos, g_lim)
                    z = g_nz[g_pos]
                    if z >= g_lim:
                        raise _past("mmpga", 1, g_lim, g_lim)
                    pidx = z - g_pos
                    if pidx >= n_mmp:
                        raise _bad_class(pidx, n_mmp)
                    g_pos = z + 1
                    w = mmp_widths[pidx]
                    if a_pos + w > a_lim:
                        raise _past("mmpa", w, a_pos, a_lim)
                    pos = prev_pos \
                        + ((a_w64[a_pos >> 3]
                            >> (64 - (a_pos & 7) - w)) & mmp_masks[pidx])
                    a_pos += w
                else:
                    if a_pos + w_rlen > a_lim:
                        raise _past("mmpa", w_rlen, a_pos, a_lim)
                    pos = (a_w64[a_pos >> 3]
                           >> (64 - (a_pos & 7) - w_rlen)) & w_rlen_mask
                    a_pos += w_rlen
                remaining -= 1
            prev_pos = pos
            if multi:
                while pos >= seg_end and seg_idx < nseg - 1:
                    q += seg_end - read_ptr
                    read_ptr = seg_end
                    seg_idx += 1
                    q = segments[seg_idx][1]
                    seg_end = bounds[seg_idx]
            q += pos - read_ptr
            read_ptr = pos

            # entry body
            if b_pos + 2 > b_lim:
                raise _past("mbta", 2, b_pos, b_lim)
            code = (b_w64[b_pos >> 3] >> (62 - (b_pos & 7))) & 3
            b_pos += 2
            if type_inf:
                is_sub = code != (int(cons[q]) if q < cons_size else 0)
                base = code
            else:
                is_sub = code == TYPE_SUB
                if is_sub:
                    if b_pos + 2 > b_lim:
                        raise _past("mbta", 2, b_pos, b_lim)
                    base = (b_w64[b_pos >> 3] >> (62 - (b_pos & 7))) & 3
                    b_pos += 2
                elif code != TYPE_INS and code != TYPE_DEL:
                    raise DecompressionError(
                        f"invalid mismatch type {code}")
            if is_sub:
                if events is not None:
                    events.append((pos, 0, 1, base))
                else:
                    # Optimistically commit to the batched scatter; an
                    # indel later in this read rolls these back.
                    sub_row.append(row)
                    sub_pos.append(pos)
                    sub_base.append(base)
                    n_subs += 1
                read_ptr += 1
                q += 1
                continue

            # indel: promote the read to the scalar reconstruction path
            if type_inf:
                if b_pos >= b_lim:
                    raise _past("mbta", 1, b_pos, b_lim)
                flag = (b_w64[b_pos >> 3] >> (63 - (b_pos & 7))) & 1
                b_pos += 1
                is_ins = flag == INDEL_INS
            else:
                is_ins = code == TYPE_INS
            if events is None:
                events = [(sub_pos[k], 0, 1, sub_base[k])
                          for k in range(len(sub_pos) - n_subs,
                                         len(sub_pos))]
                if n_subs:
                    del sub_row[-n_subs:]
                    del sub_pos[-n_subs:]
                    del sub_base[-n_subs:]
                    n_subs = 0
            # block length
            if not indel_blocks:
                blk = 1
            elif n_indel:
                if g_pos >= g_lim:
                    raise _past("mmpga", 1, g_pos, g_lim)
                z = g_nz[g_pos]
                if z >= g_lim:
                    raise _past("mmpga", 1, g_lim, g_lim)
                bidx = z - g_pos
                if bidx >= n_indel:
                    raise _bad_class(bidx, n_indel)
                g_pos = z + 1
                w = indel_widths[bidx]
                if a_pos + w > a_lim:
                    raise _past("mmpa", w, a_pos, a_lim)
                blk = (a_w64[a_pos >> 3] >> (64 - (a_pos & 7) - w)) \
                    & indel_masks[bidx]
                a_pos += w
            else:
                if g_pos >= g_lim:
                    raise _past("mmpga", 1, g_pos, g_lim)
                one = (g_w64[g_pos >> 3] >> (63 - (g_pos & 7))) & 1
                g_pos += 1
                if one:
                    blk = 1
                else:
                    if a_pos + INDEL_LENGTH_BITS > a_lim:
                        raise _past("mmpa", INDEL_LENGTH_BITS, a_pos,
                                    a_lim)
                    blk = (a_w64[a_pos >> 3]
                           >> (64 - (a_pos & 7) - INDEL_LENGTH_BITS)) \
                        & indel_len_mask
                    a_pos += INDEL_LENGTH_BITS
            if is_ins:
                if b_pos + 2 * blk > b_lim:
                    raise _past("mbta", 2 * blk, b_pos, b_lim)
                bases = []
                for _ in range(blk):
                    bases.append(
                        (b_w64[b_pos >> 3] >> (62 - (b_pos & 7))) & 3)
                    b_pos += 2
                events.append((pos, 1, blk, bases))
                read_ptr += blk
            else:
                events.append((pos, 2, blk, None))
                q += blk

        if events is not None:
            complex_recs.append((i, length, reverse,
                                 segments or [(0, fc)], clip_s, clip_e,
                                 n_runs or (), events, core_len))
        else:
            simple_idx.append(i)
            simple_rev.append(reverse)

    # --- pass 3a: batched reconstruction of substitution-only reads ---
    if lengths is None:
        mapped_len = np.full(n_mapped, fixed_len, dtype=np.int64)
    else:
        mapped_len = np.asarray(lengths, dtype=np.int64)
    mapped_ends = np.cumsum(mapped_len)
    mapped_offs = mapped_ends - mapped_len
    flat = _EMPTY_U8
    if simple_idx:
        rows_idx = np.array(simple_idx, dtype=np.int64)
        lens = mapped_len[rows_idx]
        ends = np.cumsum(lens)
        offs = ends - lens
        total = int(ends[-1])
        # A reverse-strand row is read off the consensus backwards and
        # complemented in place: substitution-only rows hold codes 0..3
        # only, so the complement is ``code ^ 3``.
        rev = np.array(simple_rev, dtype=bool)
        local = np.arange(total, dtype=np.int64) - np.repeat(offs, lens)
        flat_idx = np.repeat(np.where(rev, -1, 1), lens) * local + np.repeat(
            fc_arr[rows_idx] + np.where(rev, lens - 1, 0), lens)
        if total and (int(flat_idx.max()) >= cons_size
                      or int(flat_idx.min()) < 0):
            raise DecompressionError(
                "matching position walks outside the consensus")
        flat = cons[flat_idx]
        if sub_row:
            srow = np.array(sub_row, dtype=np.int64)
            spos = np.array(sub_pos, dtype=np.int64)
            if (spos >= lens[srow]).any() or (spos < 0).any():
                raise DecompressionError(
                    "mismatch position outside its read")
            spos = np.where(rev[srow], lens[srow] - 1 - spos, spos)
            flat[offs[srow] + spos] = np.array(sub_base, dtype=np.uint8)
        flat ^= np.repeat(np.where(rev, 3, 0).astype(np.uint8), lens)
    if complex_recs:
        # Simple rows move to their slots; complex reads fill the rest.
        simple_flat = flat
        flat = np.empty(int(mapped_ends[-1]), dtype=np.uint8)
        if simple_idx:
            flat[run_index(mapped_offs[rows_idx], lens)] = simple_flat
    mapped_offs = mapped_offs.tolist()

    # --- pass 3b: scalar fallback for indel/chimeric/corner reads ---
    for (i, length, reverse, segments, clip_s, clip_e, n_runs, events,
         core_len) in complex_recs:
        out = np.empty(core_len, dtype=np.uint8)
        bounds = [start for start, _ in segments[1:]]
        bounds.append(core_len)
        seg_idx = 0
        seg_end = bounds[0]
        read_ptr = 0
        q = segments[0][1]
        for pos, kind, blk, payload in events:
            while pos >= seg_end and seg_idx < len(segments) - 1:
                gap = seg_end - read_ptr
                out[read_ptr:seg_end] = cons[q:q + gap]
                q += gap
                read_ptr = seg_end
                seg_idx += 1
                q = segments[seg_idx][1]
                seg_end = bounds[seg_idx]
            gap = pos - read_ptr
            if gap:
                out[read_ptr:pos] = cons[q:q + gap]
                q += gap
                read_ptr = pos
            if kind == 0:
                out[pos] = payload
                read_ptr += 1
                q += 1
            elif kind == 1:
                out[pos:pos + blk] = payload
                read_ptr += blk
            else:
                q += blk
        while True:
            gap = seg_end - read_ptr
            out[read_ptr:seg_end] = cons[q:q + gap]
            q += gap
            read_ptr = seg_end
            if seg_idx >= len(segments) - 1:
                break
            seg_idx += 1
            q = segments[seg_idx][1]
            seg_end = bounds[seg_idx]
        oriented = np.concatenate([clip_s, out, clip_e]).astype(np.uint8)
        for pos, run in n_runs:
            oriented[pos:pos + run] = seq.N_CODE
        if oriented.size != length:
            raise DecompressionError(
                f"decoded {oriented.size} bases, expected {length}")
        flat[mapped_offs[i]:mapped_offs[i] + length] = \
            seq.reverse_complement(oriented) if reverse else oriented

    # --- unmapped reads (3-bit packed payloads) ---
    offsets = np.concatenate([[0], mapped_ends])
    if not block.n_unmapped:
        return flat, offsets
    unmapped = BitReader(*block.streams["unmapped"], name="unmapped")
    parts = [flat] + [
        read_unmapped(unmapped, w_rlen, block.fixed_length, fixed_len)
        for _ in range(block.n_unmapped)]
    codes, tail = _flatten(parts)
    return codes, np.concatenate([offsets, tail[2:]])


# ----------------------------------------------------------------------
# Kernel registry
# ----------------------------------------------------------------------


class CodecKernel:
    """A named decode strategy over the SAGe stream format.

    Every kernel's ``decode_reads`` returns exactly the reference
    decoder's output for the same block bytes.
    """

    name = "abstract"

    def decode_reads(self, decompressor, select=None,
                     index: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, offsets)`` of block ``index`` of the decompressor's
        archive: one flat ``uint8`` buffer holding every read's base
        codes in emission order, and the ``int64`` bounds (one more
        than there are reads, starting at 0) that cut it into reads.

        ``select`` (:class:`~repro.core.selection.StreamSelection` or
        ``None`` = everything) is the stream-selective decode request.
        Kernels own only the *sequence* group — the decompressor never
        calls a kernel when sequence is deselected — so the in-tree
        kernels treat it as informational; custom kernels may use it to
        skip work for sub-streams they decode speculatively.
        """
        raise NotImplementedError


class PythonKernel(CodecKernel):
    """The reference bit-serial path (pure-Python field loops)."""

    name = "python"

    def decode_reads(self, decompressor, select=None,
                     index: int = 0) -> tuple[np.ndarray, np.ndarray]:
        return _flatten(list(decompressor.iter_read_codes(index=index)))


class NumpyKernel(CodecKernel):
    """The vectorized structure-of-arrays path (see module docstring)."""

    name = "numpy"

    def decode_reads(self, decompressor, select=None,
                     index: int = 0) -> tuple[np.ndarray, np.ndarray]:
        return _decode_reads_batched(decompressor, index)


_KERNELS: dict[str, CodecKernel] = {}


def register_kernel(kernel: CodecKernel) -> CodecKernel:
    """Add a kernel to the registry (name collisions overwrite)."""
    _KERNELS[kernel.name] = kernel
    return kernel


def available_kernels() -> tuple[str, ...]:
    """Registered kernel names, sorted."""
    return tuple(sorted(_KERNELS))


def get_kernel(name: str) -> CodecKernel:
    """Look up a kernel by exact name."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise ValueError(f"unknown codec kernel {name!r}; registered: "
                         f"{available_kernels()}") from None


def resolve_codec(spec: str | None) -> str:
    """Resolve a codec spec (``None``/``"auto"`` → env → default)."""
    if spec in (None, "auto"):
        spec = os.environ.get("SAGE_CODEC", DEFAULT_CODEC)
    if spec not in _KERNELS:
        raise ValueError(f"unknown codec {spec!r}; expected 'auto' or "
                         f"one of {available_kernels()}")
    return spec


def resolve_kernel(spec: str | None) -> CodecKernel:
    """The kernel a codec spec resolves to."""
    return _KERNELS[resolve_codec(spec)]


register_kernel(PythonKernel())
register_kernel(NumpyKernel())
