"""Codec kernel layer: interchangeable block *decode* strategies.

SAGe compresses a read set once, offline, and spends its design on the
decode side — the Scan Unit / Read Construction Unit walk (§5.1–5.2) is
the data-preparation path.  A kernel here is what that hardware is: a
way to turn one block's streams back into reads.  The encoder has no
kernel; :class:`~repro.core.compressor.SAGeCompressor` writes every
stream through :class:`~repro.core.bitio.BitWriter`, so the format is
stated by one writer and the kernels only change the read schedule.

There are two kernels:

``python``
    The reference bit-serial path: the sequential
    :meth:`SAGeDecompressor.iter_read_codes` walk over
    :class:`~repro.core.bitio.BitReader` fields.

``numpy``
    The vectorized path, and the default.  It runs a vectorized
    unary-prefix scan over the matching-position guide array
    (``np.unpackbits`` + zero-run detection) to classify every entry at
    once, gathers the variable-width position fields in one pass
    (:func:`gather_fields`), walks the interleaved mismatch streams over
    precomputed 64-bit windows and next-zero indexes (one list lookup
    per field) into consensus copy runs and literal patches of the
    deviant reads only (a plain read, with no mismatch entry, later
    segment or corner, leaves just its strand), and rebuilds every
    mapped read in one read construction (:func:`_construct_reads`): a
    plain read is one row copy of the consensus in a fixed-length block,
    the runs are scattered from the consensus, the patches, clips and N
    runs over them, and the reverse reads reverse-complemented by one
    ``bytes.translate``; there is no per-read path beside it.  A 64-bit
    window holds every field the format allows, because the block parser
    refuses a class or read-length width over
    :data:`~repro.core.prefix_codes.MAX_WIDTH` (56) bits.  The side
    streams a read touches at most a few times — ``lengths``,
    ``corner``, ``side``, ``unmapped`` — go through the same
    :class:`~repro.core.bitio.BitReader` as the reference walk.

Both kernels decode identical reads from the same bytes for every
configuration — asserted in ``tests/test_core_kernels.py`` — so the
codec only chooses speed.  It is named where a decoder is built:
:class:`repro.api.EngineOptions` ``codec`` reaches
``SAGeDecompressor(codec=)``, which keeps that kernel for life.  A
kernel's ``decode_reads`` returns one block as ``(codes, offsets)``:
every read's base codes in one flat ``uint8`` buffer in emission order,
read ``i`` at ``codes[offsets[i]:offsets[i + 1]]``.  The flat buffer
becomes the ``codes`` column of the block's
:class:`~repro.genomics.reads.ReadSet` as is — no kernel hands out
per-read arrays.
"""

from __future__ import annotations

import numpy as np

from ..genomics import sequence as seq
from ..genomics.reads import run_index
from .bitio import BitIOError, BitReader
from .compressor import INDEL_LENGTH_BITS, RAW_COUNT_BITS
from .errors import CorruptArchiveError, DecompressionError
from .formats import read_corner_payload, read_unmapped
from .mismatch import INDEL_INS, TYPE_DEL, TYPE_INS, TYPE_SUB

__all__ = ["DEFAULT_CODEC", "NumpyKernel", "PythonKernel",
           "available_kernels", "gather_fields", "resolve_kernel"]

#: The decode kernel of a session or decoder that names none.
DEFAULT_CODEC = "numpy"

_EMPTY_U8 = np.empty(0, dtype=np.uint8)


# ----------------------------------------------------------------------
# Batched bit gathering primitives
# ----------------------------------------------------------------------


def _windows(ext: bytes) -> np.ndarray:
    """Every 64-bit big-endian window of ``ext``, as one unaligned view."""
    return np.ndarray((len(ext) - 7,), ">u8", ext, strides=(1,))


def gather_fields(stream: tuple[bytes, int], offsets, widths, *,
                  name: str = "") -> np.ndarray:
    """Extract many big-endian fields from one stream in one pass.

    ``stream`` is a ``(payload, bit_length)`` pair; ``offsets[i]`` /
    ``widths[i]`` locate each field in bits.  Every field is read
    through a 64-bit window gathered per offset off one :func:`_windows`
    view, so the batch costs a handful of vectorized passes.  Fields
    must be at most 63 bits wide.
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
    words = _windows(bytes(payload) + bytes(9))
    byte = offsets >> 3
    window = words[byte].astype(np.uint64)
    off = (offsets & 7).astype(np.uint64)
    w = widths.astype(np.uint64)
    shifted = window << off                      # drops the leading bits
    vals = shifted >> (np.uint64(64) - np.maximum(w, np.uint64(1)))
    need = off + w
    over = need > np.uint64(64)
    if over.any():
        extra = words[byte[over] + 1].astype(np.uint64) & np.uint64(0xFF)
        vals[over] |= extra >> (np.uint64(72) - need[over])
    return np.where(w > 0, vals, np.uint64(0)).astype(np.int64)


def _stream_words(blk, name: str):
    """``(w64, bit_length)`` window view of one stream.

    ``w64[i]`` is the 64-bit big-endian window starting at byte ``i`` of
    the stream zero-padded by 8 bytes (a :func:`_windows` view), as
    Python ints: any field of up to 56 bits is one list lookup plus a
    shift/mask — the innermost primitive of the skeleton walk, and no
    field is wider (:data:`~repro.core.prefix_codes.MAX_WIDTH`).
    """
    payload, bits = blk.streams[name]
    return _windows(bytes(payload) + bytes(8)).tolist(), bits


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


#: ``COMPLEMENT`` as a translate table; the 3-bit parsers refuse codes > N.
_COMPLEMENT_BYTES = bytes(seq.COMPLEMENT) + bytes(range(5, 256))


def _complement(codes: np.ndarray) -> np.ndarray:
    return np.frombuffer(codes.tobytes().translate(_COMPLEMENT_BYTES),
                         dtype=np.uint8).reshape(codes.shape)


def _construct_reads(cons: np.ndarray, lengths: np.ndarray,
                     first_cons: np.ndarray, deviant: list[int],
                     runs: list[int], patches: list[int],
                     corners: list[tuple],
                     reverse_reads: list[int]) -> np.ndarray:
    """The Read Construction Unit over a whole block: the mapped reads
    the skeleton walk described, rebuilt into one flat buffer (read
    ``i`` holds ``lengths[i]`` bases, read after read).

    A plain read (not in ``deviant``) is the consensus from
    ``first_cons[i]`` on.  A deviant read is its start clip, its core
    and its end clip: the core is its copy runs with its patches over
    them; N runs then cover the whole read.  A reverse read is
    reverse-complemented last, as the reference walk does per read.
    """
    n = lengths.size
    ends = np.cumsum(lengths)
    starts = ends - lengths
    head = starts.copy()                    # first core base of each read
    core = lengths.copy()
    if corners:
        c_read, c_start, c_end = np.array(
            [(i, clip_s.size, clip_e.size)
             for i, clip_s, clip_e, _ in corners], dtype=np.int64).T
        head[c_read] += c_start
        core[c_read] -= c_start + c_end
    if (core < 0).any():
        bad = int(np.argmax(core < 0))
        raise DecompressionError(
            f"decoded {int(lengths[bad] - core[bad])} bases, "
            f"expected {int(lengths[bad])}")

    r_read, r_start, r_cons, r_len = \
        np.array(runs, dtype=np.int64).reshape(-1, 4).T
    if (r_len < 0).any():
        raise DecompressionError("mismatch position outside its read")
    plain = np.ones(n, dtype=bool)
    plain[deviant] = False
    n_plain = n - len(deviant)
    # Every copy (destination, consensus start, length): plain reads
    # whole, then the deviant reads' runs.
    at = np.concatenate([starts[plain], head[r_read] + r_start])
    src = np.concatenate([first_cons[plain], r_cons])
    size = np.concatenate([lengths[plain], r_len])
    live = size > 0
    if live.any() and (int(src[live].min()) < 0
                       or int((src + size)[live].max()) > cons.size):
        raise DecompressionError(
            "matching position walks outside the consensus")
    flat = np.empty(int(ends[-1]) if n else 0, dtype=np.uint8)
    width = int(lengths[0]) if n and (lengths == lengths[0]).all() else 0
    if width and n_plain:
        # Equal lengths: a plain read is one row copied from a view of
        # the consensus windows, with no index per base.
        windows = np.ndarray((cons.size - width + 1, width), dtype=np.uint8,
                             buffer=cons, strides=(1, 1))
        flat.reshape(n, width)[plain] = windows[first_cons[plain]]
        at, src, size = at[n_plain:], src[n_plain:], size[n_plain:]
    flat[run_index(at, size)] = cons[run_index(src, size)]

    if patches:
        p_read, p_pos, p_base = \
            np.array(patches, dtype=np.int64).reshape(-1, 3).T
        if (p_pos >= core[p_read]).any():
            raise DecompressionError("mismatch position outside its read")
        flat[head[p_read] + p_pos] = p_base

    if corners:
        clip_at = np.stack([starts[c_read], ends[c_read] - c_end], axis=1)
        clip_len = np.stack([c_start, c_end], axis=1)
        flat[run_index(clip_at.ravel(), clip_len.ravel())] = np.concatenate(
            [clip for _, clip_s, clip_e, _ in corners
             for clip in (clip_s, clip_e)])
        n_runs = [(i, pos, run) for i, _, _, read_runs in corners
                  for pos, run in read_runs]
        if n_runs:
            n_read, n_pos, n_run = np.array(n_runs, dtype=np.int64).T
            # A run past the read's end is cut there, as a slice is.
            n_len = np.clip(np.minimum(n_run, lengths[n_read] - n_pos), 0,
                            None)
            flat[run_index(starts[n_read] + n_pos, n_len)] = seq.N_CODE

    if reverse_reads:
        rev = np.array(reverse_reads, dtype=np.int64)
        if width:
            rows = flat.reshape(n, width)
            rows[rev] = _complement(rows[rev, ::-1])
        else:
            at = run_index(starts[rev], lengths[rev])
            mirror = np.repeat(starts[rev] + ends[rev] - 1, lengths[rev])
            mirror -= at
            flat[at] = _complement(flat[mirror])
    return flat


def _decode_reads_batched(dec, index: int
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Decode every read of block ``index`` through the numpy kernel.

    Same reads (and emission order) as
    ``SAGeDecompressor.iter_read_codes(index=index)``, written into one
    flat buffer by structure-of-arrays passes:

    1. one vectorized unary-prefix scan + field gather classifies every
       matching position (:func:`_matching_positions`) and read length;
    2. a skeleton walk over the interleaved mmpga/mmpa/mbta streams
       describes every mapped read as columns without reconstructing
       it — every field is an O(1) window lookup on precomputed
       ``w64``/next-zero views.  A plain read (no mismatch entry, later
       segment or corner) records only its strand.  For a deviant read
       it moves the read and consensus cursors as the reference walk
       does and records consensus copy runs ``(read, start, cons_start,
       length)``, which end only at an indel or a segment boundary (a
       substitution-only read is one run), literal patches ``(read,
       pos, base)`` for substitutions and inserted bases, and the read's
       clips and N runs;
    3. one read construction (the RCU loop of §5.2, over the whole
       block): a plain read is one consensus row (fixed lengths), the
       runs are scattered from the consensus by destination index, the
       patches, clips and N runs over them, and the reverse reads are
       reverse-complemented by one ``bytes.translate``.  The damage
       checks are stated once, over these columns.
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
    matching = _matching_positions(arch, block, n_mapped) if n_mapped \
        else np.empty(0, dtype=np.int64)
    first_cons = matching.tolist()

    # --- pass 2: skeleton walk (runs and patches, no reconstruction) ---
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

    runs: list[int] = []              # (read, start, cons_start, length)
    patches: list[int] = []           # (read, pos, base)
    corners: list[tuple] = []         # (read, clip_s, clip_e, n_runs)
    reverse_reads: list[int] = []
    deviant: list[int] = []           # the reads that emit runs

    for i in range(n_mapped):
        length = fixed_len if lengths is None else lengths[i]
        if b_pos >= b_lim:
            raise _past("mbta", 1, b_pos, b_lim)
        if (b_w64[b_pos >> 3] >> (63 - (b_pos & 7))) & 1:
            reverse_reads.append(i)
        b_pos += 1
        later = ()              # (core_start, cons_start) per later segment
        if side is not None and side.read(1):
            later = []
            for _ in range(side.read(2)):
                core_start = side.read(w_rlen)
                later.append((core_start, side.read(w_cons)))

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

        # Corner info.  With the marker it is a position-0
        # pseudo-mismatch, met as the first entry below: nothing is
        # reconstructed before pass 3, so nothing needs it sooner.
        n_runs = ()
        clip_s = clip_e = _EMPTY_U8
        if not corner_marker and corner.read(2):      # has_n, has_clip
            n_runs, clip_s, clip_e = read_corner_payload(corner, w_rlen)
        elif not (count or later):
            continue            # a plain read: its strand is all it needs
        deviant.append(i)

        # The open copy run starts at read position ``start`` and
        # consensus position ``run_cons``; substitutions leave it open,
        # an indel or a later segment's core start closes it.
        read_ptr = start = seg = pos = 0
        q = run_cons = first_cons[i]
        n_later = len(later)
        for entry in range(count):
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
                pos += (a_w64[a_pos >> 3] >> (64 - (a_pos & 7) - w)) \
                    & mmp_masks[pidx]
                a_pos += w
            else:
                if a_pos + w_rlen > a_lim:
                    raise _past("mmpa", w_rlen, a_pos, a_lim)
                pos = (a_w64[a_pos >> 3]
                       >> (64 - (a_pos & 7) - w_rlen)) & w_rlen_mask
                a_pos += w_rlen
            if not pos and corner_marker and not entry:
                if b_pos >= b_lim:
                    raise _past("mbta", 1, b_pos, b_lim)
                flag = (b_w64[b_pos >> 3] >> (63 - (b_pos & 7))) & 1
                b_pos += 1
                if flag:
                    n_runs, clip_s, clip_e = read_corner_payload(corner,
                                                                 w_rlen)
                    continue
            while seg < n_later and pos >= later[seg][0]:
                boundary, q = later[seg]
                runs += (i, start, run_cons, boundary - start)
                read_ptr = start = boundary
                run_cons = q
                seg += 1
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
                patches += (i, pos, base)
                read_ptr += 1
                q += 1
                continue

            # indel: it closes the open copy run
            if type_inf:
                if b_pos >= b_lim:
                    raise _past("mbta", 1, b_pos, b_lim)
                flag = (b_w64[b_pos >> 3] >> (63 - (b_pos & 7))) & 1
                b_pos += 1
                is_ins = flag == INDEL_INS
            else:
                is_ins = code == TYPE_INS
            runs += (i, start, run_cons, pos - start)
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
                for k in range(pos, pos + blk):
                    patches += (i, k,
                                (b_w64[b_pos >> 3] >> (62 - (b_pos & 7))) & 3)
                    b_pos += 2
                read_ptr += blk
            else:
                q += blk
            start = read_ptr
            run_cons = q

        # Later segments no entry reached still close the open run, and
        # the last run ends with the core.
        for boundary, cons_start in later[seg:]:
            runs += (i, start, run_cons, boundary - start)
            start, run_cons = boundary, cons_start
        clip_n = clip_s.size + clip_e.size
        runs += (i, start, run_cons, length - clip_n - start)
        if n_runs or clip_n:
            corners.append((i, clip_s, clip_e, n_runs))

    # --- pass 3: one read construction for every mapped read ---
    mapped_len = np.full(n_mapped, fixed_len, dtype=np.int64) \
        if lengths is None else np.asarray(lengths, dtype=np.int64)
    flat = _construct_reads(cons, mapped_len, matching, deviant, runs,
                            patches, corners, reverse_reads)

    # --- unmapped reads (3-bit packed payloads) ---
    offsets = np.concatenate([[0], np.cumsum(mapped_len)])
    if not block.n_unmapped:
        return flat, offsets
    unmapped = BitReader(*block.streams["unmapped"], name="unmapped")
    parts = [flat] + [
        read_unmapped(unmapped, w_rlen, block.fixed_length, fixed_len)
        for _ in range(block.n_unmapped)]
    codes, tail = _flatten(parts)
    return codes, np.concatenate([offsets, tail[2:]])


# ----------------------------------------------------------------------
# The two kernels
# ----------------------------------------------------------------------


class PythonKernel:
    """The reference bit-serial path (pure-Python field loops)."""

    name = "python"

    def decode_reads(self, decompressor, select=None,
                     index: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, offsets)`` of block ``index`` of the decompressor's
        archive: one flat ``uint8`` buffer holding every read's base
        codes in emission order, and the ``int64`` bounds (one more
        than there are reads, starting at 0) that cut it into reads.

        ``select`` is informational: the decompressor calls a kernel
        only when the *sequence* group is selected.
        """
        return _flatten(list(decompressor.iter_read_codes(index=index)))


class NumpyKernel:
    """The vectorized structure-of-arrays path (see module docstring)."""

    name = "numpy"

    def decode_reads(self, decompressor, select=None,
                     index: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Same contract as :meth:`PythonKernel.decode_reads`."""
        return _decode_reads_batched(decompressor, index)


_KERNELS = {kernel.name: kernel for kernel in (PythonKernel(),
                                                NumpyKernel())}


def available_kernels() -> tuple[str, ...]:
    """The decode kernel names, sorted."""
    return tuple(sorted(_KERNELS))


def resolve_kernel(name: str) -> PythonKernel | NumpyKernel:
    """The decode kernel called ``name``."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise ValueError(f"unknown codec {name!r}; expected one of "
                         f"{available_kernels()}") from None
