"""SAGe decompression — software reference model.

Replays the Scan Unit / Read Construction Unit walk (§5.2) in software:
guide arrays and position arrays are consumed strictly sequentially; each
read is reconstructed by copying consensus bases and applying decoded
mismatches; the substitution-vs-indel decision is made by comparing the
decoded MBTA base with the consensus base under the cursor (§5.1.2), which
is why entry decoding and reconstruction interleave — exactly as the SU
and RCU operate concurrently in hardware.

The walk (:meth:`SAGeDecompressor.iter_read_codes`) is the ``python``
kernel and the oracle the vectorized kernel is held to; it reads every
stream to its end.  The hardware functional model
(:mod:`repro.hardware.sage_units`) decodes through this class once per
block and charges its units those stream lengths.

Archives decode per independent section: decoding block *i* via
:meth:`SAGeDecompressor.decompress_block` touches only that block's
streams plus the shared consensus — the software analog of per-channel
parallel decode (§5.3).  That method is the only block decode in the
system; the walk over all blocks of an archive (serial or parallel, with
the ``on_error`` policy) is :class:`repro.pipeline.executor.StreamExecutor`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..genomics import sequence as seq
from ..genomics.reads import ReadSet
from . import headers as headers_codec
from . import quality as quality_codec
from .bitio import BitReader
from .compressor import INDEL_LENGTH_BITS, RAW_COUNT_BITS
from .container import SAGeArchive, SAGeBlock
from .errors import (BlockDecodeError, DecompressionError,  # noqa: F401
                     SAGeError)
from .formats import read_corner_payload, read_unmapped, unpack_bits
from .kernels import DEFAULT_CODEC, gather_fields, resolve_kernel
from .mismatch import INDEL_INS, TYPE_DEL, TYPE_INS, TYPE_SUB, OptLevel
from .selection import StreamSelection


class SAGeDecompressor:
    """Decodes a :class:`SAGeArchive` back into reads.

    ``codec`` names the decode kernel (:mod:`repro.core.kernels`):
    ``"numpy"`` (the default) is the vectorized batch path, ``"python"``
    the bit-serial reference walk.  Every kernel returns identical
    reads.  The choice is made once, here (an unknown name raises
    :class:`ValueError`); another kernel means another decoder.
    """

    def __init__(self, archive: SAGeArchive, *,
                 consensus: np.ndarray | None = None,
                 codec: str = DEFAULT_CODEC):
        self.archive = archive
        self._kernel = resolve_kernel(codec)
        self.codec = codec
        # ``consensus`` lets a second decoder over the same (or a view
        # of the same) archive reuse an already-unpacked consensus.
        if consensus is None:
            consensus = unpack_bits(archive.consensus[0], 2,
                                    archive.consensus_length)
        self.consensus = consensus

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def decompress_block(self, index: int, *, select=None) -> ReadSet:
        """Decode only block ``index`` of the archive.

        Random access: the decode reads the block and the archive
        globals (level, consensus) and no other block's streams,
        mirroring the per-channel independent decode of §5.3.

        ``select`` (:class:`~repro.core.selection.StreamSelection`, a
        group-name iterable, or ``None`` = everything) limits the decode
        to the requested stream groups: unselected groups are skipped
        outright, not decoded-and-dropped.  Skipping ``sequence`` yields
        empty-code placeholder reads; skipping ``order`` emits reads in
        the codec's emission order (identical content, for
        order-insensitive consumers).

        Reads without a stored (or selected) header are named
        ``{archive name}.{global read position}`` — the position counts
        from the block index's ``first_read``, in final (order-restored)
        slots, so names are unique across the archive and do not depend
        on how the archive was obtained.

        Any failure — corrupt payload, truncated stream, inconsistent
        content — surfaces as :class:`BlockDecodeError` carrying the
        block index, the unit of ``on_error="skip"`` recovery.
        """
        try:
            return self._decode_block(index,
                                      StreamSelection.from_spec(select))
        except BlockDecodeError:
            raise
        except SAGeError as exc:
            # Reuse the inner error's bare message and location context
            # (when it has them) so the block index is stated once.
            raise BlockDecodeError(
                getattr(exc, "message", str(exc)), block_index=index,
                stream=getattr(exc, "stream", None),
                offset=getattr(exc, "offset", None)) from exc
        except Exception as exc:
            raise BlockDecodeError(
                f"block decode failed ({type(exc).__name__}: {exc})",
                block_index=index) from exc

    def _decode_block(self, index: int,
                      select: StreamSelection) -> ReadSet:
        arch = self.archive
        blk = arch.block(index)
        if select.sequence:
            codes, offsets = self._kernel.decode_reads(
                self, select=select, index=index)
        else:
            # Sequence deselected: reads become empty placeholders so
            # counting consumers (and header-only passes) still see the
            # right cardinality without touching the sequence streams.
            codes = np.empty(0, dtype=np.uint8)
            offsets = np.zeros(blk.n_reads + 1, dtype=np.int64)
        n_reads = offsets.size - 1
        scores = None
        if select.quality and blk.quality is not None:
            scores = quality_codec.decompress(blk.quality)
            if scores.size != codes.size:
                raise DecompressionError(
                    f"quality stream has {scores.size} scores, reads "
                    f"need {codes.size}")
        order = self._emission_order(blk) \
            if arch.preserve_order and select.order else None
        stored = select.headers and blk.headers_blob is not None
        headers = headers_codec.decompress_headers(blk.headers_blob) \
            if stored else arch.fallback_headers(index)
        if len(headers) != n_reads:
            raise DecompressionError(
                f"{len(headers)} headers for {n_reads} reads")
        read_set = ReadSet.from_columns(codes, offsets, scores, headers,
                                        arch.name or "sage")
        if order is not None:
            # The columns are in emission order; one gather restores
            # the input order.  Fallback names count final slots.
            read_set = read_set.subset(order)
            if not stored:
                read_set.headers = headers
        return read_set

    @staticmethod
    def _emission_order(blk: SAGeBlock) -> np.ndarray:
        """``result[p]`` = emission index of the read at final slot ``p``.

        Inverts the matching-position reordering recorded in the
        block's ``order`` stream (extension).
        """
        n = blk.n_reads
        w_reads = max(1, (n - 1).bit_length()) if n else 1
        original = gather_fields(
            blk.streams["order"], np.arange(n, dtype=np.int64) * w_reads,
            np.full(n, w_reads, dtype=np.int64), name="order")
        if n and (int(original.max()) >= n
                  or (np.bincount(original, minlength=n) != 1).any()):
            raise DecompressionError("order stream is not a permutation")
        slots = np.empty(n, dtype=np.int64)
        slots[original] = np.arange(n, dtype=np.int64)
        return slots

    def iter_read_codes(self, index: int = 0) -> Iterator[np.ndarray]:
        """Yield block ``index``'s decoded base-code arrays in emission
        order — the bit-serial reference walk.

        It consumes every stream it reads to its last bit, which is what
        lets the hardware model charge its units the stored stream
        lengths (``tests/test_hardware_units.py`` pins it).
        """
        blk = self.archive.block(index)
        # Readers carry their stream name, so a malformed archive fails
        # with the offending stream and bit offset in the message.
        readers = {name: BitReader(payload, bits, name=name)
                   for name, (payload, bits) in blk.streams.items()}
        prev_cons = 0
        for _ in range(blk.n_mapped):
            codes, prev_cons = self._decode_mapped(blk, readers, prev_cons)
            yield codes
        for _ in range(blk.n_unmapped):
            yield read_unmapped(readers["unmapped"], blk.w_rlen,
                                blk.fixed_length, blk.fixed_read_length)

    # ------------------------------------------------------------------
    # Mapped reads
    # ------------------------------------------------------------------

    def _cons_base(self, q: int) -> int:
        """Consensus base under the cursor (0 past the end, both sides)."""
        return int(self.consensus[q]) if q < self.consensus.size else 0

    def _decode_mapped(self, blk: SAGeBlock, readers: dict[str, BitReader],
                       prev_cons: int) -> tuple[np.ndarray, int]:
        arch = self.archive
        level = arch.level
        cons = self.consensus
        mpa, mpga = readers["mpa"], readers["mpga"]
        mmpa, mmpga = readers["mmpa"], readers["mmpga"]
        mbta, side = readers["mbta"], readers["side"]
        corner, lengths = readers["corner"], readers["lengths"]

        # --- per-read header fields ---
        if blk.fixed_length:
            length = blk.fixed_read_length
        else:
            length = blk.tables["len"].decode(lengths, lengths)
        reverse = bool(mbta.read_bit())
        if level.reorder:
            first_cons = prev_cons + blk.tables["mp"].decode(mpga, mpa)
        else:
            first_cons = mpa.read(arch.w_cons)
        segments = [(0, first_cons)]
        if level.chimeric and blk.long_reads:
            if side.read_bit():
                n_extra = side.read(2)
                for _ in range(n_extra):
                    core_start = side.read(blk.w_rlen)
                    cons_start = side.read(arch.w_cons)
                    segments.append((core_start, cons_start))
        if level.tuned_mismatch:
            count = blk.tables["count"].decode(mmpga, mmpga)
        else:
            count = mmpga.read(RAW_COUNT_BITS)

        # --- corner-case info (must precede reconstruction) ---
        n_runs: list[tuple[int, int]] = []
        clip_s = clip_e = np.empty(0, dtype=np.uint8)
        remaining = count
        pending_pos: int | None = None
        if not level.corner_marker:
            has_n = bool(corner.read_bit())
            has_clip = bool(corner.read_bit())
            if has_n or has_clip:
                n_runs, clip_s, clip_e = \
                    read_corner_payload(corner, blk.w_rlen)
        elif count > 0:
            pos0 = self._decode_position(blk, 0, readers, level)
            remaining -= 1
            if pos0 == 0:
                if mbta.read_bit():
                    # Pseudo-mismatch: this read is a corner case.
                    n_runs, clip_s, clip_e = \
                        read_corner_payload(corner, blk.w_rlen)
                else:
                    pending_pos = 0
            else:
                pending_pos = pos0

        # --- reconstruction walk (the RCU loop) ---
        core_len = length - int(clip_s.size) - int(clip_e.size)
        out = np.empty(core_len, dtype=np.uint8)
        bounds = [start for start, _ in segments[1:]] + [core_len]
        seg_idx = 0
        seg_end = bounds[0]
        read_ptr = 0
        q = segments[0][1]
        prev_pos = 0

        def take(gap: int) -> np.ndarray:
            # A one-base tail would broadcast over the whole gap.
            if gap > 0 and q + gap > cons.size:
                raise DecompressionError(
                    "matching position walks outside the consensus")
            return cons[q:q + gap]

        def advance(pos: int) -> None:
            nonlocal read_ptr, q, seg_idx, seg_end
            while pos >= seg_end and seg_idx < len(segments) - 1:
                gap = seg_end - read_ptr
                out[read_ptr:seg_end] = take(gap)
                q += gap
                read_ptr = seg_end
                seg_idx += 1
                q = segments[seg_idx][1]
                seg_end = bounds[seg_idx]
            gap = pos - read_ptr
            if gap:
                out[read_ptr:pos] = take(gap)
                q += gap
                read_ptr = pos

        while remaining > 0 or pending_pos is not None:
            if pending_pos is not None:
                pos = pending_pos
                pending_pos = None
            else:
                pos = self._decode_position(blk, prev_pos, readers,
                                            level)
                remaining -= 1
            prev_pos = pos
            advance(pos)
            read_ptr, q = self._apply_entry(blk, pos, out, read_ptr, q,
                                            readers, level)

        # Copy through any remaining segment tails.
        while True:
            gap = seg_end - read_ptr
            out[read_ptr:seg_end] = take(gap)
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
        codes = seq.reverse_complement(oriented) if reverse else oriented
        return codes, first_cons

    @staticmethod
    def _decode_position(blk: SAGeBlock, prev_pos: int,
                         readers: dict[str, BitReader],
                         level: OptLevel) -> int:
        if level.tuned_mismatch:
            delta = blk.tables["mmp"].decode(readers["mmpga"],
                                             readers["mmpa"])
            return prev_pos + delta
        return readers["mmpa"].read(blk.w_rlen)

    def _apply_entry(self, blk: SAGeBlock, pos: int, out: np.ndarray,
                     read_ptr: int, q: int, readers: dict[str, BitReader],
                     level: OptLevel) -> tuple[int, int]:
        """Decode one entry's body and apply it at the cursor."""
        mbta = readers["mbta"]
        mmpa, mmpga = readers["mmpa"], readers["mmpga"]

        if level.type_inference:
            base = mbta.read(2)
            if base != self._cons_base(q):
                out[pos] = base                     # substitution
                return read_ptr + 1, q + 1
            if mbta.read_bit() == INDEL_INS:
                block = self._read_block_length(blk, mmpa, mmpga, level)
                for i in range(block):
                    out[pos + i] = mbta.read(2)
                return read_ptr + block, q
            block = self._read_block_length(blk, mmpa, mmpga, level)
            return read_ptr, q + block              # deletion

        type_code = mbta.read(2)
        if type_code == TYPE_SUB:
            out[pos] = mbta.read(2)
            return read_ptr + 1, q + 1
        if type_code == TYPE_INS:
            block = self._read_block_length(blk, mmpa, mmpga, level)
            for i in range(block):
                out[pos + i] = mbta.read(2)
            return read_ptr + block, q
        if type_code == TYPE_DEL:
            block = self._read_block_length(blk, mmpa, mmpga, level)
            return read_ptr, q + block
        raise DecompressionError(f"invalid mismatch type {type_code}")

    @staticmethod
    def _read_block_length(blk: SAGeBlock, mmpa: BitReader,
                           mmpga: BitReader, level: OptLevel) -> int:
        if not level.indel_blocks:
            return 1
        indel_table = blk.tables.get("indel")
        if indel_table is not None:
            return indel_table.decode(mmpga, mmpa)
        if mmpga.read_bit():
            return 1
        return mmpa.read(INDEL_LENGTH_BITS)
