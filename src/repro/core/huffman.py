"""Canonical Huffman coding.

Used three ways in the reproduction: as the entropy stage of the
DEFLATE-like general-purpose baseline (pigz analog), as the back-end of
the Spring-analog genomic compressor, and as the quality-score codec
shared between the Spring analog and SAGe (§5.1.5: SAGe reuses the same
quality compression as Spring's lossless mode).

Encoding is vectorized through string join + ``np.packbits``; decoding
is a flat lookup table indexed by the ``PEEK_BITS`` bits at *every* bit
offset of the stream at once, plus pointer jumping to find which of
those offsets start a symbol (:meth:`HuffmanTable.decode`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .bitio import BitReader, BitWriter
from .errors import CorruptArchiveError, DecompressionError

#: Lookup-table width for fast decoding; also the maximum code length.
PEEK_BITS = 15

#: Symbols between two decode anchors: the serial part of a decode is
#: one hop per ``2**ANCHOR_DOUBLINGS`` symbols, the rest is gathers.
ANCHOR_DOUBLINGS = 6

#: Right shifts that cut the ``PEEK_BITS``-bit peek at each of the 8 bit
#: phases of a byte out of the 24-bit window starting at that byte.
_PHASE_SHIFTS = np.arange(24 - PEEK_BITS, 24 - PEEK_BITS - 8, -1,
                          dtype=np.int32)


class HuffmanError(CorruptArchiveError, DecompressionError):
    """An invalid Huffman table or a damaged Huffman stream.

    Carries the name of the stream and the byte offset of the damage
    when the caller supplied them (:meth:`HuffmanTable.decode`).
    """


def code_lengths_from_counts(counts: np.ndarray,
                             max_length: int = PEEK_BITS) -> np.ndarray:
    """Optimal code lengths for symbol frequencies (length-limited).

    Standard heap-based Huffman; if the tree exceeds ``max_length``, the
    counts are flattened (square-root damping) and rebuilt, which bounds
    the depth for any realistic alphabet.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.size
    lengths = np.zeros(n, dtype=np.int64)
    present = np.nonzero(counts)[0]
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths

    work = counts.astype(np.float64)
    while True:
        heap: list[tuple[float, int, tuple[int, ...]]] = []
        serial = 0
        for sym in present:
            heap.append((float(work[sym]), serial, (int(sym),)))
            serial += 1
        heapq.heapify(heap)
        depth = np.zeros(n, dtype=np.int64)
        while len(heap) > 1:
            c1, _, s1 = heapq.heappop(heap)
            c2, _, s2 = heapq.heappop(heap)
            merged = s1 + s2
            for sym in merged:
                depth[sym] += 1
            heapq.heappush(heap, (c1 + c2, serial, merged))
            serial += 1
        if depth.max() <= max_length:
            lengths[present] = depth[present]
            return lengths
        work = np.sqrt(work) + 1  # damp and retry with a flatter tree


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical code values for given code lengths."""
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.zeros(lengths.size, dtype=np.int64)
    code = 0
    prev_len = 0
    order = sorted((int(l), i) for i, l in enumerate(lengths) if l > 0)
    for length, sym in order:
        code <<= (length - prev_len)
        codes[sym] = code
        code += 1
        prev_len = length
    return codes


@dataclass
class HuffmanTable:
    """Canonical Huffman code table for a contiguous symbol alphabet."""

    lengths: np.ndarray
    codes: np.ndarray

    @classmethod
    def from_lengths(cls, lengths: np.ndarray) -> "HuffmanTable":
        return cls(lengths=lengths, codes=canonical_codes(lengths))

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "HuffmanTable":
        return cls.from_lengths(code_lengths_from_counts(counts))

    @property
    def alphabet_size(self) -> int:
        return int(self.lengths.size)

    # ------------------------------------------------------------------
    # Serialization: alphabet size + 4 bits per symbol length.
    # ------------------------------------------------------------------

    def serialize(self, writer: BitWriter) -> None:
        writer.write(self.alphabet_size, 16)
        for length in self.lengths:
            writer.write(int(length), 4)

    @classmethod
    def deserialize(cls, reader: BitReader) -> "HuffmanTable":
        size = reader.read(16)
        return cls.from_lengths(np.array(
            [reader.read(4) for _ in range(size)], dtype=np.int64))

    # ------------------------------------------------------------------
    # Vectorized encode
    # ------------------------------------------------------------------

    def encode(self, symbols: np.ndarray) -> tuple[bytes, int]:
        """Encode a symbol array; returns (payload bytes, bit length)."""
        symbols = np.asarray(symbols, dtype=np.int64)
        if symbols.size == 0:
            return b"", 0
        if (self.lengths[symbols] == 0).any():
            raise HuffmanError("symbol outside the coded alphabet")
        strings = np.array(
            [format(int(c), f"0{int(l)}b") if l else ""
             for c, l in zip(self.codes, self.lengths)], dtype=object)
        bit_text = "".join(strings[symbols])
        bits = np.frombuffer(bit_text.encode("ascii"), dtype=np.uint8) - 48
        payload = np.packbits(bits).tobytes()
        return payload, len(bit_text)

    # ------------------------------------------------------------------
    # Table-driven decode
    # ------------------------------------------------------------------

    def _decode_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(symbol, length) lookup tables indexed by PEEK_BITS-bit peek."""
        sym_tab = np.zeros(
            1 << PEEK_BITS,
            dtype=np.uint8 if self.alphabet_size <= 256 else np.uint16)
        len_tab = np.zeros(1 << PEEK_BITS, dtype=np.int8)
        for sym in range(self.alphabet_size):
            length = int(self.lengths[sym])
            if length == 0:
                continue
            prefix = int(self.codes[sym]) << (PEEK_BITS - length)
            span = 1 << (PEEK_BITS - length)
            sym_tab[prefix:prefix + span] = sym
            len_tab[prefix:prefix + span] = length
        return sym_tab, len_tab

    def decode(self, payload: bytes, n_symbols: int, nbits: int, *,
               stream: str | None = None, origin: int = 0) -> np.ndarray:
        """Decode the ``n_symbols`` symbols that fill ``nbits`` of payload.

        A Huffman stream has one serial fact — the bit offset where
        symbol *i* starts — and everything else is a gather.  So: look
        up the code length at every bit offset, which makes ``nxt[p]``
        ("the offset after the code starting at ``p``") one array;
        square it ``ANCHOR_DOUBLINGS`` times into "64 symbols on"; walk
        only the anchors (every 64th symbol) with a scalar loop; then
        63 vectorized ``nxt`` steps over the anchor vector give every
        symbol's offset.  Invalid codes and codes running past
        ``nbits`` lead to a self-looping sink at offset ``nbits``, so
        damage is detected on the result rather than per symbol: the
        walk must not reach the sink early and the last symbol must end
        exactly at ``nbits``.

        The result is ``uint8`` for alphabets of up to 256 symbols,
        ``uint16`` beyond.  ``stream`` and ``origin`` (the byte offset
        of ``payload`` within that stream) only locate a
        :class:`HuffmanError`.
        """
        def damaged(message: str, bit: int) -> HuffmanError:
            return HuffmanError(f"{message} at bit {bit}", stream=stream,
                                offset=origin + bit // 8)

        if n_symbols > nbits or nbits > 8 * len(payload):
            # Every code is at least one bit long; checked before any
            # per-bit array is sized from these (untrusted) counts.
            raise damaged(
                f"{n_symbols} symbols cannot fill {nbits} bits of a "
                f"{len(payload)}-byte payload", 0)
        sym_tab, len_tab = self._decode_table()
        if n_symbols == 0:
            if nbits:
                raise damaged(f"{nbits} bits left over after 0 symbols", 0)
            return np.empty(0, dtype=sym_tab.dtype)

        # peek[p]: the PEEK_BITS bits starting at bit p, zero-extended
        # past the payload.  Per-bit arrays stay 16/8/32-bit: they are
        # the decoder's whole working set.
        nbytes = (nbits + 7) // 8
        padded = np.zeros(nbytes + 2, dtype=np.int32)
        padded[:nbytes] = np.frombuffer(payload, dtype=np.uint8,
                                        count=nbytes)
        window = (padded[:-2] << 16) | (padded[1:-1] << 8) | padded[2:]
        peek = ((window[:, None] >> _PHASE_SHIFTS)
                & ((1 << PEEK_BITS) - 1)).astype(np.uint16).ravel()[:nbits]
        lens = len_tab.take(peek)

        nxt = np.arange(
            nbits + 1, dtype=np.int32 if nbits < 2**31 - 1 else np.int64)
        nxt[:-1] += lens
        nxt[:-1][lens == 0] = nbits
        np.minimum(nxt, nbits, out=nxt)
        jump = nxt
        for _ in range(ANCHOR_DOUBLINGS):
            jump = jump.take(jump)

        stride = 1 << ANCHOR_DOUBLINGS
        anchors = [0]
        hop = jump.item
        for _ in range((n_symbols - 1) // stride):
            anchors.append(hop(anchors[-1]))
        pos = np.empty((stride, len(anchors)), dtype=nxt.dtype)
        pos[0] = anchors
        for k in range(1, stride):
            nxt.take(pos[k - 1], out=pos[k], mode="clip")
        pos = pos.T.ravel()[:n_symbols]

        last = int(pos[-1])
        if last == nbits:
            # The walk fell into the sink: the symbol before the first
            # sink entry is the one that is invalid or overruns.
            bad = int(pos[np.searchsorted(pos, nbits) - 1])
            if lens[bad] == 0:
                raise damaged("invalid code", bad)
            raise damaged(
                f"stream ends before its {n_symbols} symbols do", bad)
        if lens[last] == 0:
            raise damaged("invalid code", last)
        end = last + int(lens[last])
        if end != nbits:
            raise damaged(
                f"last symbol ends at bit {end} of a {nbits}-bit stream",
                last)
        return sym_tab.take(peek.take(pos))
