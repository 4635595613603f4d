"""DEFLATE-like general-purpose compressor — the pigz analog.

pigz (parallel gzip) compresses independent-ish blocks in parallel but
produces a stream that must be *decompressed serially* — the property that
makes it a data-preparation bottleneck in §3.1.  This module reproduces
the format shape: per-block LZ77 + canonical Huffman with DEFLATE's merged
literal/length alphabet (0-255 literals, 256 end, 257+ length buckets)
plus a separate distance alphabet, 128 KiB blocks.

It lives under ``core`` because the archive's stored-header stream
(:mod:`repro.core.headers`) is written with it; the pigz/Spring analogs
in :mod:`repro.baselines` import it from here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lz77
from ..genomics.reads import run_index
from .bitio import BitReader, BitWriter
from .errors import CorruptArchiveError
from .huffman import HuffmanTable

#: pigz default block size.
BLOCK_SIZE = 128 * 1024

_END_SYMBOL = 256
_LENGTH_BASE = 257

# Length buckets: (base, extra_bits); covers 4..259.
_LENGTH_BUCKETS = [(4, 0), (5, 0), (6, 0), (7, 0), (8, 1), (10, 1),
                   (12, 2), (16, 2), (20, 3), (28, 3), (36, 4), (52, 4),
                   (68, 5), (100, 5), (132, 6), (196, 6)]

# Distance buckets: powers of two up to the 32 KiB window.
_DISTANCE_BUCKETS = [(1, 0), (2, 0), (3, 0), (4, 1), (6, 1), (8, 2),
                     (12, 2), (16, 3), (24, 3), (32, 4), (48, 4), (64, 5),
                     (96, 5), (128, 6), (192, 6), (256, 7), (384, 7),
                     (512, 8), (768, 8), (1024, 9), (1536, 9), (2048, 10),
                     (3072, 10), (4096, 11), (6144, 11), (8192, 12),
                     (12288, 12), (16384, 13), (24576, 13)]

_ALPHABET_SIZE = _LENGTH_BASE + len(_LENGTH_BUCKETS)


_LENGTH_BASES, _LENGTH_EXTRA = np.array(_LENGTH_BUCKETS).T
_DISTANCE_BASES, _DISTANCE_EXTRA = np.array(_DISTANCE_BUCKETS).T


@dataclass
class DeflateBlob:
    """A compressed stream of independently coded blocks."""

    payload: bytes
    n_blocks: int
    original_size: int

    @property
    def byte_size(self) -> int:
        return len(self.payload)


def compress(data: bytes, block_size: int = BLOCK_SIZE) -> DeflateBlob:
    """Compress ``data`` into a block-parallel DEFLATE-like blob."""
    writer = BitWriter()
    n_blocks = max(1, (len(data) + block_size - 1) // block_size)
    writer.write(len(data), 40)
    writer.write(n_blocks, 24)
    for b in range(n_blocks):
        block = data[b * block_size:(b + 1) * block_size]
        _compress_block(block, writer)
    return DeflateBlob(writer.getvalue(), n_blocks, len(data))


def _compress_block(block: bytes, writer: BitWriter) -> None:
    """One block: its LZ77 tokens' symbols, the two Huffman tables, and
    every field in one :meth:`BitWriter.write_fields` call.  Token ``t``
    writes its literals, then — if it ends in a match — four fields:
    length symbol, length extra bits, distance symbol, distance extra
    bits (an extra field may be 0 bits wide); the block ends with the
    end symbol."""
    tokens = lz77.tokenize(block)
    literals = np.frombuffer(b"".join(token.literals for token in tokens),
                             dtype=np.uint8)
    n_lit = np.array([len(token.literals) for token in tokens],
                     dtype=np.int64)
    length = np.array([token.match_length for token in tokens],
                      dtype=np.int64)
    distance = np.array([token.distance for token in tokens],
                        dtype=np.int64)
    matched = length > 0
    length, distance = length[matched], distance[matched]
    # A value's bucket is the last one whose base it reaches.
    len_bucket = np.searchsorted(_LENGTH_BASES, length, side="right") - 1
    dist_bucket = np.searchsorted(_DISTANCE_BASES, distance,
                                  side="right") - 1

    lit_counts = np.zeros(_ALPHABET_SIZE, dtype=np.int64)
    lit_counts[:256] = np.bincount(literals, minlength=256)
    lit_counts[_END_SYMBOL] = 1
    lit_counts[_LENGTH_BASE:] = np.bincount(len_bucket,
                                            minlength=len(_LENGTH_BUCKETS))
    dist_counts = np.bincount(dist_bucket, minlength=len(_DISTANCE_BUCKETS))
    lit_table = HuffmanTable.from_counts(lit_counts)
    dist_table = HuffmanTable.from_counts(dist_counts)
    lit_table.serialize(writer)
    dist_table.serialize(writer)

    lit_codes = np.asarray(lit_table.codes, dtype=np.int64)
    lit_lens = np.asarray(lit_table.lengths, dtype=np.int64)
    fields = n_lit + 4 * matched
    first = np.cumsum(fields) - fields        # each token's first field
    values = np.empty(int(fields.sum()) + 1, dtype=np.int64)
    widths = np.empty_like(values)
    at = run_index(first, n_lit)
    values[at], widths[at] = lit_codes[literals], lit_lens[literals]
    at = (first + n_lit)[matched]
    sym = _LENGTH_BASE + len_bucket
    for k, (value, width) in enumerate((
            (lit_codes[sym], lit_lens[sym]),
            (length - _LENGTH_BASES[len_bucket], _LENGTH_EXTRA[len_bucket]),
            (np.asarray(dist_table.codes, dtype=np.int64)[dist_bucket],
             np.asarray(dist_table.lengths, dtype=np.int64)[dist_bucket]),
            (distance - _DISTANCE_BASES[dist_bucket],
             _DISTANCE_EXTRA[dist_bucket]))):
        values[at + k], widths[at + k] = value, width
    values[-1], widths[-1] = lit_codes[_END_SYMBOL], lit_lens[_END_SYMBOL]
    writer.write_fields(values, widths)


def decompress(blob: DeflateBlob) -> bytes:
    """Serial decompression (the pigz bottleneck shape)."""
    reader = BitReader(blob.payload)
    total = reader.read(40)
    n_blocks = reader.read(24)
    out = bytearray()
    for _ in range(n_blocks):
        _decompress_block(reader, out)
    if len(out) != total:
        raise CorruptArchiveError(
            f"decompressed {len(out)} bytes, expected {total}")
    return bytes(out)


def _decompress_block(reader: BitReader, out: bytearray) -> None:
    lit_decode = _tree_decoder(HuffmanTable.deserialize(reader))
    dist_decode = _tree_decoder(HuffmanTable.deserialize(reader))
    while True:
        sym = lit_decode(reader)
        if sym == _END_SYMBOL:
            return
        if sym < 256:
            out.append(sym)
            continue
        base, extra = _LENGTH_BUCKETS[sym - _LENGTH_BASE]
        length = base + (reader.read(extra) if extra else 0)
        bucket = dist_decode(reader)
        base, extra = _DISTANCE_BUCKETS[bucket]
        distance = base + (reader.read(extra) if extra else 0)
        start = len(out) - distance
        if start < 0:
            raise CorruptArchiveError(
                "match distance reaches before stream start")
        for k in range(length):
            out.append(out[start + k])


def _tree_decoder(table: HuffmanTable):
    """Canonical bit-serial decoder; returns a callable(reader) -> symbol."""
    by_length: dict[int, list[int]] = {}
    for sym, length in enumerate(table.lengths):
        if length > 0:
            by_length.setdefault(int(length), []).append(sym)
    first_code: dict[int, int] = {}
    symbols: dict[int, list[int]] = {}
    code = 0
    prev = 0
    for length in sorted(by_length):
        code <<= (length - prev)
        first_code[length] = code
        symbols[length] = by_length[length]
        code += len(by_length[length])
        prev = length

    def decode(reader: BitReader) -> int:
        acc = 0
        length = 0
        while True:
            acc = (acc << 1) | reader.read_bit()
            length += 1
            if length in first_code:
                offset = acc - first_code[length]
                if 0 <= offset < len(symbols[length]):
                    return symbols[length][offset]
            if length > 15:
                raise CorruptArchiveError("invalid Huffman stream")

    return decode
