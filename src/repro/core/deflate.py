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


def _bucket_for(value: int, buckets: list[tuple[int, int]]) -> int:
    for i in range(len(buckets) - 1, -1, -1):
        if value >= buckets[i][0]:
            return i
    raise ValueError(f"value {value} below smallest bucket")


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
    tokens = lz77.tokenize(block)

    lit_counts = np.zeros(_ALPHABET_SIZE, dtype=np.int64)
    dist_counts = np.zeros(len(_DISTANCE_BUCKETS), dtype=np.int64)
    lit_counts[_END_SYMBOL] = 1
    for token in tokens:
        if token.literals:
            lit_counts[:256] += np.bincount(
                np.frombuffer(token.literals, dtype=np.uint8),
                minlength=256)
        if token.match_length:
            sym = _LENGTH_BASE + _bucket_for(token.match_length,
                                             _LENGTH_BUCKETS)
            lit_counts[sym] += 1
            dist_counts[_bucket_for(token.distance, _DISTANCE_BUCKETS)] += 1

    lit_table = HuffmanTable.from_counts(lit_counts)
    dist_table = HuffmanTable.from_counts(dist_counts)
    lit_table.serialize(writer)
    dist_table.serialize(writer)

    lit_codes, lit_lens = lit_table.codes, lit_table.lengths
    for token in tokens:
        for byte in token.literals:
            writer.write(int(lit_codes[byte]), int(lit_lens[byte]))
        if token.match_length:
            bucket = _bucket_for(token.match_length, _LENGTH_BUCKETS)
            sym = _LENGTH_BASE + bucket
            base, extra = _LENGTH_BUCKETS[bucket]
            writer.write(int(lit_codes[sym]), int(lit_lens[sym]))
            if extra:
                writer.write(token.match_length - base, extra)
            bucket = _bucket_for(token.distance, _DISTANCE_BUCKETS)
            base, extra = _DISTANCE_BUCKETS[bucket]
            writer.write(int(dist_table.codes[bucket]),
                         int(dist_table.lengths[bucket]))
            if extra:
                writer.write(token.distance - base, extra)
    writer.write(int(lit_codes[_END_SYMBOL]), int(lit_lens[_END_SYMBOL]))


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
