"""Quality-score compression (§5.1.5).

Quality scores are compressed as a stream separate from the DNA bases, in
the same (reordered) read order.  The paper uses Spring's lossless quality
mode for both Spring and SAGe; our stand-in is a block-wise canonical
Huffman coder with an optional order-1 context (previous score), which is
the behaviour that matters for the evaluation: identical ratios for SAGe
and the Spring analog.

The paper keeps quality decode host-side, off the accelerator's
critical path.  In this software reproduction it is *on* the path: with
quality selected it is the largest single stage of a block decode.  It
has two stages.  Each Huffman sub-stream decodes at numpy speed
(:meth:`repro.core.huffman.HuffmanTable.decode`, ~1.3 ms per
sub-stream of a 1024 x 100 bp block).  The order-1 model then has to
interleave its ``CONTEXT_BUCKETS`` sub-streams back into one, and the
context of score *i* is the decoded score *i-1* — a serial dependence
the format bakes in — so :func:`_reassemble_order1` is a per-score walk
(~6 ms per such block, about half of what quality decode costs, and it
holds the GIL).  Removing it takes a format whose context is known before
decoding, not a faster loop.

Everything :func:`decompress` reads from the stream is checked before
it sizes a buffer or bounds a loop, and damage surfaces as a
:class:`~repro.core.errors.CorruptArchiveError` naming the
``"quality"`` stream and the byte offset it was found at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitio import BitIOError, BitReader, BitWriter
from .errors import CorruptArchiveError, TruncatedArchiveError
from .huffman import HuffmanTable

#: Quality block size in scores; the paper cites 25 MB blocks for real
#: data — scaled down for the synthetic analogs.
DEFAULT_BLOCK = 1 << 20

#: Number of previous-score context buckets for the order-1 model.
CONTEXT_BUCKETS = 4


@dataclass
class QualityBlob:
    """Compressed quality stream."""

    payload: bytes
    n_scores: int

    @property
    def byte_size(self) -> int:
        return len(self.payload)


def _context_ids(scores: np.ndarray, max_score: int) -> np.ndarray:
    """Order-1 context: bucket of the previous score (0 for the first)."""
    bucket_width = max(1, (max_score + CONTEXT_BUCKETS) // CONTEXT_BUCKETS)
    ctx = np.empty(scores.size, dtype=np.int64)
    ctx[0] = 0
    ctx[1:] = scores[:-1] // bucket_width
    np.clip(ctx, 0, CONTEXT_BUCKETS - 1, out=ctx)
    return ctx


def compress(scores: np.ndarray, order1: bool = True,
             block_size: int = DEFAULT_BLOCK) -> QualityBlob:
    """Compress a concatenated quality-score array losslessly."""
    scores = np.asarray(scores, dtype=np.int64)
    writer = BitWriter()
    writer.write(scores.size, 40)
    writer.write(1 if order1 else 0, 1)
    if scores.size == 0:
        return QualityBlob(writer.getvalue(), 0)
    max_score = int(scores.max())
    writer.write(max_score, 8)
    n_blocks = (scores.size + block_size - 1) // block_size
    writer.write(block_size, 32)

    for b in range(n_blocks):
        block = scores[b * block_size:(b + 1) * block_size]
        if order1:
            ctx = _context_ids(block, max_score)
            for c in range(CONTEXT_BUCKETS):
                sub = block[ctx == c]
                counts = np.bincount(sub, minlength=max_score + 1)
                table = HuffmanTable.from_counts(counts)
                table.serialize(writer)
                payload, nbits = table.encode(sub)
                writer.write(sub.size, 32)
                writer.write(nbits, 40)
                writer.align_to_byte()
                writer.write_bytes(payload)
        else:
            counts = np.bincount(block, minlength=max_score + 1)
            table = HuffmanTable.from_counts(counts)
            table.serialize(writer)
            payload, nbits = table.encode(block)
            writer.write(block.size, 32)
            writer.write(nbits, 40)
            writer.align_to_byte()
            writer.write_bytes(payload)
    return QualityBlob(writer.getvalue(), int(scores.size))


def _damaged(message: str, reader: BitReader) -> CorruptArchiveError:
    """A quality-stream error located at ``reader``'s byte offset."""
    return CorruptArchiveError(message, stream="quality",
                               offset=reader.position // 8)


def decompress(blob: QualityBlob) -> np.ndarray:
    """Recover the concatenated quality-score array."""
    reader = BitReader(blob.payload, name="quality")
    try:
        return _decompress(reader)
    except BitIOError as exc:
        raise TruncatedArchiveError(
            str(exc), stream="quality",
            offset=reader.position // 8) from exc


def _decompress(reader: BitReader) -> np.ndarray:
    n_scores = reader.read(40)
    order1 = bool(reader.read(1))
    if n_scores == 0:
        return np.empty(0, dtype=np.uint8)
    max_score = reader.read(8)
    block_size = reader.read(32)
    # Every score costs at least one bit, so a count the rest of the
    # blob cannot hold is damage — caught before it sizes ``out``.
    if block_size == 0 or n_scores > reader.remaining:
        raise _damaged(
            f"{n_scores} scores in blocks of {block_size} cannot come "
            f"from the {reader.remaining} bits that follow", reader)
    out = np.empty(n_scores, dtype=np.uint8)
    for done in range(0, n_scores, block_size):
        block_len = min(block_size, n_scores - done)
        parts = [_read_substream(reader, block_len, max_score)
                 for _ in range(CONTEXT_BUCKETS if order1 else 1)]
        decoded = sum(part.size for part in parts)
        if decoded != block_len:
            raise _damaged(
                f"sub-streams hold {decoded} scores for a block of "
                f"{block_len}", reader)
        out[done:done + block_len] = _reassemble_order1(
            parts, block_len, max_score) if order1 else parts[0]
    return out


def _read_substream(reader: BitReader, block_len: int,
                    max_score: int) -> np.ndarray:
    """Read one (table, count, nbits, payload) record and decode it."""
    table = HuffmanTable.deserialize(reader)
    count = reader.read(32)
    nbits = reader.read(40)
    reader.align_to_byte()
    if table.alphabet_size != max_score + 1:
        raise _damaged(
            f"code table has {table.alphabet_size} symbols, scores "
            f"run to {max_score}", reader)
    # ``count`` and ``nbits`` are wire data, each rejected by the layer
    # that can judge it before anything is sized from it: ``count``
    # against the block here, ``nbits`` against the bits left by
    # ``read_bytes``, ``count`` against ``nbits`` by ``decode``.
    if count > block_len:
        raise _damaged(
            f"sub-stream claims {count} scores in a block of "
            f"{block_len}", reader)
    origin = reader.position // 8
    payload = reader.read_bytes((nbits + 7) // 8)
    return table.decode(payload, count, nbits, stream="quality",
                        origin=origin)


def _reassemble_order1(parts: list[np.ndarray], block_len: int,
                       max_score: int) -> np.ndarray:
    """Invert the context split: scores must be replayed in order.

    The one per-score loop left in the decoder, kept to interpreter
    primitives: each sub-stream is a ``bytes`` iterator and a score
    indexes straight into the bound ``__next__`` of the sub-stream its
    successor was coded in.
    """
    bucket_width = max(1, (max_score + CONTEXT_BUCKETS) // CONTEXT_BUCKETS)
    streams = [iter(part.tobytes()).__next__ for part in parts]
    following = [streams[min(score // bucket_width, CONTEXT_BUCKETS - 1)]
                 for score in range(256)]
    out = bytearray(block_len)
    take = streams[0]
    try:
        for i in range(block_len):
            score = take()
            out[i] = score
            take = following[score]
    except StopIteration:
        raise CorruptArchiveError(
            f"a context sub-stream ran out at score {i} of {block_len}",
            stream="quality") from None
    return np.frombuffer(out, dtype=np.uint8)
