"""Quality-score compression (§5.1.5).

Quality scores are compressed as a stream separate from the DNA bases, in
the same (reordered) read order.  The paper uses Spring's lossless quality
mode for both Spring and SAGe; our stand-in is a block-wise canonical
Huffman coder with an optional order-1 context (previous score), which is
the behaviour that matters for the evaluation: identical ratios for SAGe
and the Spring analog.

The paper keeps quality decode host-side, off the accelerator's
critical path.  In this software reproduction it is *on* the path: with
quality selected it is the second stage of a block decode, after the
DNA kernel.  It has two stages.  Each Huffman sub-stream decodes as a
byte automaton (:meth:`repro.core.huffman.HuffmanTable.decode`): one
table lookup per payload byte, with the byte chain cut into chunks that
are stepped side by side.  On simulated RS2 scores (seeds 71, 3 and
11) an order-0 1024 x 100 bp block decodes in 0.9-1.9 ms and a
128-read block in 0.26-0.66 ms (median of 31 per block over two runs,
2-vCPU VM, numpy 2.4).  The
order-1 model then interleaves its ``CONTEXT_BUCKETS`` sub-streams back
into one, and a score's context is a *decoded* score — a serial
dependence.

The v5 order-1 layout bounds that chain: a block is cut into lanes of
:data:`LANE` consecutive scores, a score's context is the previous
score *in its lane*, and every sub-stream lists its scores
column-major.  So :func:`_unlane` fills one column of every lane
per numpy step — at most 64 steps per block.  On simulated RS2 scores
that step takes ~2.0 ms for a 1024 x 100 bp block, where the per-score
walk took ~8.3 ms, and ~0.7 ms for a 128-read block against ~1.0 ms
(median of 31, 2-vCPU VM, numpy 2.4).  Restarting the chain every 64
scores costs ~1.7 % of order-1 bytes on Markov-correlated scores.  The
v3/v4 layout is the one-lane case, and :func:`_reassemble_order1`, the
per-score walk, is now only its reader.

Each blob holds one model, named by a 1-bit flag in its header, and
:func:`compress` writes whichever codes the blob in fewer bytes,
priced exactly from the two models' histograms.  Order-1 pays only
where a score predicts the next one; on scores without that structure
order-0 is smaller and decodes without any lane step.

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
from .huffman import HuffmanTable, code_lengths_from_counts

#: Quality block size in scores; the paper cites 25 MB blocks for real
#: data — scaled down for the synthetic analogs.
DEFAULT_BLOCK = 1 << 20

#: Number of previous-score context buckets for the order-1 model.
CONTEXT_BUCKETS = 4

#: Scores per lane of the v5 order-1 layout.  Written into each blob's
#: header, so a reader takes the lane length from the bytes.
LANE = 64

#: Bits of a non-empty blob's header: score count, model flag, largest
#: score, block size and lane length.
_HEADER_BITS = 40 + 1 + 8 + 32 + 32


@dataclass
class QualityBlob:
    """Compressed quality stream."""

    payload: bytes
    n_scores: int
    #: Which order-1 layout the payload holds: lanes (v5, what
    #: :func:`compress` writes) or the one-lane walk of v3/v4 archives,
    #: which carries no lane field.  Set by the container parser from
    #: the archive version.
    laned: bool = True

    @property
    def byte_size(self) -> int:
        return len(self.payload)

    @property
    def model(self) -> str | None:
        """``"order0"`` or ``"order1"``, as the model flag (bit 40) says;
        ``None`` for a payload too short to hold the flag."""
        if len(self.payload) <= 5:
            return None
        return "order1" if self.payload[5] & 0x80 else "order0"


def _bucket_width(max_score: int) -> int:
    """Scores per context bucket.  ``score // width`` is below
    :data:`CONTEXT_BUCKETS` for every score up to ``max_score``."""
    return max(1, (max_score + CONTEXT_BUCKETS) // CONTEXT_BUCKETS)


def _lane_split(block: np.ndarray, lane: int,
                max_score: int) -> list[np.ndarray]:
    """One block's order-1 sub-streams in the lane layout.

    The block is cut into lanes of ``lane`` consecutive scores; a
    score's context is the bucket of the previous score in its lane
    (context 0 at lane position 0), and each sub-stream lists its scores
    column-major: lane position first, then lane index.  Built on a
    padded ``uint8`` (lanes, ``lane``) grid, whose padding belongs to
    no sub-stream, with one stable sort of the column-major scores by
    context: the sub-streams are its runs.
    """
    lane = min(lane, block.size)
    grid = np.zeros((-(-block.size // lane), lane), dtype=np.uint8)
    grid.reshape(-1)[:block.size] = block
    ctx = np.zeros_like(grid)
    ctx[:, 1:] = grid[:, :-1] // _bucket_width(max_score)
    ctx.reshape(-1)[block.size:] = CONTEXT_BUCKETS
    ctx = ctx.T.ravel()
    grouped = grid.T.ravel()[np.argsort(ctx, kind="stable")]
    ends = np.cumsum(np.bincount(ctx, minlength=CONTEXT_BUCKETS))
    return np.split(grouped, ends[:CONTEXT_BUCKETS])[:CONTEXT_BUCKETS]


def _write_substream(writer: BitWriter, sub: np.ndarray,
                     lengths: np.ndarray) -> None:
    """Write one (table, count, nbits, payload) record."""
    table = HuffmanTable.from_lengths(lengths)
    table.serialize(writer)
    payload, nbits = table.encode(sub)
    writer.write(sub.size, 32)
    writer.write(nbits, 40)
    writer.align_to_byte()
    writer.write_bytes(payload)


def _counts(scores: np.ndarray, order1: bool, block_size: int,
            max_score: int) -> np.ndarray:
    """Score histogram of every record :func:`_write` writes, shape
    (blocks, records per block, ``max_score + 1``).

    An order-1 block's records are its context sub-streams, counted
    from (context, score) pairs with one ``np.bincount``: what
    :func:`_lane_split` would put in each, without the split.
    """
    records = CONTEXT_BUCKETS if order1 else 1
    alphabet = max_score + 1
    lane = min(LANE, block_size)
    counts = []
    for start in range(0, scores.size, block_size):
        block = scores[start:start + block_size]
        key = np.zeros(block.size, dtype=np.intp)
        if order1:
            key[1:] = block[:-1] // _bucket_width(max_score)
            key[::lane] = 0
            key *= alphabet
        key += block
        counts.append(np.bincount(key, minlength=records * alphabet))
    return np.stack(counts).reshape(-1, records, alphabet)


def _code_lengths(counts: np.ndarray) -> np.ndarray:
    """The Huffman code lengths of every histogram in ``counts``."""
    return np.apply_along_axis(code_lengths_from_counts, -1, counts)


def _nbytes(counts: np.ndarray, lengths: np.ndarray,
            max_score: int) -> int:
    """``len(_write(...).payload)`` for records with these histograms
    and code lengths, priced without writing them: the header, then
    per record a table-and-counts frame padded to a byte and a payload
    of Σ count·length bits padded to a byte."""
    frame = 16 + 4 * (max_score + 1) + 32 + 40
    payload_bits = (counts * lengths).sum(axis=-1)
    return ((_HEADER_BITS + frame + 7) // 8
            + (payload_bits.size - 1) * ((frame + 7) // 8)
            + int(((payload_bits + 7) // 8).sum()))


def _write(scores: np.ndarray, order1: bool,
           block_size: int = DEFAULT_BLOCK,
           lengths: np.ndarray | None = None) -> QualityBlob:
    """Write ``scores`` in the named model, order-1 lanes or order-0.

    ``lengths`` are the code lengths of every record (shaped as
    :func:`_counts`) when the caller has already computed them.
    """
    scores = np.asarray(scores)
    writer = BitWriter()
    writer.write(scores.size, 40)
    writer.write(1 if order1 else 0, 1)
    if scores.size == 0:
        return QualityBlob(writer.getvalue(), 0)
    max_score = int(scores.max())
    writer.write(max_score, 8)
    writer.write(block_size, 32)
    lane = min(LANE, block_size)
    writer.write(lane, 32)
    scores = scores.astype(np.uint8, copy=False)
    if lengths is None:
        lengths = _code_lengths(
            _counts(scores, order1, block_size, max_score))
    for start, block_lengths in zip(range(0, scores.size, block_size),
                                    lengths):
        block = scores[start:start + block_size]
        for sub, sub_lengths in zip(
                _lane_split(block, lane, max_score) if order1 else [block],
                block_lengths):
            _write_substream(writer, sub, sub_lengths)
    return QualityBlob(writer.getvalue(), int(scores.size))


def compress(scores: np.ndarray, order1: bool = True,
             block_size: int = DEFAULT_BLOCK) -> QualityBlob:
    """Compress a concatenated quality-score array losslessly, in
    whichever allowed model codes it in fewer bytes.

    ``order1`` allows the order-1 model; ``False`` forces order-0.
    Both models are priced exactly from their histograms
    (:func:`_nbytes`), and only the cheaper one is written, so
    :func:`_lane_split` runs only when order-1 wins.  Order-0 wins a
    tie, because it decodes without :func:`_unlane`.  Order-1 pays only
    where a score predicts the next one.  Measured on simulated RS2
    archives of 6,144 reads (seeds 71, 3 and 11; median of 31 runs per
    block on a 2-vCPU VM, numpy 2.4):

    - 1,024-read blocks: order-0 in 6 of 6, 0.49-0.50 % fewer quality
      bytes, decode 3.1-6.4 ms -> 0.9-1.9 ms, encode 5.4-7.1 ms ->
      3.8-5.2 ms;
    - 128-read blocks: order-0 in 48 of 48, 3.76 % fewer quality
      bytes, decode 1.4-3.4 ms -> 0.26-0.66 ms, encode 0.8-1.4 ms ->
      0.6-1.0 ms.

    The RS4 analog's long-read scores and Markov-correlated scores keep
    order-1, byte for byte as before.
    """
    scores = np.asarray(scores)
    if not order1 or scores.size == 0:
        return _write(scores, False, block_size)
    max_score = int(scores.max())
    counts1 = _counts(scores, True, block_size, max_score)
    counts0 = counts1.sum(axis=1, keepdims=True)
    lengths1, lengths0 = _code_lengths(counts1), _code_lengths(counts0)
    if _nbytes(counts1, lengths1, max_score) \
            < _nbytes(counts0, lengths0, max_score):
        return _write(scores, True, block_size, lengths1)
    return _write(scores, False, block_size, lengths0)


def _damaged(message: str, reader: BitReader) -> CorruptArchiveError:
    """A quality-stream error located at ``reader``'s byte offset."""
    return CorruptArchiveError(message, stream="quality",
                               offset=reader.position // 8)


def decompress(blob: QualityBlob) -> np.ndarray:
    """Recover the concatenated quality-score array."""
    reader = BitReader(blob.payload, name="quality")
    try:
        return _decompress(reader, blob)
    except BitIOError as exc:
        raise TruncatedArchiveError(
            str(exc), stream="quality",
            offset=reader.position // 8) from exc


def _decompress(reader: BitReader, blob: QualityBlob) -> np.ndarray:
    n_scores = reader.read(40)
    # The container prices the block from its own copy of the count.
    if n_scores != blob.n_scores:
        raise _damaged(
            f"blob holds {n_scores} scores, its container says "
            f"{blob.n_scores}", reader)
    order1 = bool(reader.read(1))
    if n_scores == 0:
        return np.empty(0, dtype=np.uint8)
    max_score = reader.read(8)
    block_size = reader.read(32)
    lane = reader.read(32) if blob.laned else block_size
    # Every score costs at least one bit, so a count the rest of the
    # blob cannot hold is damage — caught before it sizes ``out``.
    if block_size == 0 or n_scores > reader.remaining:
        raise _damaged(
            f"{n_scores} scores in blocks of {block_size} cannot come "
            f"from the {reader.remaining} bits that follow", reader)
    if not 0 < lane <= block_size:
        raise _damaged(
            f"lanes of {lane} scores in blocks of {block_size}", reader)
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
        if not order1:
            out[done:done + block_len] = parts[0]
        elif blob.laned:
            out[done:done + block_len] = _unlane(parts, block_len, lane,
                                                 max_score)
        else:
            out[done:done + block_len] = _reassemble_order1(
                parts, block_len, max_score)
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


def _unlane(parts: list[np.ndarray], block_len: int, lane: int,
            max_score: int) -> np.ndarray:
    """Invert :func:`_lane_split`: one numpy step per lane position.

    Column *j* of every lane is filled at once: the buckets of column
    *j-1* (all zero for column 0) pick each lane's sub-stream, a stable
    sort by bucket lines the lanes up with the next slice of every
    sub-stream, and one scatter puts the slices in place.  Only the
    last lane can be short, so the lanes still running at a column are
    always a prefix.
    """
    width = -(-block_len // lane)
    tail = block_len - (width - 1) * lane     # length of the last lane
    bucket_width = np.uint8(_bucket_width(max_score))
    grid = np.empty((lane, width), dtype=np.uint8)   # one column per row
    starts = [0] * CONTEXT_BUCKETS
    ctx = np.zeros(width, dtype=np.uint8)
    for j in range(min(lane, block_len)):
        rows = width if j < tail else width - 1
        if j:
            ctx = grid[j - 1, :rows] // bucket_width
        counts = np.bincount(ctx, minlength=CONTEXT_BUCKETS).tolist()
        slices = []
        for c, count in enumerate(counts):
            slices.append(parts[c][starts[c]:starts[c] + count])
            starts[c] += count
        column = np.concatenate(slices)
        if column.size != rows:
            raise CorruptArchiveError(
                f"a context sub-stream ran out at lane step {j} of "
                f"{min(lane, block_len)}", stream="quality")
        grid[j, np.argsort(ctx, kind="stable")] = column
    return grid.T.reshape(-1)[:block_len]


def _reassemble_order1(parts: list[np.ndarray], block_len: int,
                       max_score: int) -> np.ndarray:
    """Invert the v3/v4 context split, where a block is one lane and
    scores must be replayed in order.

    The reader of walk-layout blobs only (v5 blobs go through
    :func:`_unlane`), kept to interpreter primitives: each sub-stream
    is a ``bytes`` iterator and a score indexes straight into the bound
    ``__next__`` of the sub-stream its successor was coded in.
    """
    bucket_width = _bucket_width(max_score)
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
