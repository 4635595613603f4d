"""SAGe archive container.

A compressed read set is a self-contained byte blob.  The **version 3**
layout is block-based, mirroring the SSD data layout of §5.3: a global
header (flags, consensus stream) is followed by a fixed-size *block
index* and a sequence of independently decodable *block payloads*.  Each
block covers a contiguous run of input reads and carries its own tuned
Association Tables (the "Array Config. Parameters" loaded into the Scan
Unit), array streams, and quality/header side channels, so any block can
be decoded in O(1) seek time without touching the others — exactly the
property the hardware exploits to stripe independent archive sections
across SSD channels (§5.3–5.4).

The **version 4** layout is v3 plus end-to-end integrity digests: a
CRC32 over the global header, a CRC32 over the consensus payload, and a
CRC32 per block payload carried in the block index — so a flipped bit
anywhere is *detected* and *localized* to one block instead of decoding
into silent garbage.

The **version 5** layout is v4 with lane-ordered quality blobs
(:func:`repro.core.quality.compress`): order-1 scores are cut into lanes
whose context chain restarts every :data:`~repro.core.quality.LANE`
scores, so the decoder steps every lane one column at a time.  Each
blob's own model flag says whether it holds order-1 lanes or order-0
scores, and the writer picks the smaller of the two per blob.  Only the
quality payload differs; the version byte is what tells the block parser
which quality layout a blob holds (every version after v4 holds lanes).
v5 is the one layout written for freshly compressed blocks.  v3 and v4
blobs are still read by :meth:`SAGeArchive.from_bytes`: a v4 archive
saves as its own bytes, and a v3 one re-saves as v4 (the same bytes plus
the digests) — never as v5, whose version byte would make its
walk-layout quality decode as lanes.

An archive is its bytes.  Every :class:`SAGeArchive` is backed by one
blob: :meth:`SAGeArchive.from_blocks` serializes freshly compressed
blocks once, through the one writer, and parses the result like any
loaded file, keeping the blocks it was given as the parse cache.

Byte layout (v4 and v5; v3 is the same without the ``crc`` fields)::

    +--------------------------------------------------------------+
    | global header: magic, version, level, flags, totals,         |
    |                consensus length, bit widths, n_blocks,       |
    |                block_reads, header crc32                     |
    +--------------------------------------------------------------+
    | consensus stream (2-bit packed, stored once) + crc32         |
    +--------------------------------------------------------------+
    | block index: n_blocks x (n_mapped, n_unmapped, payload size, |
    |                          payload crc32)                      |
    +--------------------------------------------------------------+
    | block payload 0 | block payload 1 | ... | block payload N-1  |
    +--------------------------------------------------------------+

Each block payload: per-block flags and bit widths, Association Tables,
the array streams of §5.1 (without the consensus), then optional quality
and header blobs for that block's reads.
"""

from __future__ import annotations

import mmap
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import quality as quality_codec
from .bitio import BitIOError, BitReader, BitWriter
from .errors import (ContainerError, CorruptArchiveError, SAGeError,
                     TruncatedArchiveError)
from .mismatch import OptLevel, SizeBreakdown
from .prefix_codes import MAX_WIDTH, AssociationTable

MAGIC = 0x53414745  # "SAGE"

#: Current layout (checksummed, lane-ordered quality), the one version
#: written for freshly compressed blocks.
VERSION = 5

#: Checksummed layout with walk-ordered quality: read, and written only
#: to re-save a v3 or v4 source.
V4_VERSION = 4

#: Block-based layout without integrity digests, still read.
V3_VERSION = 3

#: Streams in serialization order.  ``consensus`` is the packed consensus;
#: the rest are the arrays of §5.1 plus side/corner/unmapped payloads.
STREAM_NAMES = ("consensus", "mpga", "mpa", "mmpga", "mmpa", "mbta",
                "side", "corner", "unmapped", "lengths", "order")

#: Per-block streams (everything but the shared consensus).
BLOCK_STREAM_NAMES = STREAM_NAMES[1:]

#: Table identifiers in serialization order.
_TABLE_ORDER = ("mp", "count", "mmp", "len", "indel")

#: Bytes per v4 block-index entry: n_mapped 40 + n_unmapped 40 + size
#: 32 + payload crc32 32 bits (v3 entries lack the crc).
_INDEX_ENTRY_NBYTES = 18


def _checksum(payload: bytes) -> int:
    """The container's integrity digest (CRC32 as an unsigned 32-bit)."""
    return zlib.crc32(payload) & 0xFFFFFFFF


@dataclass(frozen=True)
class BlockIndexEntry:
    """One entry of the v3/v4 top-level block index."""

    n_mapped: int
    n_unmapped: int
    nbytes: int            # serialized payload length
    offset: int            # payload byte offset within the blocked blob
    #: CRC32 of the serialized payload (``None`` for v3 archives, which
    #: carry no digests).
    crc32: int | None = None
    #: Global position of the block's first read (the cumulative read
    #: count of the blocks before it) — the numbering base of fallback
    #: read names and of read-range lookups.
    first_read: int = 0

    @property
    def n_reads(self) -> int:
        return self.n_mapped + self.n_unmapped


@dataclass
class SAGeBlock:
    """One independently decodable section of an archive.

    A block is the unit of parallel compression, random access, and
    SSD-channel striping.  It is self-contained up to the shared
    consensus: per-block flags, bit widths, tuned tables, array streams,
    and optional quality/header blobs for the block's reads.
    """

    n_mapped: int
    n_unmapped: int
    long_reads: bool
    fixed_length: bool
    fixed_read_length: int
    w_rlen: int
    tables: dict[str, AssociationTable]
    streams: dict[str, tuple[bytes, int]]     # name -> (payload, bit length)
    quality: quality_codec.QualityBlob | None = None
    headers_blob: bytes | None = None
    # Metadata (not serialized):
    breakdown: SizeBreakdown = field(default_factory=SizeBreakdown)
    permutation: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def n_reads(self) -> int:
        return self.n_mapped + self.n_unmapped

    def decoded_nbytes_estimate(self, fallback_header_nbytes: int = 0
                                ) -> int:
        """Bytes of this block's FASTQ, ``2 * bases + 6 * n_reads +
        header bytes`` — what ``sage serve``'s cache is charged for it.

        Priced from stream metadata alone — no decode happens — so a
        server can size its cache from ``sage inspect --json`` output.
        Base count comes from the quality-score count when present
        (exact: one score per base), from ``n_reads * fixed_read_length``
        for fixed-length blocks, else from the sequence stream bit
        totals at ~2 bits/base.  Stored headers are deflate-compressed
        text, budgeted at 4x expansion; a block that stores none is
        charged the (exact) ``fallback_header_nbytes`` of names its
        archive gives it (:meth:`SAGeArchive.fallback_headers`).
        """
        if self.quality is not None:
            bases = self.quality.n_scores
        elif self.fixed_length:
            bases = self.n_reads * self.fixed_read_length
        else:
            seq_bits = sum(
                bits for name, (_, bits) in self.streams.items()
                if name != "order")
            bases = max(self.n_reads, seq_bits // 2)
        headers = 4 * len(self.headers_blob) \
            if self.headers_blob is not None else fallback_header_nbytes
        return 2 * bases + 6 * self.n_reads + headers

    # -- serialization -------------------------------------------------

    def _write_meta(self, writer: BitWriter) -> None:
        writer.write_bit(self.long_reads)
        writer.write_bit(self.fixed_length)
        writer.write_bit(self.quality is not None)
        writer.write_bit(self.headers_blob is not None)
        writer.write(self.fixed_read_length, 32)
        writer.write(self.n_mapped, 40)
        writer.write(self.n_unmapped, 40)
        writer.write(self.w_rlen, 6)
        for key in _TABLE_ORDER:
            present = key in self.tables
            writer.write_bit(present)
            if present:
                self.tables[key].serialize(writer)
        writer.align_to_byte()

    def meta_nbytes(self) -> int:
        """Serialized size of the block header (flags + tables)."""
        writer = BitWriter()
        self._write_meta(writer)
        return len(writer.getvalue())

    def section_nbytes(self) -> tuple[int, int, int]:
        """Serialized ``(dna, quality, headers)`` section sizes, framing
        included: what :meth:`serialize` writes for the block header
        plus array streams, the quality blob, and the header blob (``0``
        for an absent section).  Their sum is ``len(serialize())``."""
        dna = self.meta_nbytes() + sum(
            8 + len(self.streams[name][0]) for name in BLOCK_STREAM_NAMES)
        quality = 10 + self.quality.byte_size \
            if self.quality is not None else 0
        headers = 5 + len(self.headers_blob) \
            if self.headers_blob is not None else 0
        return dna, quality, headers

    def serialize(self) -> bytes:
        """Render the block as an independently decodable payload."""
        writer = BitWriter()
        self._write_meta(writer)
        for name in BLOCK_STREAM_NAMES:
            payload, bits = self.streams[name]
            writer.write(bits, 40)
            writer.write(len(payload), 24)
            writer.align_to_byte()
            writer.write_bytes(payload)
        if self.quality is not None:
            writer.write(len(self.quality.payload), 40)
            writer.write(self.quality.n_scores, 40)
            writer.align_to_byte()
            writer.write_bytes(self.quality.payload)
        if self.headers_blob is not None:
            writer.write(len(self.headers_blob), 40)
            writer.align_to_byte()
            writer.write_bytes(self.headers_blob)
        return writer.getvalue()

    @classmethod
    def deserialize(cls, payload: "bytes | memoryview",
                    version: int = VERSION) -> "SAGeBlock":
        """Parse one block payload written by :meth:`serialize` into an
        archive of container ``version``, which decides the layout of
        its quality blob.

        ``payload`` may be a zero-copy ``memoryview`` (mmap-backed
        archives); parsed streams are always materialized as ``bytes``,
        so a parsed block never pins its source mapping.  Malformed
        payloads fail with a typed :class:`SAGeError`
        (:class:`CorruptArchiveError` unless a more specific subclass
        applies) — never a bare ``IndexError``/``KeyError``.
        """
        try:
            return cls._deserialize(payload, version)
        except SAGeError:
            raise
        except Exception as exc:
            raise CorruptArchiveError(
                f"malformed block payload ({exc})") from exc

    @classmethod
    def _deserialize(cls, payload: "bytes | memoryview",
                     version: int) -> "SAGeBlock":
        reader = BitReader(payload)
        long_reads = bool(reader.read_bit())
        fixed_length = bool(reader.read_bit())
        has_quality = bool(reader.read_bit())
        has_headers = bool(reader.read_bit())
        fixed_read_length = reader.read(32)
        n_mapped = reader.read(40)
        n_unmapped = reader.read(40)
        w_rlen = reader.read(6)
        if w_rlen > MAX_WIDTH:
            raise CorruptArchiveError(
                f"read-length width {w_rlen} out of range")
        tables: dict[str, AssociationTable] = {}
        for key in _TABLE_ORDER:
            if reader.read_bit():
                tables[key] = AssociationTable.deserialize(reader)
        reader.align_to_byte()
        streams: dict[str, tuple[bytes, int]] = {}
        for name in BLOCK_STREAM_NAMES:
            bits = reader.read(40)
            nbytes = reader.read(24)
            reader.align_to_byte()
            streams[name] = (reader.read_bytes(nbytes), bits)
        quality = None
        if has_quality:
            nbytes = reader.read(40)
            n_scores = reader.read(40)
            reader.align_to_byte()
            quality = quality_codec.QualityBlob(
                reader.read_bytes(nbytes), n_scores,
                laned=version > V4_VERSION)
        headers_blob = None
        if has_headers:
            nbytes = reader.read(40)
            reader.align_to_byte()
            headers_blob = reader.read_bytes(nbytes)
        return cls(n_mapped=n_mapped, n_unmapped=n_unmapped,
                   long_reads=long_reads, fixed_length=fixed_length,
                   fixed_read_length=fixed_read_length, w_rlen=w_rlen,
                   tables=tables, streams=streams, quality=quality,
                   headers_blob=headers_blob)


@dataclass
class SAGeArchive:
    """A SAGe-compressed read set, backed by the blob it was written as.

    One shape: the global header fields, the shared consensus stream
    (stored once), and ``blocks`` — at least one independently decodable
    :class:`SAGeBlock`, which is where every per-section table, stream
    and side blob lives.  One backing: every archive holds its source
    bytes and their block index (:meth:`from_bytes` / :meth:`open` parse
    a file; :meth:`from_blocks` writes the blocks it is given and parses
    that).  ``blocks`` is a parse cache over those bytes: an entry is
    parsed on first access (:meth:`block`) and dropped again by
    :meth:`release_block`, so random access to block *i* touches only
    its bytes.  A fresh archive starts with every entry cached.
    """

    level: OptLevel
    long_reads: bool
    fixed_length: bool
    fixed_read_length: int
    n_mapped: int
    n_unmapped: int
    consensus_length: int
    w_rlen: int
    w_cons: int
    #: The 2-bit packed consensus as ``(payload, bit length)``.
    consensus: tuple[bytes, int]
    #: The parse cache: per-block sections; an entry is ``None`` until
    #: parsed from the source blob.
    blocks: list[SAGeBlock | None]
    preserve_order: bool = False              # "order" streams present
    #: Configured reads-per-block partition size (0 = monolithic).
    block_reads: int = 0
    # Metadata (not serialized):
    breakdown: SizeBreakdown = field(default_factory=SizeBreakdown)
    name: str = ""
    #: Container version of the source bytes (:data:`VERSION` for a
    #: fresh archive).
    source_version: int = VERSION

    def __post_init__(self) -> None:
        #: The source bytes.  A ``memoryview`` for archives opened with
        #: :meth:`open` (zero-copy, mmap-backed); plain ``bytes``
        #: otherwise.  ``None`` only after :meth:`close`.
        self._source_blob: bytes | memoryview | None = None
        self._index: list[BlockIndexEntry] = []
        self._mmap: mmap.mmap | None = None
        #: Path of the backing file for archives opened with :meth:`open`
        #: — process-pool decode workers open the same file themselves.
        self.source_path: Path | None = None
        #: ``(st_dev, st_ino, st_size, st_mtime_ns)`` of the file
        #: :meth:`open` mapped, which a worker opening the path checks.
        self.file_identity: tuple[int, int, int, int] | None = None

    @classmethod
    def from_blocks(cls, blocks: list[SAGeBlock], *, level: OptLevel,
                    consensus: tuple[bytes, int], consensus_length: int,
                    preserve_order: bool = False, block_reads: int = 0,
                    name: str = "") -> "SAGeArchive":
        """Write compressed ``blocks`` (at least one) as an archive.

        The single place that knows how blocks combine with the shared
        global state: the global header fields are derived from the
        blocks, each block is serialized exactly once into one blob,
        and the archive returned is :meth:`from_bytes` of that blob with
        ``blocks`` and ``consensus`` kept as its parse cache.  The blob
        is :data:`VERSION` unless a block carries walk-layout quality
        parsed from a v3/v4 archive (a :meth:`block_view` of one), which
        only :data:`V4_VERSION` can hold.
        ``block_reads`` is the header field, written verbatim.  The
        Fig. 17 breakdown sums what each block charged for itself plus
        what only the container owns — the consensus and the header
        material, each charged once.
        """
        layouts = {b.quality.laned for b in blocks if b.quality is not None}
        if len(layouts) > 1:
            raise ContainerError("blocks mix v5 and v3/v4 quality layouts")
        fixed_lengths = {b.fixed_read_length for b in blocks
                         if b.n_reads and b.fixed_length}
        fixed_length = (all(b.fixed_length for b in blocks)
                        and len(fixed_lengths) <= 1)
        header = cls(
            level=level, long_reads=any(b.long_reads for b in blocks),
            fixed_length=fixed_length,
            fixed_read_length=fixed_lengths.pop()
            if (fixed_length and fixed_lengths) else 0,
            n_mapped=sum(b.n_mapped for b in blocks),
            n_unmapped=sum(b.n_unmapped for b in blocks),
            consensus_length=consensus_length,
            w_rlen=max(b.w_rlen for b in blocks),
            w_cons=max(1, consensus_length.bit_length()),
            consensus=consensus, blocks=list(blocks),
            preserve_order=preserve_order, block_reads=block_reads,
            source_version=V4_VERSION if False in layouts else VERSION)
        archive = cls.from_bytes(
            header._write([(blk, blk.serialize()) for blk in blocks]))
        archive.blocks, archive.consensus = header.blocks, consensus
        archive.name = name
        archive.breakdown.charge("consensus", consensus[1])
        for blk in blocks:
            for category, bits in blk.breakdown.bits.items():
                archive.breakdown.charge(category, bits)
        archive.breakdown.charge("header",
                                 8 * archive.header_bytes_estimate())
        return archive

    # ------------------------------------------------------------------
    # File-backed (mmap) archives
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path) -> "SAGeArchive":
        """Map an archive file and parse it lazily, zero-copy.

        The file is ``mmap``-ed read-only and parsed through
        :meth:`from_bytes` over a :class:`memoryview`: only the global
        header, the consensus stream, and the block index are actually
        read at open time — block payloads stay untouched (unread
        pages) until first access, when :meth:`block` hands the parser
        a zero-copy ``memoryview`` slice whose CRC32 is verified on the
        view.  No payload is copied on the intact path.

        The archive records its :attr:`source_path` and
        :attr:`file_identity`, which is what lets process-pool decode
        workers open the same file themselves instead of receiving
        payload bytes.  Call :meth:`close` (or let
        the dataset session do it) to drop the mapping; writers never
        mutate a mapped file in place
        (:func:`repro.api.dataset.atomic_write_bytes` replaces the
        whole file, leaving existing mappings valid).
        """
        path = Path(path)
        with open(path, "rb") as handle:
            stat = os.fstat(handle.fileno())
            try:
                mapped = mmap.mmap(handle.fileno(), 0,
                                   access=mmap.ACCESS_READ)
            except ValueError as exc:       # an empty file cannot map
                raise TruncatedArchiveError(
                    "buffer too short for a SAGe archive header",
                    offset=0, expected=5, actual=0) from exc
        view = memoryview(mapped)
        try:
            archive = cls.from_bytes(view)
        except BaseException:
            view.release()
            mapped.close()
            raise
        archive._mmap = mapped
        archive.source_path = path
        archive.file_identity = (stat.st_dev, stat.st_ino, stat.st_size,
                                 stat.st_mtime_ns)
        return archive

    @property
    def file_backed(self) -> bool:
        """True when block payloads can be re-read from
        :attr:`source_path` (another process can :meth:`open` it)."""
        return (self.source_path is not None
                and self._source_blob is not None)

    def close(self) -> None:
        """Drop the source bytes (and the memory map behind an
        :meth:`open`-ed archive).

        Blocks parsed so far keep working (their streams are copies);
        *unparsed* blocks become inaccessible.  If a payload view is
        still exported (e.g. an array wrapping it), the mapping is left
        to the garbage collector instead of invalidating the view.

        Contract: ``close`` is idempotent and safe to call from any
        thread, including while another thread is mid-decode.  The blob
        and mapping references are detached *before* being released, so
        a concurrent reader either got its payload slice in time or
        fails with a typed :class:`ContainerError` ("archive closed") —
        never a crash or a bare ``TypeError``/``ValueError``.
        """
        # Detach-then-release: readers snapshot self._source_blob, so
        # swapping the attribute first is what makes concurrent close
        # safe — a racing decode holds either the live view (which
        # release() leaves usable for existing exports) or None.
        blob, self._source_blob = self._source_blob, None
        mapped, self._mmap = self._mmap, None
        if isinstance(blob, memoryview):
            try:
                blob.release()
            except BufferError:      # a payload sub-view lives on
                pass
        if mapped is not None:
            try:
                mapped.close()
            except BufferError:      # an exported payload view lives on
                pass

    def release_block(self, index: int) -> None:
        """Drop the parsed form of block ``index``.

        The inverse of the lazy parse in :meth:`block`: a streaming
        pass that has fully consumed a block calls this so a whole-
        archive walk holds O(window) parsed blocks, not O(n_blocks).
        The next :meth:`block` re-parses it from the source bytes; a
        closed archive, which has none left, keeps what it parsed.
        """
        if self._source_blob is not None:
            self.blocks[index] = None

    # ------------------------------------------------------------------
    # Block access
    # ------------------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        """Number of independently decodable sections (>= 1)."""
        return len(self.blocks)

    @property
    def n_reads(self) -> int:
        return self.n_mapped + self.n_unmapped

    def block(self, index: int) -> SAGeBlock:
        """Section ``index``, parsing it from the source blob on demand."""
        if not 0 <= index < len(self.blocks):
            raise ContainerError(
                f"block {index} out of range (archive has "
                f"{len(self.blocks)} blocks)")
        parsed = self.blocks[index]
        if parsed is None:
            entry = self.block_index()[index]
            payload = self._checked_payload(index, entry)
            try:
                parsed = SAGeBlock.deserialize(payload, self.source_version)
            except CorruptArchiveError as exc:
                raise CorruptArchiveError(
                    str(exc.message), block_index=index, stream=exc.stream,
                    offset=exc.offset if exc.offset is not None
                    else entry.offset) from exc
            # No digest covers the index entries, and the read count of
            # an entry sizes the block's fallback names.
            if (parsed.n_mapped, parsed.n_unmapped) \
                    != (entry.n_mapped, entry.n_unmapped):
                raise CorruptArchiveError(
                    f"block index lists {entry.n_reads} reads, the "
                    f"payload {parsed.n_reads}", block_index=index,
                    offset=entry.offset)
            self.blocks[index] = parsed
        return parsed

    def _checked_payload(self, index: int,
                         entry: BlockIndexEntry) -> "bytes | memoryview":
        """Slice block ``index``'s payload from the blob, digest-checked.

        The single decode-time integrity gate of checksummed archives,
        in the parent and in pool workers alike: any payload whose stored
        CRC32 does not match raises :class:`CorruptArchiveError` naming
        the block and offset, before a single stream bit is parsed.
        For mmap-backed archives the slice is a zero-copy
        ``memoryview`` and the CRC runs on the view — no ``bytes()``
        copy on the intact path.
        """
        blob = self._source_blob
        if blob is None:
            raise ContainerError(
                f"block {index} has no payload (archive closed)")
        try:
            payload = blob[entry.offset:entry.offset + entry.nbytes]
        except ValueError as exc:   # released view: close() raced us
            raise ContainerError(
                f"block {index} has no payload (archive closed)") from exc
        if len(payload) != entry.nbytes:
            raise TruncatedArchiveError(
                "block payload truncated", block_index=index,
                offset=entry.offset, expected=entry.nbytes,
                actual=len(payload))
        if entry.crc32 is not None and _checksum(payload) != entry.crc32:
            raise CorruptArchiveError(
                "block payload checksum mismatch", block_index=index,
                offset=entry.offset)
        return payload

    def block_view(self, index: int) -> "SAGeArchive":
        """A one-block archive exposing only block ``index``.

        The view shares the parsed block, the consensus stream and the
        global metadata with this archive; decoding it touches no other
        block's streams.
        """
        return SAGeArchive.from_blocks(
            [self.block(index)], level=self.level,
            consensus=self.consensus,
            consensus_length=self.consensus_length,
            preserve_order=self.preserve_order, name=self.name)

    def block_index(self) -> list[BlockIndexEntry]:
        """The top-level index, as parsed from the source bytes:
        per-block read counts, payload sizes and digests, and the
        global position of each block's first read.

        Offsets locate each payload within the source bytes (which
        differ from :meth:`to_bytes` only for a loaded v3 archive, whose
        re-save adds the digests).
        """
        return self._index

    def fallback_headers(self, index: int) -> list[str]:
        """Names of block ``index``'s reads when no header is stored (or
        selected): ``{archive name}.{global read position}``, counted
        in final slots from the block's ``first_read``."""
        entry = self.block_index()[index]
        name = self.name or "sage"
        return [f"{name}.{position}" for position in range(
            entry.first_read, entry.first_read + entry.n_reads)]

    def block_payload(self, index: int) -> "bytes | memoryview":
        """Raw serialized payload of block ``index``: a digest-checked
        slice of the source bytes, parsed or not (never a
        re-serialization)."""
        return self._checked_payload(index, self.block_index()[index])

    def source_bytes(self) -> bytes:
        """The source bytes as one blob, unverified — per-block damage
        must surface where the block is decoded, not here."""
        blob = self._source_blob
        if blob is None:
            raise ContainerError("archive closed")
        return bytes(blob)

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------

    def _parsed_blocks(self) -> list[SAGeBlock]:
        return [self.block(i) for i in range(self.n_blocks)]

    def header_fixed_nbytes(self) -> int:
        """Header material that needs no block parsing.

        The global header, the consensus stream framing, and the block
        index, as :meth:`to_bytes` writes them.  Unlike
        :meth:`header_bytes_estimate` this never touches a block
        payload, so lazy consumers (``sage inspect``) can price the
        fixed overhead without materializing any block.
        """
        # Consensus framing: bits(40) + nbytes(24) + crc32.
        return len(self._global_header_blob()) + 12 \
            + _INDEX_ENTRY_NBYTES * self.n_blocks

    def header_bytes_estimate(self) -> int:
        """Serialized size of all header material (global + per block).

        Covers the global header, the consensus stream framing, the
        block index, and per-block headers (flags + tables) — everything
        that is not stream/quality/header payload bytes.
        """
        total = self.header_fixed_nbytes()
        total += sum(b.meta_nbytes() for b in self._parsed_blocks())
        return total

    def dna_byte_size(self) -> int:
        """Compressed size of the DNA payload: ``len(to_bytes())``
        minus every block's quality and read-header sections, to the
        byte."""
        return self.header_fixed_nbytes() + len(self.consensus[0]) \
            + sum(blk.section_nbytes()[0] for blk in self._parsed_blocks())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def _global_header_blob(self) -> bytes:
        """The serialized global header, ending in a CRC32 over the
        preceding header bytes, so any flip in the global fields is
        detected before they are trusted.  Stamped with the source
        version, or :data:`V4_VERSION` for a v3 source."""
        writer = BitWriter()
        writer.write(MAGIC, 32)
        writer.write(max(self.source_version, V4_VERSION), 8)
        writer.write(int(self.level), 4)
        writer.write_bit(self.long_reads)
        writer.write_bit(self.fixed_length)
        writer.write_bit(self.preserve_order)
        writer.write(self.fixed_read_length, 32)
        writer.write(self.n_mapped, 40)
        writer.write(self.n_unmapped, 40)
        writer.write(self.consensus_length, 40)
        writer.write(self.w_rlen, 6)
        writer.write(self.w_cons, 6)
        writer.write(self.n_blocks, 32)
        writer.write(self.block_reads, 32)
        writer.align_to_byte()
        writer.write(_checksum(writer.getvalue()), 32)
        return writer.getvalue()

    def _write(self, sections: list[tuple[SAGeBlock | BlockIndexEntry,
                                          bytes | memoryview]]) -> bytes:
        """The one writer: this archive's global header and consensus
        around ``sections``, one ``(counts, payload)`` per block, in the
        checksummed layout."""
        writer = BitWriter()
        writer.write_bytes(self._global_header_blob())
        payload, bits = self.consensus
        writer.write(bits, 40)
        writer.write(len(payload), 24)
        writer.align_to_byte()
        writer.write(_checksum(payload), 32)
        writer.write_bytes(payload)
        for counts, blob in sections:
            writer.write(counts.n_mapped, 40)
            writer.write(counts.n_unmapped, 40)
            writer.write(len(blob), 32)
            writer.write(_checksum(blob), 32)
        for _, blob in sections:
            writer.write_bytes(blob)
        return writer.getvalue()

    def to_bytes(self) -> bytes:
        """The archive in a checksummed layout.

        A v4 or v5 archive is its source bytes, and a loaded v3 archive
        re-saves as v4 — its v3 block payloads plus the header,
        consensus and per-block digests.
        """
        if not self.checksummed:
            return self._write([(entry, self.block_payload(i))
                                for i, entry in enumerate(self._index)])
        return self.source_bytes()

    @classmethod
    def from_bytes(cls, blob: "bytes | memoryview") -> "SAGeArchive":
        """Deserialize an archive blob: v5 (what :meth:`from_blocks`
        writes), v4 or v3.

        ``blob`` may be any byte buffer — :meth:`open` passes a
        ``memoryview`` over an mmap, keeping block payloads unread
        until first access.

        Malformed input fails with the taxonomy of
        :mod:`repro.core.errors`: a short buffer raises
        :class:`TruncatedArchiveError` (with the offset the layout ran
        past), structural damage raises :class:`CorruptArchiveError` /
        :class:`ContainerError` — never a raw ``struct.error`` or
        ``IndexError``.  For v4/v5 blobs the global-header and consensus
        digests are verified here; per-block digests are verified
        lazily when a block's payload is first touched.
        """
        if len(blob) < 5:
            raise TruncatedArchiveError(
                "buffer too short for a SAGe archive header",
                offset=len(blob), expected=5, actual=len(blob))
        reader = BitReader(blob)
        if reader.read(32) != MAGIC:
            raise CorruptArchiveError("bad magic; not a SAGe archive",
                                      offset=0)
        version = reader.read(8)
        if version not in (V3_VERSION, V4_VERSION, VERSION):
            raise ContainerError(f"unsupported version {version}")
        try:
            return cls._from_reader(reader, blob, version)
        except SAGeError:
            raise
        except Exception as exc:
            raise CorruptArchiveError(
                f"malformed archive ({exc})",
                offset=reader.position // 8) from exc

    @classmethod
    def _from_reader(cls, reader: BitReader, blob: "bytes | memoryview",
                     version: int) -> "SAGeArchive":
        checksummed = version >= V4_VERSION
        try:
            level = OptLevel(reader.read(4))
            long_reads = bool(reader.read_bit())
            fixed_length = bool(reader.read_bit())
            preserve_order = bool(reader.read_bit())
            fixed_read_length = reader.read(32)
            n_mapped = reader.read(40)
            n_unmapped = reader.read(40)
            consensus_length = reader.read(40)
            w_rlen = reader.read(6)
            w_cons = reader.read(6)
            n_blocks = reader.read(32)
            block_reads = reader.read(32)
            reader.align_to_byte()
            if checksummed:
                header_nbytes = reader.position // 8
                stored = reader.read(32)
                if _checksum(blob[:header_nbytes]) != stored:
                    raise CorruptArchiveError(
                        "global header checksum mismatch", offset=0)
            if n_blocks < 1:
                raise ContainerError("archive has no blocks")
            bits = reader.read(40)
            nbytes = reader.read(24)
            reader.align_to_byte()
            if checksummed:
                consensus_crc = reader.read(32)
                consensus_offset = reader.position // 8
                payload = reader.read_bytes(nbytes)
                if _checksum(payload) != consensus_crc:
                    raise CorruptArchiveError(
                        "consensus stream checksum mismatch",
                        stream="consensus", offset=consensus_offset)
            else:
                payload = reader.read_bytes(nbytes)
            raw_index: list[tuple[int, int, int, int | None]] = []
            for _ in range(n_blocks):
                blk_mapped = reader.read(40)
                blk_unmapped = reader.read(40)
                blk_nbytes = reader.read(32)
                blk_crc = reader.read(32) if checksummed else None
                raw_index.append((blk_mapped, blk_unmapped, blk_nbytes,
                                  blk_crc))
        except BitIOError as exc:
            raise TruncatedArchiveError(
                f"archive ends inside the global layout ({exc})",
                offset=len(blob), actual=len(blob)) from exc
        index: list[BlockIndexEntry] = []
        offset = reader.position // 8
        first_read = 0
        for blk_mapped, blk_unmapped, blk_nbytes, blk_crc in raw_index:
            if offset + blk_nbytes > len(blob):
                raise TruncatedArchiveError(
                    "block index overruns the archive",
                    block_index=len(index), offset=offset,
                    expected=offset + blk_nbytes, actual=len(blob))
            index.append(BlockIndexEntry(blk_mapped, blk_unmapped,
                                         blk_nbytes, offset, blk_crc,
                                         first_read))
            offset += blk_nbytes
            first_read += blk_mapped + blk_unmapped
        archive = cls(level=level, long_reads=long_reads,
                      fixed_length=fixed_length,
                      fixed_read_length=fixed_read_length,
                      n_mapped=n_mapped, n_unmapped=n_unmapped,
                      consensus_length=consensus_length, w_rlen=w_rlen,
                      w_cons=w_cons, consensus=(payload, bits),
                      blocks=[None] * n_blocks,
                      preserve_order=preserve_order,
                      block_reads=block_reads, source_version=version)
        archive._source_blob = blob
        archive._index = index
        return archive

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    @property
    def checksummed(self) -> bool:
        """Whether this archive's source layout carries integrity
        digests.  A pre-v4 *source* reports ``False`` even though a
        re-serialization would write the checksummed layout: its bytes
        were never protected, so ``verify_checksums`` must say
        ``unchecked``, not ``ok``."""
        return self.source_version >= V4_VERSION

    def header_crc32(self) -> int | None:
        """The global-header digest a checksummed serialization carries."""
        if not self.checksummed:
            return None
        head = self._global_header_blob()
        return int.from_bytes(head[-4:], "big")

    def consensus_crc32(self) -> int | None:
        """The consensus-payload digest a checksummed serialization
        carries."""
        if not self.checksummed:
            return None
        return _checksum(self.consensus[0])

    def verify_checksums(self) -> dict:
        """Walk the stored digests without decoding anything.

        Returns ``{"header": s, "consensus": s, "blocks": [s, ...]}``
        with each status one of ``"ok"`` (digest matches),
        ``"failed"`` (mismatch), or ``"unchecked"`` (the layout carries
        no digest — v3 archives).  Never raises on corruption; the
        report localizes it instead.  The header and consensus digests
        were verified when the source bytes were parsed, so only the
        lazily checked block payloads are re-walked.
        """
        if not self.checksummed:
            return {"header": "unchecked", "consensus": "unchecked",
                    "blocks": ["unchecked"] * self.n_blocks}
        statuses = []
        for i, entry in enumerate(self._index):
            try:
                self._checked_payload(i, entry)
            except CorruptArchiveError:
                statuses.append("failed")
            else:
                statuses.append("ok")
        return {"header": "ok", "consensus": "ok", "blocks": statuses}
