"""SAGe compression (§5.1).

Pipeline: map reads against the consensus → turn the block's mappings
into columns (oriented, clip-split, N-sanitized edit events) → tune
bit-width classes per read set (Algorithm 1) → emit the array/guide-array
streams.

A block is its columns all the way to the bytes, the way the format is
read (§5.1: independent arrays consumed with streaming accesses).  The
mapper hands over its table (:class:`~repro.mapping.mapper.MappedBlock`)
and :class:`_MappedReads` gathers the emitted reads' segments and edit
ops from its columns; every rule of the format after that — indel
blocks, consensus markers, ``N`` sanitizing, the O4 corner pseudo-entry,
chimeric sides, corner payloads — is an array operation.
:class:`_Fields` is the one field emitter: every field of every block
stream — read lengths, matching positions, the order permutation, guide
codes and arrays alike — is keyed there by its place in emission order,
each stream leaves in one ``write_fields`` per block, and every field's
bits are charged to its Fig. 17 category
(:class:`~repro.core.mismatch.SizeBreakdown`).  All optimization levels
NO/O1/O2/O3/O4 are supported so the ablation decodes losslessly too.

:meth:`SAGeCompressor.compress_block` turns one read set into one
independently decodable :class:`~repro.core.container.SAGeBlock`, a pure
function of ``(consensus, config, reads)``.  :meth:`SAGeCompressor.compress`
is the one way to an archive: it cuts a read set into
``options.block_reads``-read blocks (or takes a caller's chunks one block
each), compresses them — on a process pool when ``options.workers > 1``,
merged in block order, so every worker count writes the same bytes — and
writes the blocks, with the consensus stored once, as one archive (§5.3).
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from ..genomics import sequence as seq
from ..genomics.reads import ReadSet, run_index
from ..mapping.alignment import INS, SUB
from ..mapping.batch import DEFAULT_MAPPER, make_mapper
from ..mapping.kmer_index import KmerIndex
from ..mapping.mapper import MappedBlock, MapperConfig, ReadMapper
from . import headers as headers_codec
from . import quality as quality_codec
from .bitio import BitWriter
from .blocks import imap_bounded
from .container import BLOCK_STREAM_NAMES, SAGeArchive, SAGeBlock
from .errors import CompressionError
from .formats import pack_bits
from .mismatch import (INDEL_DEL, INDEL_INS, TYPE_DEL, TYPE_INS, TYPE_SUB,
                       OptLevel, SizeBreakdown)
from .prefix_codes import AssociationTable
from .tuning import DEFAULT_EPSILON, tune_values

if TYPE_CHECKING:       # options.py imports SAGeConfig from this module
    from .options import EngineOptions

#: Indel-length encoding (§5.1.1): 1 guide bit for single-base blocks,
#: otherwise a fixed 8-bit length field.  Blocks longer than 255 split.
INDEL_LENGTH_BITS = 8
MAX_INDEL_BLOCK = (1 << INDEL_LENGTH_BITS) - 1

#: Fixed-width mismatch count used below optimization level O2.
RAW_COUNT_BITS = 16

#: A corner payload (§5.1.4) lists ``N`` runs under an 8-bit count, each
#: an 8-bit length: a longer run splits, and a read with more runs than
#: the count holds is stored unmapped (its raw 3-bit payload holds N).
N_RUN_BITS = 8
MAX_N_RUN = (1 << N_RUN_BITS) - 1

#: The side stream counts a chimeric read's extra segments in 2 bits.
SIDE_COUNT_BITS = 2
MAX_SEGMENTS = 1 << SIDE_COUNT_BITS

#: Fields one entry may write to one stream (see :class:`_Fields`).
_SLOTS = 8


@dataclass
class SAGeConfig:
    """Compression configuration: the one place an archive's format is
    stated, and the mapper kernel named
    (:class:`~repro.core.options.EngineOptions` says how the session
    runs and shares no field with it).  The encoder has no codec kernel:
    every stream is written through :class:`~repro.core.bitio.BitWriter`."""

    level: OptLevel = OptLevel.O4
    with_quality: bool = True
    #: Allows the order-1 quality model: each block's scores are written
    #: in whichever of order-0 and order-1 is smaller
    #: (:func:`repro.core.quality.compress`); ``False`` forces order-0.
    quality_order1: bool = True
    epsilon: float = DEFAULT_EPSILON
    long_reads: bool | None = None    # None => auto (variable lengths)
    mapper: MapperConfig | None = None
    #: Mapper kernel finding mismatches, one of
    #: :func:`repro.mapping.batch.available_mappers`.  Every kernel
    #: produces a byte-identical archive; see :mod:`repro.mapping.batch`.
    mapper_kernel: str = DEFAULT_MAPPER
    # Extensions beyond the paper's default configuration:
    preserve_order: bool = False      # store the original read order
    with_headers: bool = False        # store read headers (front-coded)
    tuned_indel_lengths: bool = False  # Algorithm-1 classes for indel
    #                                    lengths instead of the fixed
    #                                    1-bit/8-bit scheme (§5.1.1 note)


def _pieces(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For ``counts[i]`` pieces of item ``i``: every piece's item, and
    its index within the item."""
    return (np.repeat(np.arange(counts.size), counts),
            run_index(np.zeros_like(counts), counts))


def _n_runs(read_set: ReadSet) -> tuple[np.ndarray, np.ndarray,
                                        np.ndarray]:
    """``(read, start, length)`` of every ``N`` run of the block, in
    read order (input coordinates, unsplit)."""
    at = np.flatnonzero(read_set.codes == seq.N_CODE)
    read = np.searchsorted(read_set.offsets, at, "right") - 1
    opens = np.ones(at.size, dtype=bool)
    opens[1:] = (np.diff(at) > 1) | (np.diff(read) > 0)
    starts = np.flatnonzero(opens)
    read = read[starts]
    return (read, at[starts] - read_set.offsets[read],
            np.diff(starts, append=at.size))


class _Fields:
    """A block's stream fields, keyed by their place in emission order,
    ``entry * _SLOTS + slot``.  A mapped read's entries are its header,
    its O4 pseudo-entry and its events, in that order; ``slot`` orders
    the fields one entry writes to one stream, and fields sharing a key
    keep the order they were added in.  Every field's bits are charged
    to its Fig. 17 category as it is added."""

    def __init__(self) -> None:
        self.parts: dict[str, list[tuple]] = {
            name: [] for name in BLOCK_STREAM_NAMES}
        self.bits: dict[str, int] = {}

    def add(self, stream: str, category: str, entry, slot: int, values,
            widths) -> None:
        """``values`` as ``widths``-bit fields of ``stream`` (either may
        be a scalar), one per ``entry``."""
        entry = np.asarray(entry, dtype=np.int64)
        values = np.broadcast_to(np.asarray(values, dtype=np.int64),
                                 entry.shape)
        widths = np.broadcast_to(np.asarray(widths, dtype=np.int64),
                                 entry.shape)
        self.parts[stream].append((entry * _SLOTS + slot, values, widths))
        self.bits[category] = self.bits.get(category, 0) + int(widths.sum())

    def add_pairs(self, stream: str, category: str, entry, slot: int,
                  first, second, widths: tuple[int, int]) -> None:
        """``first[i]`` then ``second[i]`` for every ``entry[i]``."""
        self.add(stream, category, np.repeat(entry, 2), slot,
                 np.column_stack((first, second)).ravel(),
                 np.tile(widths, len(entry)))

    def add_coded(self, guide: str, array: str, category: str, entry,
                  slot: int, values, table: AssociationTable) -> None:
        """Every value's unary class code (:meth:`AssociationTable.
        guide_codes`) to ``guide`` at ``slot``, the value to ``array``
        at ``slot + 1`` (the same stream, for read lengths and mismatch
        counts)."""
        codes, code_widths, field_widths = table.guide_codes(values)
        self.add(guide, category, entry, slot, codes, code_widths)
        self.add(array, category, entry, slot + 1, values, field_widths)

    def emit(self, breakdown: SizeBreakdown) -> dict[str,
                                                      tuple[bytes, int]]:
        """Every stream, each in one ``write_fields``, as ``(payload,
        bit length)``; the bits to ``breakdown``.  A stream whose keys
        already run in order is written without the stable sort (which
        would be the identity on it)."""
        streams: dict[str, tuple[bytes, int]] = {}
        for name, parts in self.parts.items():
            writer = BitWriter()
            if parts:
                keys, values, widths = (np.concatenate(column)
                                        for column in zip(*parts))
                if (keys[1:] < keys[:-1]).any():
                    order = np.argsort(keys, kind="stable")
                    values, widths = values[order], widths[order]
                writer.write_fields(values, widths)
            streams[name] = (writer.getvalue(), writer.bit_length)
        for category, bits in self.bits.items():
            if bits:
                breakdown.charge(category, bits)
        return streams


class _MappedReads:
    """A block's mapped reads in emission order, as columns, gathered
    from the mapper's table:

    * per read: its input index ``rows``, ``reverse``, ``lengths``,
      ``first_cons`` and its ``cons_delta`` from the previous read's,
      clip sizes ``clip_s`` / ``clip_e``, whether it is
      a corner case (``has_n``, ``has_clip``; at O4 it opens with a
      ``pseudo``-entry) and its mismatch ``count``; per extra chimeric
      segment ``extra_row``, ``extra_core``, ``extra_cons``;
    * per event — an edit op, an indel split into blocks of at most
      :data:`MAX_INDEL_BLOCK` from O2 on and into single bases below:
      ``row``, ``kind`` (its 2-bit type code), core position ``pos``,
      ``delta`` from the read's previous event, ``length`` and ``base``
      (a substitution's base, ``N`` replaced by the base after the
      marker; an indel's marker, the consensus base under it, 0 past the
      consensus end);
    * per inserted base: ``ins_event`` and ``ins_base`` (``N`` as 0);
    * per ``N`` run, split at :data:`MAX_N_RUN`: ``run_row``, oriented
      ``run_pos`` and ``run_len``.

    Bases are gathered, oriented, through the table
    (:meth:`~repro.mapping.mapper.MappedBlock.oriented`), and an op's
    consensus offset is the table's
    (:meth:`~repro.mapping.mapper.MappedBlock.placements`).
    """

    def __init__(self, consensus: np.ndarray, read_set: ReadSet,
                 rows: np.ndarray, mapped: MappedBlock,
                 segments: np.ndarray, runs: tuple, level: OptLevel):
        """``rows``: the mapped reads in emission order; ``segments``:
        every segment of ``mapped``, by read and then by read start;
        ``runs``: the block's ``N`` runs (:func:`_n_runs`)."""
        n = rows.size
        self.rows, self.mapped = rows, mapped
        self.lengths = read_set.read_lengths()[rows]
        self.reverse = mapped.reverse[rows]
        self.clip_s = mapped.clip_s[rows]
        self.clip_e = mapped.clip_e[rows]
        self.has_clip = (self.clip_s > 0) | (self.clip_e > 0)

        # The emitted reads' segments and their edit ops.
        n_segments = np.bincount(mapped.seg_row, minlength=len(read_set))
        segments = segments[run_index(
            np.searchsorted(mapped.seg_row, rows), n_segments[rows])]
        seg_row = np.repeat(np.arange(n), n_segments[rows])
        seg_cons = mapped.cons_start[segments]
        extra = np.ones(segments.size, dtype=bool)
        extra[np.searchsorted(seg_row, np.arange(n))] = False
        self.first_cons = seg_cons[~extra]
        self.cons_delta = np.diff(self.first_cons, prepend=0)
        self.extra_row = seg_row[extra]
        self.extra_core = (mapped.read_start[segments]
                           - self.clip_s[seg_row])[extra]
        self.extra_cons = seg_cons[extra]

        first_op = np.searchsorted(mapped.op_seg, segments)
        n_ops = np.searchsorted(mapped.op_seg, segments, "right") - first_op
        ops = run_index(first_op, n_ops)
        # Each op's format type code, from its mapper kind.
        op_kind = mapped.kind[ops]
        kind = np.select([op_kind == SUB, op_kind == INS],
                         [TYPE_SUB, TYPE_INS], TYPE_DEL)
        op_len = mapped.length[ops]
        op_seg = np.repeat(np.arange(segments.size), n_ops)
        cons_at, read_at = (at[ops] for at in mapped.placements())

        # Events.
        block = MAX_INDEL_BLOCK if level.indel_blocks else 1
        op_of, piece = _pieces(np.where(kind == TYPE_SUB, 1,
                                        -(-op_len // block)))
        self.kind = kind[op_of]
        self.row = seg_row[op_seg[op_of]]
        self.length = np.minimum(block, op_len[op_of] - block * piece)
        read_at = read_at[op_of] \
            + np.where(self.kind == TYPE_INS, block * piece, 0)
        cons_at = cons_at[op_of] \
            + np.where(self.kind == TYPE_DEL, block * piece, 0)
        self.pos = read_at - self.clip_s[self.row]
        self.base = np.where(
            cons_at < consensus.size,
            consensus[np.minimum(cons_at, consensus.size - 1)],
            0).astype(np.int64)
        sub = self.kind == TYPE_SUB
        bases = self.oriented(self.row[sub], read_at[sub])
        self.base[sub] = np.where(bases == seq.N_CODE,
                                  (self.base[sub] + 1) % 4, bases)
        ins = np.flatnonzero(self.kind == TYPE_INS)
        event_of, offset = _pieces(self.length[ins])
        self.ins_event = ins[event_of]
        bases = self.oriented(self.row[self.ins_event],
                              read_at[self.ins_event] + offset)
        self.ins_base = np.where(bases == seq.N_CODE, 0, bases)
        first = np.ones(self.row.size, dtype=bool)
        first[1:] = self.row[1:] != self.row[:-1]
        self.first = first
        self.delta = self.pos - np.where(first, 0, np.roll(self.pos, 1))

        # N runs, in oriented read order, split.
        row_of = np.full(len(read_set), -1)
        row_of[rows] = np.arange(n)
        run_read, start, length = runs
        row = row_of[run_read]
        mapped_run = row >= 0
        row, start, length = \
            row[mapped_run], start[mapped_run], length[mapped_run]
        start = np.where(self.reverse[row],
                         self.lengths[row] - start - length, start)
        order = np.lexsort((start, row))
        run_of, piece = _pieces(-(-length[order] // MAX_N_RUN))
        self.run_row = row[order][run_of]
        self.run_pos = start[order][run_of] + MAX_N_RUN * piece
        self.run_len = np.minimum(MAX_N_RUN,
                                  length[order][run_of] - MAX_N_RUN * piece)
        self.n_runs = np.bincount(self.run_row, minlength=n)
        self.has_n = self.n_runs > 0

        self.n_events = np.bincount(self.row, minlength=n)
        self.pseudo = (self.has_n | self.has_clip) & level.corner_marker
        self.count = self.n_events + self.pseudo

    def oriented(self, row: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """The bases at oriented positions ``pos`` of reads ``row``."""
        return self.mapped.oriented(self.rows[row], pos)

    def fields(self, out: _Fields, tables: dict[str, AssociationTable],
               level: OptLevel, chimeric_side: bool, w_rlen: int,
               w_cons: int) -> None:
        """Add every mapped-read field of the block to ``out``."""
        n = self.reverse.size
        head = np.cumsum(self.n_events) - self.n_events + 2 * np.arange(n)
        entry = np.arange(self.row.size) + 2 * self.row + 2

        if "len" in tables:                 # variable-length reads
            out.add_coded("lengths", "lengths", "read_length", head, 0,
                          self.lengths, tables["len"])
        if level.reorder:
            out.add_coded("mpga", "mpa", "matching_pos", head, 0,
                          self.cons_delta, tables["mp"])
        else:
            out.add("mpa", "matching_pos", head, 0, self.first_cons, w_cons)
        out.add("mbta", "rev", head, 0, self.reverse, 1)
        if chimeric_side:
            n_extra = np.bincount(self.extra_row, minlength=n)
            chimeric = n_extra > 0
            out.add("side", "matching_pos", head, 0, chimeric, 1)
            out.add("side", "matching_pos", head[chimeric], 1,
                    n_extra[chimeric], SIDE_COUNT_BITS)
            out.add_pairs("side", "matching_pos", head[self.extra_row], 2,
                          self.extra_core, self.extra_cons, (w_rlen, w_cons))
        if level.tuned_mismatch:
            out.add_coded("mmpga", "mmpga", "mismatch_counts", head, 0,
                          self.count, tables["count"])
        else:
            out.add("mmpga", "mismatch_counts", head, 0, self.count,
                    RAW_COUNT_BITS)

        # Corner cases: below O4 two indicator bits per read; a corner
        # read's payload either way (at O4 its pseudo-entry flags it).
        flags = 2 * self.has_n + self.has_clip
        if not level.corner_marker:
            out.add("corner", "contains_n", head, 0, flags, 2)
        corner = self.has_n | self.has_clip
        out.add("corner", "contains_n", head[corner], 1, flags[corner], 2)
        out.add("corner", "contains_n", head[self.has_n], 2,
                self.n_runs[self.has_n], N_RUN_BITS)
        out.add_pairs("corner", "contains_n", head[self.run_row], 3,
                      self.run_pos, self.run_len, (w_rlen, N_RUN_BITS))
        clipped = np.flatnonzero(self.has_clip)
        clip_s, clip_e = self.clip_s[clipped], self.clip_e[clipped]
        out.add_pairs("corner", "contains_n", head[clipped], 4, clip_s,
                      clip_e, (w_rlen, w_rlen))
        of, at = _pieces(clip_s + clip_e)
        at += np.where(at < clip_s[of], 0,
                       self.lengths[clipped][of] - clip_s[of] - clip_e[of])
        out.add("corner", "contains_n", head[clipped][of], 5,
                self.oriented(clipped[of], at), 3)      # 3-bit packed,
        out.add("corner", "contains_n", head[clipped], 6, 0,
                -3 * (clip_s + clip_e) % 8)             # to a byte

        # Mismatch entries: O4's pseudo-entry (position 0, then a 1 bit),
        # each event's position, O4's 0 bit ahead of a real entry at 0,
        # the body.
        if level.corner_marker:
            pseudo = head[self.pseudo] + 1
            out.add_coded("mmpga", "mmpa", "mismatch_pos", pseudo, 0,
                          np.zeros(pseudo.size, dtype=np.int64),
                          tables["mmp"])
            out.add("mbta", "mismatch_types", pseudo, 0, 1, 1)
            at_zero = self.first & (self.pos == 0) & ~self.pseudo[self.row]
            out.add("mbta", "mismatch_types", entry[at_zero], 0, 0, 1)
        if level.tuned_mismatch:
            out.add_coded("mmpga", "mmpa", "mismatch_pos", entry, 0,
                          self.delta, tables["mmp"])
        else:
            out.add("mmpa", "mismatch_pos", entry, 1, self.pos, w_rlen)
        sub = self.kind == TYPE_SUB
        indel = ~sub
        if level.type_inference:
            # Marker scheme (§5.1.2): base == consensus base <=> indel.
            out.add("mbta", "mismatch_bases", entry, 2, self.base, 2)
            out.add("mbta", "mismatch_types", entry[indel], 3,
                    np.where(self.kind[indel] == TYPE_INS, INDEL_INS,
                             INDEL_DEL), 1)
        else:
            out.add("mbta", "mismatch_types", entry, 1, self.kind, 2)
            out.add("mbta", "mismatch_bases", entry[sub], 2, self.base[sub],
                    2)
        if level.indel_blocks:
            lengths = self.length[indel]
            if "indel" in tables:
                # Extension: Algorithm-1 classes for indel lengths, for
                # read sets where longer indels are frequent (§5.1.1).
                out.add_coded("mmpga", "mmpa", "mismatch_pos", entry[indel],
                              1, lengths, tables["indel"])
            else:
                single = lengths == 1
                out.add("mmpga", "mismatch_pos", entry[indel], 1, single, 1)
                out.add("mmpa", "mismatch_pos", entry[indel][~single], 2,
                        lengths[~single], INDEL_LENGTH_BITS)
        out.add("mbta", "mismatch_bases", entry[self.ins_event], 4,
                self.ins_base, 2)


class SAGeCompressor:
    """Compresses read sets against a consensus sequence.

    ``options`` (:class:`~repro.core.options.EngineOptions`) say how
    :meth:`compress` partitions and parallelises — ``block_reads``
    (``0``, the default, is one block), ``workers`` and ``window`` are
    all it reads — and never change a byte.  ``shared_index`` hands in
    a consensus k-mer index built elsewhere (a pool worker's, built once
    in the parent); one built for another ``k`` / ``max_occurrences``
    is ignored.
    """

    def __init__(self, consensus: np.ndarray,
                 config: SAGeConfig | None = None, *,
                 options: EngineOptions | None = None,
                 shared_index: KmerIndex | None = None):
        self.consensus = np.asarray(consensus, dtype=np.uint8)
        if self.consensus.size and self.consensus.max() >= 4:
            raise CompressionError("consensus must be A/C/G/T only")
        self.config = config or SAGeConfig()
        self.block_reads, self.workers, self.window = (
            options.block_reads, options.workers, options.window) \
            if options is not None else (0, 1, 1)
        mapper_cfg = self.config.mapper or MapperConfig()
        segments = mapper_cfg.max_segments
        if not 1 <= segments <= MAX_SEGMENTS:
            raise CompressionError(
                f"mapper.max_segments={segments} is outside "
                f"1..{MAX_SEGMENTS}: the side stream counts a chimeric "
                f"read's extra segments in {SIDE_COUNT_BITS} bits")
        # Mappers are expensive to build, so every block reuses them;
        # with the level fixed, only the long-read mode varies.  All of
        # them share one k-mer index: the level adjustments in
        # _build_mapper never touch k / max_occurrences.
        self._mappers: dict[bool, ReadMapper] = {}
        self._index = shared_index if shared_index is not None and (
            shared_index.k, shared_index.max_occurrences) == (
            mapper_cfg.k, mapper_cfg.max_occurrences) else None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def compress(self, reads: ReadSet | Iterable[ReadSet]) -> SAGeArchive:
        """Compress a read set, or a stream of chunks, into an archive.

        A :class:`ReadSet` is cut into ``options.block_reads``-read
        blocks (one block when that is ``0`` or there are no options);
        any other iterable is taken as already chunked, each chunk one
        block (the contract of
        :func:`repro.genomics.fastq.iter_read_sets`), and is consumed
        lazily.  The archive is named for the read set, or else for the
        first named chunk; its header records ``block_reads`` as given.
        An empty input is one empty block.
        """
        name = ""
        chunks: Iterable[ReadSet] = reads
        if isinstance(reads, ReadSet):
            name = reads.name
            n = self.block_reads or max(len(reads), 1)
            chunks = (reads.subset(range(lo, min(lo + n, len(reads))))
                      for lo in range(0, len(reads), n))
        names: list[str] = []

        def named(source: Iterable[ReadSet]) -> Iterator[ReadSet]:
            for chunk in source:
                if not names and chunk.name:
                    names.append(chunk.name)
                yield chunk

        blocks = self._compress_chunks(named(chunks)) \
            or [self.compress_block(ReadSet([], name=name))]
        payload = pack_bits(self.consensus, 2)
        return SAGeArchive.from_blocks(
            blocks, level=self.config.level,
            consensus=(payload, 8 * len(payload)),
            consensus_length=int(self.consensus.size),
            preserve_order=self.config.preserve_order,
            block_reads=self.block_reads,
            name=name or (names[0] if names else ""))

    def compress_block(self, read_set: ReadSet) -> SAGeBlock:
        """Compress a read set into one independently decodable block.

        A pure function of ``(consensus, config, reads)`` — which is
        what makes parallel and serial block compression byte-identical.
        """
        cfg = self.config
        level = cfg.level
        long_reads = cfg.long_reads
        if long_reads is None:
            long_reads = not read_set.is_fixed_length
        mapper = self._build_mapper(long_reads)

        mapped = mapper.map_batch(read_set.codes, read_set.offsets)
        runs = _n_runs(read_set)
        # Stored raw, in input order: the unmapped reads, and those with
        # more N runs than a corner payload lists (the 3-bit raw payload
        # holds N as it is).
        raw = mapped.unmapped | (np.bincount(
            runs[0], weights=-(-runs[2] // MAX_N_RUN),
            minlength=len(read_set)) > MAX_N_RUN)
        rows = np.flatnonzero(~raw)
        segments = np.lexsort((mapped.read_start, mapped.seg_row))
        if level.reorder:        # by matching position, then input index
            first = segments[np.searchsorted(mapped.seg_row, rows)]
            rows = rows[np.lexsort((rows, mapped.cons_start[first]))]
        reads = _MappedReads(self.consensus, read_set, rows, mapped,
                             segments, runs, level)
        return self._encode(read_set, reads, np.flatnonzero(raw), level,
                            long_reads)

    # ------------------------------------------------------------------
    # Blocks and the process pool
    # ------------------------------------------------------------------

    def _compress_chunks(self, chunks: Iterator[ReadSet]) -> list[SAGeBlock]:
        """Compress every chunk, in order: serially with one worker or
        fewer than two chunks (no pool is started), otherwise on a
        process pool with ``options.window`` blocks in flight."""
        head = list(islice(chunks, 2)) if self.workers > 1 else []
        chunks = chain(head, chunks)
        if len(head) < 2:
            return [self.compress_block(c) for c in chunks]
        try:
            executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_init_worker,
                initargs=(self.consensus, self.config,
                          self.shared_kmer_index()))
        except OSError as exc:
            warnings.warn(f"process pool unavailable ({exc}); "
                          "falling back to serial block compression",
                          RuntimeWarning, stacklevel=3)
            return [self.compress_block(c) for c in chunks]
        with executor:
            return list(imap_bounded(
                partial(executor.submit, _compress_chunk_pooled), chunks,
                self.window))

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------

    def _build_mapper(self, long_reads: bool) -> ReadMapper:
        cached = self._mappers.get(long_reads)
        if cached is not None:
            return cached
        level = self.config.level
        # Copy before adjusting: the caller's MapperConfig must not be
        # mutated (it may be shared across compressors or blocks).
        mapper_cfg = replace(self.config.mapper or MapperConfig())
        if not (level.chimeric and long_reads):
            mapper_cfg.max_segments = 1
        # Below O3 chimeric reads must stay mapped at their top position
        # with many mismatches (Fig. 9), so the unmapped threshold loosens.
        if not level.chimeric:
            mapper_cfg.unmapped_cost_fraction = 0.80
        if long_reads:
            mapper_cfg.stride = max(mapper_cfg.stride, 4)
        mapper = make_mapper(self.config.mapper_kernel, self.consensus,
                             mapper_cfg, index=self.shared_kmer_index())
        self._mappers[long_reads] = mapper
        return mapper

    def shared_kmer_index(self) -> KmerIndex:
        """The consensus k-mer index this compressor's mappers share.

        Built (or injected) once per compressor; :meth:`compress` ships
        it to its pool workers, so the consensus is indexed exactly once
        per archive instead of once per worker.
        """
        if self._index is None:
            mapper_cfg = self.config.mapper or MapperConfig()
            self._index = KmerIndex(
                self.consensus, k=mapper_cfg.k,
                max_occurrences=mapper_cfg.max_occurrences)
        return self._index

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def _encode(self, read_set: ReadSet, mapped: _MappedReads,
                unmapped: np.ndarray, level: OptLevel,
                long_reads: bool) -> SAGeBlock:
        """Emit the ``mapped`` reads, then the ``unmapped`` ones (input
        indices, stored raw)."""
        cfg = self.config
        fixed_length = read_set.is_fixed_length
        read_lengths = read_set.read_lengths()
        fixed_len = int(read_lengths[0]) if (fixed_length
                                             and len(read_set)) else 0
        max_len = int(read_lengths.max(initial=1))
        w_rlen = max(1, int(max_len).bit_length())
        w_cons = max(1, int(self.consensus.size).bit_length())
        breakdown = SizeBreakdown()

        permutation = np.concatenate((mapped.rows, unmapped))
        emitted = read_set.subset(permutation)
        n_mapped = mapped.rows.size

        # ---- Algorithm 1 tuning over the read set's statistics ----
        tables: dict[str, AssociationTable] = {}
        if level.reorder:
            tables["mp"] = tune_values(mapped.cons_delta, cfg.epsilon).table \
                if n_mapped else AssociationTable((w_cons,))
        if level.tuned_mismatch:
            tables["count"] = tune_values(mapped.count, cfg.epsilon).table
            tables["mmp"] = tune_values(np.append(
                mapped.delta, np.zeros(mapped.pseudo.sum(), np.int64)),
                cfg.epsilon).table
        if not fixed_length:
            tables["len"] = tune_values(mapped.lengths, cfg.epsilon).table \
                if n_mapped else AssociationTable((w_rlen,))
        if cfg.tuned_indel_lengths and level.indel_blocks:
            tables["indel"] = tune_values(
                mapped.length[mapped.kind != TYPE_SUB], cfg.epsilon).table

        # ---- every field keyed by its place in emission order: one
        # write_fields per stream ----
        fields = _Fields()
        mapped.fields(fields, tables, level, level.chimeric and long_reads,
                      w_rlen, w_cons)
        # Unmapped reads: a length field (variable-length blocks), then
        # every base as a 3-bit field, zero-padded to a byte.
        raw_lengths = np.diff(emitted.offsets[n_mapped:])
        raw = np.arange(raw_lengths.size)
        if not fixed_length:
            fields.add("unmapped", "unmapped", raw, 0, raw_lengths, w_rlen)
        fields.add("unmapped", "unmapped", np.repeat(raw, raw_lengths), 1,
                   emitted.codes[emitted.offsets[n_mapped]:], 3)
        fields.add("unmapped", "unmapped", raw, 2, 0, -3 * raw_lengths % 8)
        if cfg.preserve_order:
            fields.add("order", "header", np.arange(permutation.size), 0,
                       permutation, max(1, (len(read_set) - 1).bit_length()))
        streams = fields.emit(breakdown)
        breakdown.charge("unmapped", 0)     # stated even when empty

        # Headers and scores leave in emission order: one gather.
        headers_blob = None
        if cfg.with_headers and len(read_set):
            headers_blob = headers_codec.compress_headers(emitted.headers)
            breakdown.charge("header", 8 * len(headers_blob))

        quality_blob = None
        if cfg.with_quality and read_set.has_quality:
            quality_blob = quality_codec.compress(
                emitted.quality, order1=cfg.quality_order1)
            breakdown.charge("quality", 8 * quality_blob.byte_size)

        return SAGeBlock(
            n_mapped=n_mapped, n_unmapped=len(unmapped),
            long_reads=long_reads, fixed_length=fixed_length,
            fixed_read_length=fixed_len, w_rlen=w_rlen, tables=tables,
            streams=streams, quality=quality_blob,
            headers_blob=headers_blob, breakdown=breakdown,
            permutation=permutation)


#: The worker process's compressor, built once by the pool initializer
#: from the parent's (consensus, config, k-mer index) — so per-chunk
#: submissions ship only the chunk, not the genome, and the consensus is
#: indexed once in the parent, not once per worker.
_worker_compressor: SAGeCompressor | None = None


def _init_worker(consensus: np.ndarray, config: SAGeConfig,
                 index: KmerIndex) -> None:
    """Pool initializer: receive the shared inputs once per process."""
    global _worker_compressor
    _worker_compressor = SAGeCompressor(consensus, config,
                                        shared_index=index)


def _compress_chunk_pooled(chunk: ReadSet) -> SAGeBlock:
    """Process-pool entry point; uses the initializer-built compressor."""
    if _worker_compressor is None:
        raise RuntimeError("worker initializer did not run")
    return _worker_compressor.compress_block(chunk)
