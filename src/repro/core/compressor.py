"""SAGe compression (§5.1).

Pipeline: map reads against the consensus → plan per-read encodings
(oriented, clip-split, N-sanitized edit events) → tune bit-width classes
per read set (Algorithm 1) → emit the array/guide-array streams.

A block is its columns on the way in too: a mapped read with one
segment, no clip, substitutions only and no ``N`` — nearly every short
read — never becomes a plan or event object.  :class:`_SimpleReads`
holds such reads as arrays and each run of them, in emission order,
reaches a stream in one ``write_fields``; only the other reads take the
scalar path (:meth:`SAGeCompressor._plan_read` /
:meth:`SAGeCompressor._write_read`), into the same writers.

Every written bit is charged to a Fig. 17 category via
:class:`~repro.core.mismatch.SizeBreakdown`, and all optimization levels
NO/O1/O2/O3/O4 are supported so the ablation decodes losslessly too.

:meth:`SAGeCompressor.compress_block` turns one read set into one
independently decodable :class:`~repro.core.container.SAGeBlock`;
:meth:`SAGeCompressor.assemble` wraps any number of blocks, with the
consensus stored once, into an archive.  :meth:`SAGeCompressor.compress`
is the one-block case; :mod:`repro.core.blocks` feeds the same two calls
from a partitioned read stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from ..genomics import sequence as seq
from ..genomics.reads import ReadSet
from ..mapping.alignment import DEL, INS, SUB
from ..mapping.batch import make_mapper
from ..mapping.kmer_index import KmerIndex
from ..mapping.mapper import MapperConfig, MappingResult, ReadMapper
from . import headers as headers_codec
from . import quality as quality_codec
from .bitio import BitWriter
from .container import BLOCK_STREAM_NAMES, SAGeArchive, SAGeBlock
from .errors import CompressionError
from .formats import pack_bits
from .mismatch import (INDEL_DEL, INDEL_INS, TYPE_DEL, TYPE_INS, TYPE_SUB,
                       OptLevel, SizeBreakdown)
from .prefix_codes import AssociationTable
from .tuning import DEFAULT_EPSILON, tune_values

#: Indel-length encoding (§5.1.1): 1 guide bit for single-base blocks,
#: otherwise a fixed 8-bit length field.  Blocks longer than 255 split.
INDEL_LENGTH_BITS = 8
MAX_INDEL_BLOCK = (1 << INDEL_LENGTH_BITS) - 1

#: Fixed-width mismatch count used below optimization level O2.
RAW_COUNT_BITS = 16


@dataclass
class SAGeConfig:
    """Compression configuration: the one place an archive's format is
    stated (:class:`~repro.core.options.EngineOptions` says how the
    session runs and carries none of these but the mapper kernel name).
    The encoder has no codec kernel: every stream is written through
    :class:`~repro.core.bitio.BitWriter`."""

    level: OptLevel = OptLevel.O4
    with_quality: bool = True
    quality_order1: bool = True
    epsilon: float = DEFAULT_EPSILON
    long_reads: bool | None = None    # None => auto (variable lengths)
    mapper: MapperConfig | None = None
    #: Mapper kernel finding mismatches ("auto" resolves through
    #: $SAGE_MAPPER to the registry default).  Every kernel produces a
    #: byte-identical archive; see :mod:`repro.mapping.batch`.
    mapper_kernel: str = "auto"
    # Extensions beyond the paper's default configuration:
    preserve_order: bool = False      # store the original read order
    with_headers: bool = False        # store read headers (front-coded)
    tuned_indel_lengths: bool = False  # Algorithm-1 classes for indel
    #                                    lengths instead of the fixed
    #                                    1-bit/8-bit scheme (§5.1.1 note)


@dataclass
class _Event:
    """One mismatch entry, in core (clip-stripped, oriented) coordinates."""

    kind: str                  # 'sub' | 'ins' | 'del'
    pos: int                   # core read coordinate
    length: int                # block length (1 for subs)
    bases: np.ndarray          # sub base or inserted bases (sanitized)
    marker: int                # consensus base under the event


@dataclass
class _ReadPlan:
    """Everything needed to emit one mapped read."""

    length: int                          # original (full) read length
    reverse: bool
    events: list[_Event]
    first_cons: int                      # matching position (segment 0)
    extra_segments: list[tuple[int, int]]  # (core_start, cons_start)
    clip_start: np.ndarray
    clip_end: np.ndarray
    n_runs: list[tuple[int, int]]        # (oriented pos, run length)

    @property
    def is_corner(self) -> bool:
        return bool(self.n_runs) or self.clip_start.size > 0 \
            or self.clip_end.size > 0

    @property
    def core_length(self) -> int:
        return self.length - int(self.clip_start.size) \
            - int(self.clip_end.size)


@dataclass
class _UnmappedPlan:
    codes: np.ndarray


def _is_simple(mapping: MappingResult, has_n: bool) -> bool:
    """True for a mapped read the column path can emit: one segment
    spanning the read, substitutions only, nothing a corner payload
    would carry.  Decided from the mapping alone; every other read goes
    through :meth:`SAGeCompressor._plan_read`."""
    if has_n or len(mapping.segments) != 1 or mapping.clip_start.size \
            or mapping.clip_end.size or mapping.segments[0].read_start:
        return False
    ops = mapping.segments[0].ops
    return not ops or all(op.kind == SUB for op in ops)


class _SimpleReads:
    """The simple reads of a block (:func:`_is_simple`), in emission
    order, as columns: per read ``reverse`` and ``n_subs``, per
    substitution ``pos``, ``bases`` and ``deltas`` (the distance from
    the read's previous substitution; the position itself for its
    first)."""

    def __init__(self, mappings: list[MappingResult]):
        ops = [mapping.segments[0].ops for mapping in mappings]
        subs = list(chain.from_iterable(ops))
        self.reverse = np.fromiter((m.reverse for m in mappings),
                                   np.int64, len(mappings))
        self.n_subs = np.fromiter(map(len, ops), np.int64, len(ops))
        self.pos = np.fromiter((op.read_pos for op in subs),
                               np.int64, len(subs))
        self.bases = np.fromiter((op.bases[0] for op in subs),
                                 np.int64, len(subs))
        #: Index of each read's first substitution, plus the total.
        self.sub_bounds = np.zeros(len(ops) + 1, dtype=np.int64)
        np.cumsum(self.n_subs, out=self.sub_bounds[1:])
        self.first = np.zeros(len(subs), dtype=bool)
        self.first[self.sub_bounds[:-1][self.n_subs > 0]] = True
        self.deltas = self.pos.copy()
        self.deltas[1:] -= np.where(self.first[1:], 0, self.pos[:-1])

    def __len__(self) -> int:
        return int(self.n_subs.size)

    def fields(self, tables: dict[str, AssociationTable], level: OptLevel,
               chimeric_side: bool, w_rlen: int,
               breakdown: SizeBreakdown) -> dict[str, tuple]:
        """What :meth:`SAGeCompressor._write_read` would write for these
        reads, per stream: ``name -> (values, widths, bounds)`` with
        ``bounds[i]`` the first field of read ``i`` (one more entry
        than reads), so reads ``a:b`` own fields ``bounds[a]:bounds[b]``.
        Adjacent fields of one stream are merged (a count's class code
        and value; a substitution's position-0 flag, type and base);
        the bits, and their ``breakdown`` charges, are the scalar
        path's."""
        n, n_subs = len(self), self.pos.size
        reads = np.arange(n + 1)
        # A field per read followed by one per substitution (``mbta``:
        # the rev flag, then bases; tuned ``mmpga``: the count, then
        # position classes).
        heads = reads + self.sub_bounds
        is_head = np.zeros(n + n_subs, dtype=bool)
        is_head[heads[:-1]] = True

        def interleaved(head: tuple, sub: tuple) -> tuple:
            values = np.empty(n + n_subs, dtype=np.int64)
            widths = np.empty(n + n_subs, dtype=np.int64)
            values[is_head], widths[is_head] = head
            values[~is_head], widths[~is_head] = sub
            return values, widths, heads

        def unary(classes: np.ndarray) -> tuple:
            return ((1 << classes) - 1) << 1, classes + 1

        # O4: a substitution at position 0 opening a read is told from
        # the corner marker by a 0 bit ahead of its body.
        at_zero = self.first & (self.pos == 0) if level.corner_marker \
            else np.zeros(n_subs, dtype=np.int64)
        sub_width = (2 if level.type_inference else 4) + at_zero
        out = {"mbta": interleaved((self.reverse, 1),
                                   (self.bases, sub_width))}
        charges = {
            "rev": n,
            "mismatch_types": at_zero.sum()
            + (0 if level.type_inference else 2 * n_subs),
            "mismatch_bases": 2 * n_subs}
        if chimeric_side:           # "no extra segments", a 0 bit each
            out["side"] = np.zeros(n, dtype=np.int64), np.ones(
                n, dtype=np.int64), reads
            charges["matching_pos"] = n
        if not level.corner_marker:  # the two corner indicator bits
            out["corner"] = np.zeros(n, dtype=np.int64), np.full(
                n, 2), reads
            charges["contains_n"] = 2 * n
        if level.tuned_mismatch:
            count_class = tables["count"].classify(self.n_subs)
            count_width = tables["count"].widths_np[count_class]
            code, code_width = unary(count_class)
            pos_class = tables["mmp"].classify(self.deltas)
            pos_width = tables["mmp"].widths_np[pos_class]
            out["mmpga"] = interleaved(
                ((code << count_width) | self.n_subs,
                 code_width + count_width), unary(pos_class))
            out["mmpa"] = self.deltas, pos_width, self.sub_bounds
            charges["mismatch_counts"] = (code_width + count_width).sum()
            charges["mismatch_pos"] = (pos_class + 1 + pos_width).sum()
        else:
            out["mmpga"] = self.n_subs, np.full(n, RAW_COUNT_BITS), reads
            out["mmpa"] = self.pos, np.full(n_subs, w_rlen), self.sub_bounds
            charges["mismatch_counts"] = RAW_COUNT_BITS * n
            charges["mismatch_pos"] = w_rlen * n_subs
        for category, nbits in charges.items():
            if nbits:
                breakdown.charge(category, int(nbits))
        return out


def _reads_with_n(read_set: ReadSet) -> np.ndarray:
    """Per read: does it hold an ``N``?"""
    out = np.zeros(len(read_set), dtype=bool)
    out[np.searchsorted(read_set.offsets,
                        np.nonzero(read_set.codes == seq.N_CODE)[0],
                        "right") - 1] = True
    return out


class SAGeCompressor:
    """Compresses read sets against a consensus sequence."""

    def __init__(self, consensus: np.ndarray,
                 config: SAGeConfig | None = None,
                 shared_index: KmerIndex | None = None):
        self.consensus = np.asarray(consensus, dtype=np.uint8)
        if self.consensus.size and self.consensus.max() >= 4:
            raise CompressionError("consensus must be A/C/G/T only")
        self.config = config or SAGeConfig()
        # Mappers are expensive to build (k-mer index over the consensus);
        # cache them so repeated compress() calls — the per-block loop of
        # the streaming engine — reuse the index.
        self._mapper_cache: dict[tuple, ReadMapper] = {}
        # One k-mer index serves every mapper variant: the level
        # adjustments in _build_mapper never touch k/max_occurrences.
        # ``shared_index`` lets the block engine inject an index built
        # once in the parent process.
        self._index_cache: dict[tuple[int, int], KmerIndex] = {}
        if shared_index is not None:
            self._index_cache[(shared_index.k,
                               shared_index.max_occurrences)] = shared_index

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def compress(self, read_set: ReadSet) -> SAGeArchive:
        """Compress a read set into a self-contained one-block archive."""
        return self.assemble([self.compress_block(read_set)],
                             name=read_set.name)

    def assemble(self, blocks: list[SAGeBlock], *,
                 name: str = "") -> SAGeArchive:
        """Wrap compressed ``blocks`` and the consensus into an archive."""
        payload = pack_bits(self.consensus, 2)
        return SAGeArchive.from_blocks(
            blocks, level=self.config.level,
            consensus=(payload, 8 * len(payload)),
            consensus_length=int(self.consensus.size),
            preserve_order=self.config.preserve_order, name=name)

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
        mapper = self._build_mapper(level, long_reads)

        reads = read_set.read_codes()    # no ``Read`` is built to encode
        mappings = mapper.map_batch(reads)
        has_n = _reads_with_n(read_set).tolist()

        # Mapped reads as (matching position, input index, plan): a
        # simple read has no plan and stays in columns.
        rows: list[tuple[int, int, _ReadPlan | None]] = []
        unmapped: list[tuple[int, _UnmappedPlan]] = []
        for idx, (codes, mapping) in enumerate(zip(reads, mappings)):
            if mapping.unmapped:
                unmapped.append((idx, _UnmappedPlan(codes)))
            elif _is_simple(mapping, has_n[idx]):
                rows.append((mapping.segments[0].cons_start, idx, None))
            else:
                plan = self._plan_read(codes, mapping)
                rows.append((plan.first_cons, idx, plan))
        if level.reorder:
            rows.sort()      # (position, index) is unique: no plan compared
        simple = _SimpleReads([mappings[idx] for _, idx, plan in rows
                               if plan is None])
        return self._encode(read_set, rows, simple,
                            [u for _, u in unmapped],
                            [idx for _, idx, _ in rows]
                            + [idx for idx, _ in unmapped],
                            level, long_reads)

    # ------------------------------------------------------------------
    # Mapping & planning
    # ------------------------------------------------------------------

    def _build_mapper(self, level: OptLevel, long_reads: bool) -> ReadMapper:
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
        key = (level.chimeric and long_reads, level.chimeric, long_reads)
        cached = self._mapper_cache.get(key)
        if cached is not None:
            return cached
        mapper = make_mapper(self.config.mapper_kernel, self.consensus,
                             mapper_cfg, index=self.shared_kmer_index())
        self._mapper_cache[key] = mapper
        return mapper

    def shared_kmer_index(self) -> KmerIndex:
        """The consensus k-mer index this compressor's mappers share.

        Built (or injected) once per compressor; the block engine ships
        it to process workers so the consensus is indexed exactly once
        per archive instead of once per worker.
        """
        mapper_cfg = self.config.mapper or MapperConfig()
        key = (mapper_cfg.k, mapper_cfg.max_occurrences)
        index = self._index_cache.get(key)
        if index is None:
            index = KmerIndex(self.consensus, k=mapper_cfg.k,
                              max_occurrences=mapper_cfg.max_occurrences)
            self._index_cache[key] = index
        return index

    def _plan_read(self, codes: np.ndarray,
                   mapping: MappingResult) -> _ReadPlan:
        cons = self.consensus
        oriented = (seq.reverse_complement(codes) if mapping.reverse
                    else codes)
        clip_s, clip_e = mapping.clip_start, mapping.clip_end
        n_runs = _find_runs(oriented, seq.N_CODE)

        events: list[_Event] = []
        extra: list[tuple[int, int]] = []
        segments = sorted(mapping.segments, key=lambda s: s.read_start)
        for seg_idx, segment in enumerate(segments):
            core_start = segment.read_start - int(clip_s.size)
            if seg_idx:
                extra.append((core_start, segment.cons_start))
            shift = 0
            for op in segment.ops:
                cons_pos = segment.cons_start + op.read_pos + shift
                marker = int(cons[cons_pos]) if cons_pos < cons.size else 0
                pos = core_start + op.read_pos
                if op.kind == SUB:
                    base = int(op.bases[0])
                    if base == seq.N_CODE:
                        base = (marker + 1) % 4
                    events.append(_Event(SUB, pos, 1,
                                         np.array([base], dtype=np.uint8),
                                         marker))
                elif op.kind == INS:
                    bases = op.bases.copy()
                    bases[bases == seq.N_CODE] = 0
                    for off in range(0, op.length, MAX_INDEL_BLOCK):
                        chunk = bases[off:off + MAX_INDEL_BLOCK]
                        events.append(_Event(INS, pos + off,
                                             int(chunk.size), chunk, marker))
                    shift -= op.length
                else:  # DEL
                    remaining = op.length
                    local_shift = shift
                    while remaining > 0:
                        chunk = min(remaining, MAX_INDEL_BLOCK)
                        cpos = segment.cons_start + op.read_pos + local_shift
                        mark = int(cons[cpos]) if cpos < cons.size else 0
                        events.append(_Event(
                            DEL, pos, chunk,
                            np.empty(0, dtype=np.uint8), mark))
                        local_shift += chunk
                        remaining -= chunk
                    shift += op.length

        return _ReadPlan(length=int(codes.size), reverse=mapping.reverse,
                         events=events,
                         first_cons=segments[0].cons_start,
                         extra_segments=extra, clip_start=clip_s,
                         clip_end=clip_e, n_runs=n_runs)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def _encode(self, read_set: ReadSet,
                rows: list[tuple[int, int, _ReadPlan | None]],
                simple: _SimpleReads, unmapped: list[_UnmappedPlan],
                permutation: list[int], level: OptLevel,
                long_reads: bool) -> SAGeBlock:
        """Emit the mapped reads ``rows`` (emission order; ``simple``
        holds the ones without a plan) and the ``unmapped`` ones."""
        cfg = self.config
        fixed_length = read_set.is_fixed_length
        read_lengths = read_set.read_lengths()
        fixed_len = int(read_lengths[0]) if (fixed_length
                                             and len(read_set)) else 0
        max_len = int(read_lengths.max(initial=1))
        w_rlen = max(1, int(max_len).bit_length())
        w_cons = max(1, int(self.consensus.size).bit_length())
        breakdown = SizeBreakdown()

        first_cons = np.array([row[0] for row in rows], dtype=np.int64)
        lengths = read_lengths[permutation[:len(rows)]]
        # The reads that need scalar handling: (row, plan, events).
        planned = [(at, plan, self._expand_events(plan, level))
                   for at, (_, _, plan) in enumerate(rows)
                   if plan is not None]

        # ---- Algorithm 1 tuning over the read set's statistics ----
        tables: dict[str, AssociationTable] = {}
        if level.reorder:
            mp_deltas = np.diff(first_cons, prepend=0)
            tables["mp"] = tune_values(mp_deltas, cfg.epsilon).table \
                if rows else AssociationTable((w_cons,))
        if level.tuned_mismatch:
            counts, pos_values = [], []
            for _, plan, events in planned:
                pseudo = 1 if (level.corner_marker and plan.is_corner) else 0
                counts.append(len(events) + pseudo)
                prev_pos = 0
                if pseudo:
                    pos_values.append(0)
                for event in events:
                    pos_values.append(event.pos - prev_pos)
                    prev_pos = event.pos
            counts = np.append(simple.n_subs, np.array(counts, np.int64))
            pos_values = np.append(simple.deltas,
                                   np.array(pos_values, np.int64))
            tables["count"] = tune_values(counts, cfg.epsilon).table \
                if counts.size else AssociationTable((1,))
            tables["mmp"] = tune_values(pos_values, cfg.epsilon).table \
                if pos_values.size else AssociationTable((1,))
        if not fixed_length:
            tables["len"] = tune_values(lengths, cfg.epsilon).table \
                if rows else AssociationTable((w_rlen,))
        if cfg.tuned_indel_lengths and level.indel_blocks:
            block_lengths = [ev.length for _, _, events in planned
                             for ev in events if ev.kind != SUB]
            tables["indel"] = tune_values(
                block_lengths, cfg.epsilon).table \
                if block_lengths else AssociationTable((1,))

        writers = {name: BitWriter() for name in BLOCK_STREAM_NAMES}

        # ---- column passes: streams owned by a single field kind are
        # emitted as one batched run per block.  Byte-identical to the
        # historical per-read interleave because no other field ever
        # writes to these streams. ----
        if rows:
            if not fixed_length:
                stream = writers["lengths"]
                tables["len"].encode_run(lengths, stream, stream)
                breakdown.charge("read_length", stream.bit_length)
            if level.reorder:
                tables["mp"].encode_run(mp_deltas, writers["mpga"],
                                        writers["mpa"])
            else:
                writers["mpa"].write_run(first_cons, w_cons)
            breakdown.charge("matching_pos",
                             writers["mpga"].bit_length
                             + writers["mpa"].bit_length)

        # ---- the interleaved per-read remainder: each run of simple
        # reads between two planned ones leaves as columns, so every
        # stream sees the scalar path's fields in the scalar order. ----
        fields = simple.fields(tables, level, level.chimeric and long_reads,
                               w_rlen, breakdown)
        written = 0                      # simple reads emitted so far
        for n_planned, (at, plan, events) in enumerate(
                planned + [(len(rows), None, None)]):
            upto = at - n_planned        # simple reads ahead of row ``at``
            if upto > written:
                for name, (values, widths, bounds) in fields.items():
                    lo, hi = bounds[written], bounds[upto]
                    writers[name].write_fields(values[lo:hi], widths[lo:hi])
                written = upto
            if plan is not None:
                self._write_read(plan, events, writers, tables, breakdown,
                                 level, long_reads, w_rlen, w_cons)
        self._write_unmapped(unmapped, writers["unmapped"], breakdown,
                             fixed_length, w_rlen)

        if cfg.preserve_order and permutation:
            w_reads = max(1, (len(read_set) - 1).bit_length())
            order = writers["order"]
            order.write_run(permutation, w_reads)
            breakdown.charge("header", order.bit_length)

        # Headers and scores leave in emission order: one gather.
        emitted = read_set.subset(permutation)
        headers_blob = None
        if cfg.with_headers and len(read_set):
            headers_blob = headers_codec.compress_headers(emitted.headers)
            breakdown.charge("header", 8 * len(headers_blob))

        quality_blob = None
        if cfg.with_quality and read_set.has_quality:
            quality_blob = quality_codec.compress(
                emitted.quality, order1=cfg.quality_order1)
            breakdown.charge("quality", 8 * quality_blob.byte_size)

        streams = {name: (w.getvalue(), w.bit_length)
                   for name, w in writers.items()}
        return SAGeBlock(
            n_mapped=len(rows), n_unmapped=len(unmapped),
            long_reads=long_reads, fixed_length=fixed_length,
            fixed_read_length=fixed_len, w_rlen=w_rlen, tables=tables,
            streams=streams, quality=quality_blob,
            headers_blob=headers_blob, breakdown=breakdown,
            permutation=np.array(permutation, dtype=np.int64))

    # -- helpers -------------------------------------------------------

    def _expand_events(self, plan: _ReadPlan,
                       level: OptLevel) -> list[_Event]:
        """Below O2 indel blocks are stored one base at a time."""
        if level.indel_blocks:
            return plan.events
        out: list[_Event] = []
        for ev in plan.events:
            if ev.kind == SUB or ev.length == 1:
                out.append(ev)
            elif ev.kind == INS:
                for i in range(ev.length):
                    out.append(_Event(INS, ev.pos + i, 1,
                                      ev.bases[i:i + 1], ev.marker))
            else:
                for _ in range(ev.length):
                    out.append(_Event(DEL, ev.pos, 1, ev.bases, ev.marker))
        return out

    def _write_read(self, plan: _ReadPlan, events: list[_Event],
                    writers: dict[str, BitWriter],
                    tables: dict[str, AssociationTable],
                    breakdown: SizeBreakdown, level: OptLevel,
                    long_reads: bool, w_rlen: int, w_cons: int) -> None:
        mbta, side = writers["mbta"], writers["side"]
        corner = writers["corner"]
        mmpga = writers["mmpga"]

        # Read lengths and matching positions are emitted as batched
        # column passes in :meth:`_encode` (their streams are exclusive
        # to those fields); this method writes the interleaved per-read
        # remainder.

        # Rev flag.
        mbta.write_bit(plan.reverse)
        breakdown.charge("rev", 1)

        # Chimeric side info (O3+, long reads only; the side stream is
        # charged to Fig. 17 "Matching Pos." with the mp arrays).
        if level.chimeric and long_reads:
            start = side.bit_length
            side.write_bit(1 if plan.extra_segments else 0)
            if plan.extra_segments:
                side.write(len(plan.extra_segments), 2)
                for core_start, cons_start in plan.extra_segments:
                    side.write(core_start, w_rlen)
                    side.write(cons_start, w_cons)
            breakdown.charge("matching_pos", side.bit_length - start)

        # Mismatch count (Fig. 17 "Mismatch Counts").
        pseudo = 1 if (level.corner_marker and plan.is_corner) else 0
        count = len(events) + pseudo
        start = mmpga.bit_length
        if level.tuned_mismatch:
            tables["count"].encode(count, mmpga, mmpga)
        else:
            mmpga.write(count, RAW_COUNT_BITS)
        breakdown.charge("mismatch_counts", mmpga.bit_length - start)

        # Corner handling below O4: per-read indicator bits.
        if not level.corner_marker:
            corner.write_bit(bool(plan.n_runs))
            corner.write_bit(plan.clip_start.size > 0
                             or plan.clip_end.size > 0)
            breakdown.charge("contains_n", 2)
            if plan.is_corner:
                self._write_corner_payload(plan, corner, breakdown, w_rlen)

        # Mismatch entries.
        prev_pos = 0
        first_entry = True
        if pseudo:
            self._write_position(0, writers, tables, breakdown, level,
                                 w_rlen)
            mbta.write_bit(1)  # corner disambiguation: is a corner case
            breakdown.charge("mismatch_types", 1)
            self._write_corner_payload(plan, corner, breakdown, w_rlen)
            first_entry = False
        for event in events:
            delta = event.pos - prev_pos
            value = delta if level.tuned_mismatch else event.pos
            self._write_position(value, writers, tables, breakdown, level,
                                 w_rlen)
            prev_pos = event.pos
            if (level.corner_marker and first_entry and event.pos == 0):
                mbta.write_bit(0)  # real mismatch at position 0
                breakdown.charge("mismatch_types", 1)
            first_entry = False
            self._write_event_body(event, writers, tables, breakdown,
                                   level)

    def _write_position(self, value: int, writers: dict[str, BitWriter],
                        tables: dict[str, AssociationTable],
                        breakdown: SizeBreakdown, level: OptLevel,
                        w_rlen: int) -> None:
        mmpa, mmpga = writers["mmpa"], writers["mmpga"]
        start = mmpa.bit_length + mmpga.bit_length
        if level.tuned_mismatch:
            tables["mmp"].encode(value, mmpga, mmpa)
        else:
            mmpa.write(value, w_rlen)
        breakdown.charge("mismatch_pos",
                         mmpa.bit_length + mmpga.bit_length - start)

    def _write_event_body(self, event: _Event,
                          writers: dict[str, BitWriter],
                          tables: dict[str, AssociationTable],
                          breakdown: SizeBreakdown,
                          level: OptLevel) -> None:
        mbta = writers["mbta"]
        mmpa, mmpga = writers["mmpa"], writers["mmpga"]

        if level.type_inference:
            # Marker scheme (§5.1.2): base == consensus base <=> indel.
            if event.kind == SUB:
                mbta.write(int(event.bases[0]), 2)
                breakdown.charge("mismatch_bases", 2)
            else:
                mbta.write(event.marker, 2)
                mbta.write_bit(INDEL_INS if event.kind == INS
                               else INDEL_DEL)
                breakdown.charge("mismatch_bases", 2)
                breakdown.charge("mismatch_types", 1)
                self._write_indel_length(event, mmpa, mmpga, tables,
                                         breakdown, level)
                if event.kind == INS:
                    mbta.write_run(event.bases, 2)
                    breakdown.charge("mismatch_bases", 2 * event.length)
        else:
            type_code = {SUB: TYPE_SUB, INS: TYPE_INS,
                         DEL: TYPE_DEL}[event.kind]
            mbta.write(type_code, 2)
            breakdown.charge("mismatch_types", 2)
            if event.kind == SUB:
                mbta.write(int(event.bases[0]), 2)
                breakdown.charge("mismatch_bases", 2)
            else:
                self._write_indel_length(event, mmpa, mmpga, tables,
                                         breakdown, level)
                if event.kind == INS:
                    mbta.write_run(event.bases, 2)
                    breakdown.charge("mismatch_bases", 2 * event.length)

    @staticmethod
    def _write_indel_length(event: _Event, mmpa: BitWriter,
                            mmpga: BitWriter,
                            tables: dict[str, AssociationTable],
                            breakdown: SizeBreakdown,
                            level: OptLevel) -> None:
        if not level.indel_blocks:
            return
        start = mmpa.bit_length + mmpga.bit_length
        if "indel" in tables:
            # Extension: Algorithm-1 classes for indel lengths, for read
            # sets where longer indels are frequent (§5.1.1).
            tables["indel"].encode(event.length, mmpga, mmpa)
        else:
            mmpga.write_bit(1 if event.length == 1 else 0)
            if event.length != 1:
                mmpa.write(event.length, INDEL_LENGTH_BITS)
        breakdown.charge("mismatch_pos",
                         mmpa.bit_length + mmpga.bit_length - start)

    def _write_corner_payload(self, plan: _ReadPlan, corner: BitWriter,
                              breakdown: SizeBreakdown,
                              w_rlen: int) -> None:
        start = corner.bit_length
        corner.write_bit(bool(plan.n_runs))
        corner.write_bit(plan.clip_start.size > 0
                         or plan.clip_end.size > 0)
        if plan.n_runs:
            corner.write(len(plan.n_runs), 8)
            for pos, run in plan.n_runs:
                corner.write(pos, w_rlen)
                corner.write(run, 8)
        if plan.clip_start.size or plan.clip_end.size:
            corner.write(int(plan.clip_start.size), w_rlen)
            corner.write(int(plan.clip_end.size), w_rlen)
            clip = np.concatenate([plan.clip_start, plan.clip_end])
            corner.write_bytes(pack_bits(clip, 3))
        breakdown.charge("contains_n", corner.bit_length - start)

    def _write_unmapped(self, unmapped: list[_UnmappedPlan],
                        writer: BitWriter, breakdown: SizeBreakdown,
                        fixed_length: bool, w_rlen: int) -> None:
        start = writer.bit_length
        for plan in unmapped:
            if not fixed_length:
                writer.write(int(plan.codes.size), w_rlen)
            writer.write_bytes(pack_bits(plan.codes, 3))
        breakdown.charge("unmapped", writer.bit_length - start)


def _find_runs(codes: np.ndarray, target: int) -> list[tuple[int, int]]:
    """(start, length) runs of ``target`` in ``codes`` (length <= 255)."""
    mask = codes == target
    if not mask.any():
        return []
    padded = np.concatenate([[False], mask, [False]])
    edges = np.diff(padded.astype(np.int8))
    starts = np.nonzero(edges == 1)[0]
    ends = np.nonzero(edges == -1)[0]
    runs: list[tuple[int, int]] = []
    for s, e in zip(starts, ends):
        length = int(e - s)
        for off in range(0, length, 255):
            runs.append((int(s) + off, min(255, length - off)))
    return runs

