"""Shared fixtures (small deterministic datasets, cached per session)
and the reference oracles the library's vectorized paths are held to."""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import PropertyReport
from repro.analysis.variants import Pileup, QualityAccessReport
from repro.core import SAGeConfig, deflate
from repro.core import quality as quality_codec
from repro.core.formats import FormatError, OutputFormat, unpack_bits
from repro.genomics import datasets
from repro.genomics import sequence as seq
from repro.genomics.reads import PHRED_OFFSET, PLACEHOLDER_SCORE, Read, ReadSet
from repro.genomics.simulator import (QualityModel, ReadSimulator,
                                      short_read_profile)
from repro.mapping import DEFAULT_MAPPER, alignment, make_mapper
from repro.mapping.kmer_index import KmerIndex

#: Every optional container section switched on and off — the sweep of
#: the ``sections_nbytes(archive) == len(to_bytes())`` tests.
SIZE_CONFIGS = (
    SAGeConfig(),
    SAGeConfig(with_headers=True, preserve_order=True),
    SAGeConfig(with_quality=False, tuned_indel_lengths=True),
)

#: Cross-commit digests and archive blobs written by earlier commits.
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_fingerprints.json").read_text())

#: The committed v3 archives: one block with order and headers, and the
#: four-block ``v4_blocked`` without its digests.
V3_BLOBS = ("v3_one_block_order_headers", "v3_blocked")


def golden_blob(name: str) -> bytes:
    """Committed archive blob ``name`` — the only source of a v3 or v4
    file, since the container writes v5 alone."""
    return base64.b64decode("".join(GOLDEN["blobs"][name]["base64"]))


def sections_nbytes(archive) -> int:
    """``dna_byte_size()`` (what tab02 reports) plus every block's
    quality and header sections: the written size, derived from the
    layout."""
    return archive.dna_byte_size() + sum(
        sum(archive.block(i).section_nbytes()[1:])
        for i in range(archive.n_blocks))


@pytest.fixture(scope="session")
def rs2_small():
    """Deep short-read analog (best-compressing)."""
    return datasets.generate("RS2", base_genome=8_000)


@pytest.fixture(scope="session")
def rs3_small():
    """Shallow short-read analog."""
    return datasets.generate("RS3", base_genome=8_000)


@pytest.fixture(scope="session")
def rs4_small():
    """Long-read analog with chimeras, bursts, clips, and Ns."""
    return datasets.generate("RS4", base_genome=9_000)


@pytest.fixture(scope="session")
def rs5_small():
    """Cleaner long-read analog."""
    return datasets.generate("RS5", base_genome=9_000)


@pytest.fixture(scope="session")
def clean_short_sim():
    """Short reads with almost no errors (mapper/ISF ground truth)."""
    profile = short_read_profile(sub_rate=0.0, ins_rate=0.0, del_rate=0.0,
                                 clip_rate=0.0, n_rate=0.0, snp_rate=0.0,
                                 indel_variant_rate=0.0)
    sim = ReadSimulator(profile, np.random.default_rng(7))
    return sim.simulate(6_000, 450)


def markov_scores(n_reads, read_length=100, stay=0.9, seed=0):
    """Concatenated scores of ``n_reads`` reads with the correlation
    real qualities have and the simulator's i.i.d. draw lacks: per read,
    a first-order Markov chain over the Illumina-binned levels that
    keeps its level with probability ``stay`` and otherwise redraws it
    from the binned weights, so runs last tens of scores (mean ~33 at
    37, ~10 at 2).  Test-side only: ``QualityModel.sample`` stays
    i.i.d."""
    model = QualityModel.illumina_binned()
    rng = np.random.default_rng(seed)
    level = rng.choice(model.levels.size, size=n_reads, p=model.weights)
    columns = []
    for _ in range(read_length):
        columns.append(model.levels[level])
        redraw = rng.random(n_reads) >= stay
        level[redraw] = rng.choice(model.levels.size,
                                   size=int(redraw.sum()), p=model.weights)
    return np.stack(columns, axis=1).reshape(-1)


@pytest.fixture(scope="session")
def correlated_scores():
    """One 1024 x 100 bp block of :func:`markov_scores`."""
    return markov_scores(1024)


def read_multiset(read_set):
    """Order-independent content signature of a read set."""
    out = []
    for read in read_set:
        qual = read.quality.tobytes() if read.quality is not None else b""
        out.append((read.codes.tobytes(), qual))
    return sorted(out)


def assert_same_columns(got, want):
    """Two read sets hold the same reads in the same order, column by
    column: read boundaries, base codes and quality scores."""
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.codes, want.codes)
    assert (got.quality is None) == (want.quality is None)
    if got.quality is not None:
        assert np.array_equal(got.quality, want.quality)


def chunked(read_set, n):
    """``read_set`` as consecutive ``n``-read chunks (the last may be
    shorter), each a column view: ``read_set.subset(range(lo, hi))``."""
    return [read_set.subset(range(lo, min(lo + n, len(read_set))))
            for lo in range(0, len(read_set), n)]


def decode_blocks(decoder):
    """Reference walk: every block decoded one by one, in index order.

    Independent of ``StreamExecutor``, so executor tests have something
    to be compared against.
    """
    return ReadSet([read for index in range(decoder.archive.n_blocks)
                    for read in decoder.decompress_block(index)],
                   name=decoder.archive.name or "sage")


def read_from_text(bases, quality=None, header=""):
    """One :class:`Read` from a base string and an optional Phred+33
    string — the per-record oracle the block FASTQ parser is held to."""
    scores = None if quality is None else \
        np.frombuffer(quality.encode("ascii"), np.uint8) - PHRED_OFFSET
    return Read(seq.encode(bases), scores, header)


def format_read(read, index=0):
    """One read as a FASTQ record — the per-record oracle
    :func:`repro.genomics.fastq.write` is held to."""
    header = read.header or f"read{index}"
    qual = read.quality_text if read.quality is not None \
        else chr(PLACEHOLDER_SCORE + PHRED_OFFSET) * len(read)
    return f"@{header}\n{read.text}\n+\n{qual}\n"


def decode_output(data, fmt, length):
    """Invert :func:`repro.core.formats.encode_output` back to codes."""
    if fmt is OutputFormat.ASCII:
        return seq.encode(data)
    if fmt is OutputFormat.TWO_BIT:
        return unpack_bits(data, 2, length)
    if fmt is OutputFormat.THREE_BIT:
        return unpack_bits(data, 3, length)
    if fmt is OutputFormat.ONE_HOT:
        return np.argmax(np.asarray(data), axis=1).astype(np.uint8)
    raise FormatError(f"unknown format {fmt!r}")


def detokenize(tokens):
    """The byte stream LZ77 ``tokens`` stand for — the oracle
    :func:`repro.core.lz77.tokenize` is held to."""
    out = bytearray()
    for token in tokens:
        out.extend(token.literals)
        start = len(out) - token.distance
        if token.match_length and start < 0:
            raise ValueError("match distance reaches before stream start")
        for k in range(token.match_length):
            out.append(out[start + k])
    return bytes(out)


def entropy_bits(counts):
    """Shannon entropy (bits/symbol) of a count vector; 0 if empty —
    the bound a Huffman table is held to."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        return 0.0
    probs = counts[counts > 0] / total
    return float(-(probs * np.log2(probs)).sum())


def steady_state_throughput(stages):
    """The asymptotic pipeline rate, the slowest stage's — the limit
    :func:`repro.pipeline.stages.simulate_pipeline` is held to."""
    return min(s.rate_units_per_s for s in stages)


def write_unary(writer, value):
    """``value`` ones and a terminating zero, one bit at a time — the
    guide-code family ``0, 10, 110, …`` the unary reader is held to."""
    for _ in range(value):
        writer.write(1, 1)
    writer.write(0, 1)


def class_for_value(table, value):
    """The cheapest class (unary code + width) holding ``value``, the
    lowest index on a tie — the per-value rule
    :meth:`repro.core.prefix_codes.AssociationTable.classify` is held
    to."""
    costs = [(index + 1 + width, index)
             for index, width in enumerate(table.widths)
             if value < (1 << width)]
    if not costs:
        raise ValueError(
            f"value {value} exceeds all class widths {table.widths}")
    return min(costs)[1]


def encoded_bits(table, value):
    """Guide plus array bits ``table`` spends on ``value``."""
    index = class_for_value(table, value)
    return index + 1 + table.widths[index]


def encode_value(table, value, guide, array):
    """One prefix-coded value: its unary class to ``guide``, the value
    to ``array`` (the same writer for read lengths and mismatch counts)
    — the per-value emitter the compressor's columns are held to."""
    index = class_for_value(table, value)
    write_unary(guide, index)
    array.write(value, table.widths[index])


class _VarintReader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def read(self):
        shift = value = 0
        while True:
            byte = self.data[self.pos]
            self.pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7


def spring_decompress(archive):
    """The reads a Spring-analog archive holds — the decoder that shows
    :class:`repro.baselines.spring.SpringCompressor` is lossless."""
    raw = {name: deflate.decompress(blob)
           for name, blob in archive.streams.items()}
    cons = unpack_bits(raw["consensus"], 2, archive.consensus_length)
    positions = _VarintReader(raw["positions"])
    counts = _VarintReader(raw["counts"])
    mm_positions = _VarintReader(raw["mm_positions"])
    types = _VarintReader(raw["types"])
    bases = raw["bases"]
    lengths = _VarintReader(raw["lengths"])
    flags = raw["flags"]
    corner = _VarintReader(raw["corner"])
    unmapped = _VarintReader(raw["unmapped"])

    reads = []
    base_pos = 0
    prev_cons = 0
    for i in range(archive.n_mapped):
        length = archive.fixed_length or lengths.read()
        prev_cons += positions.read()
        flag = flags[i]
        clip_s = clip_e = np.empty(0, dtype=np.uint8)
        if flag & 2:
            len_s = corner.read()
            len_e = corner.read()
            total = len_s + len_e
            nbytes = (3 * total + 7) // 8
            payload = corner.data[corner.pos:corner.pos + nbytes]
            corner.pos += nbytes
            clip = unpack_bits(payload, 3, total)
            clip_s, clip_e = clip[:len_s], clip[len_s:]
        core_len = length - int(clip_s.size) - int(clip_e.size)

        out = np.empty(core_len, dtype=np.uint8)
        read_ptr = pos = 0
        q = prev_cons
        for _ in range(counts.read()):
            pos += mm_positions.read()
            gap = pos - read_ptr
            out[read_ptr:pos] = cons[q:q + gap]
            q += gap
            read_ptr = pos
            kind = types.read()             # an alignment op kind
            block = types.read()
            if kind == alignment.SUB:
                out[read_ptr] = bases[base_pos]
                base_pos += 1
                read_ptr += 1
                q += 1
            elif kind == alignment.INS:
                out[read_ptr:read_ptr + block] = np.frombuffer(
                    bases[base_pos:base_pos + block], dtype=np.uint8)
                base_pos += block
                read_ptr += block
            else:
                q += block
        out[read_ptr:] = cons[q:q + core_len - read_ptr]

        oriented = np.concatenate([clip_s, out, clip_e])
        if flag & 4:
            prev = 0
            for _ in range(corner.read()):
                prev += corner.read()
                oriented[prev] = seq.N_CODE
        codes = seq.reverse_complement(oriented) if flag & 1 else oriented
        reads.append(codes.astype(np.uint8))

    for _ in range(archive.n_unmapped):
        length = unmapped.read()
        nbytes = (3 * length + 7) // 8
        payload = unmapped.data[unmapped.pos:unmapped.pos + nbytes]
        unmapped.pos += nbytes
        reads.append(unpack_bits(payload, 3, length))

    qualities = [None] * len(reads)
    if archive.quality is not None:
        scores = quality_codec.decompress(archive.quality)
        offset = 0
        for i, codes in enumerate(reads):
            qualities[i] = scores[offset:offset + codes.size] \
                .astype(np.uint8)
            offset += codes.size
    name = archive.name or "spring"
    return ReadSet([Read(c, qualities[i], header=f"{name}.{i}")
                    for i, c in enumerate(reads)], name=name)


# ----------------------------------------------------------------------
# Mapping oracles: one MappingResult per read, its reference decoder,
# and the per-read loops the analysis consumers' column passes are held
# to.  The mapper writes columns only; these records are the tests' own
# per-read view of a table, bases gathered from the oriented read.
# ----------------------------------------------------------------------

@dataclass
class EditOp:
    """One edit operation, in read-segment coordinates, with its read
    bases (none for a deletion)."""

    kind: int                 # alignment.SUB | INS | DEL
    read_pos: int
    length: int = 1
    bases: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.uint8))


@dataclass
class MappedSegment:
    """One contiguous read interval placed at one consensus position."""

    cons_start: int
    read_start: int           # oriented-read coordinate (inclusive)
    read_end: int             # oriented-read coordinate (exclusive)
    ops: list[EditOp] = field(default_factory=list)  # segment-local coords

    @property
    def length(self) -> int:
        return self.read_end - self.read_start


@dataclass
class MappingResult:
    """Lossless mapping of one read against the consensus."""

    segments: list[MappedSegment] = field(default_factory=list)
    reverse: bool = False
    unmapped: bool = False
    clip_start: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.uint8))
    clip_end: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.uint8))
    cost: int = 0


def edit_ops(read_seg, kind, read_pos, length):
    """:class:`EditOp` s from op columns, bases gathered from
    ``read_seg`` (the coordinates the columns are in)."""
    return [EditOp(k, p, n, read_seg[p:p + n].copy() if k != alignment.DEL
                   else np.empty(0, dtype=np.uint8))
            for k, p, n in zip(kind, read_pos, length)]


def solved_results(solved):
    """Per job of a solved-jobs table (``alignment.SolvedJobs``), its
    row as an :class:`~repro.mapping.alignment.AlignmentResult`."""
    kinds, positions, lengths = (solved.kind.tolist(),
                                 solved.read_pos.tolist(),
                                 solved.length.tolist())
    return [alignment.AlignmentResult(kinds[lo:lo + n], positions[lo:lo + n],
                                      lengths[lo:lo + n], cost, start, end)
            for cost, start, end, lo, n in zip(
                solved.cost.tolist(), solved.cons_used_start.tolist(),
                solved.cons_used_end.tolist(), solved.op_lo.tolist(),
                solved.n_ops.tolist())]


def map_one(mapper, codes):
    """The :class:`MappingResult` of one read: a one-read ``map_batch``
    table, as a record."""
    return mapping_results(mapper.map_batch([codes]))[0]


def apply_ops(cons_seg, ops, read_length):
    """Reconstruct a read segment from consensus bases + edit ops — the
    reference of the decoder's reconstruction loop that alignment output
    is validated with."""
    cons_seg = np.asarray(cons_seg, dtype=np.uint8)
    out = np.empty(read_length, dtype=np.uint8)
    read_ptr = 0
    cons_ptr = 0
    for op in sorted(ops, key=lambda o: o.read_pos):
        gap = op.read_pos - read_ptr
        if gap < 0:
            raise ValueError("ops out of order")
        out[read_ptr:op.read_pos] = cons_seg[cons_ptr:cons_ptr + gap]
        read_ptr += gap
        cons_ptr += gap
        if op.kind == alignment.SUB:
            out[read_ptr] = op.bases[0]
            read_ptr += 1
            cons_ptr += 1
        elif op.kind == alignment.INS:
            out[read_ptr:read_ptr + op.length] = op.bases
            read_ptr += op.length
        else:  # DEL
            cons_ptr += op.length
    tail = read_length - read_ptr
    out[read_ptr:] = cons_seg[cons_ptr:cons_ptr + tail]
    return out


def reconstruct(consensus, result, read_length):
    """Rebuild the original read from a mapping (reference decoder).

    Mirrors what the SAGe hardware does: copy consensus bases, apply
    mismatches, reattach clips, un-reverse — the proof that the mapper's
    edit scripts are lossless.
    """
    if result.unmapped:
        raise ValueError("cannot reconstruct an unmapped read from mapping")
    parts = [result.clip_start]
    for segment in result.segments:
        # Extra consensus bases consumed beyond the read (dels - ins).
        extra = sum(op.length if op.kind == alignment.DEL else -op.length
                    for op in segment.ops
                    if op.kind in (alignment.DEL, alignment.INS))
        window = consensus[segment.cons_start:segment.cons_start
                           + segment.length + max(0, extra)]
        parts.append(apply_ops(window, segment.ops, segment.length))
    parts.append(result.clip_end)
    oriented = np.concatenate(parts).astype(np.uint8)
    if oriented.size != read_length:
        raise ValueError(
            f"reconstructed {oriented.size} bases, expected {read_length}")
    if result.reverse:
        return seq.reverse_complement(oriented)
    return oriented


def mapping_results(table):
    """One :class:`MappingResult` per read of a ``MappedBlock`` table,
    its op bases and clips gathered from the oriented read."""
    bounds = table.offsets.tolist()
    results, oriented = [], []
    for start, end, unmapped, reverse, cost, clip_s, clip_e in zip(
            bounds, bounds[1:], table.unmapped.tolist(),
            table.reverse.tolist(), table.cost.tolist(),
            table.clip_s.tolist(), table.clip_e.tolist()):
        codes = table.codes[start:end]
        if reverse:
            codes = seq.reverse_complement(codes)
        oriented.append(codes)
        results.append(MappingResult(unmapped=True) if unmapped else
                       MappingResult(reverse=reverse, cost=cost,
                                     clip_start=codes[:clip_s].copy(),
                                     clip_end=codes[end - start
                                                    - clip_e:].copy()))
    op_bounds = np.searchsorted(
        table.op_seg, np.arange(table.seg_row.size + 1)).tolist()
    kinds, positions, lengths = (table.kind.tolist(), table.read_pos.tolist(),
                                 table.length.tolist())
    for seg, (row, cons, lo, hi) in enumerate(zip(
            table.seg_row.tolist(), table.cons_start.tolist(),
            table.read_start.tolist(), table.read_end.tolist())):
        ops = slice(op_bounds[seg], op_bounds[seg + 1])
        results[row].segments.append(MappedSegment(cons, lo, hi, edit_ops(
            oriented[row][lo:], kinds[ops], positions[ops], lengths[ops])))
    return results


def _streamed_results(blocks, reference, mapper_config=None):
    """Every read's :class:`MappingResult`, block after block, mapped
    the way the analysis consumers map them (``DEFAULT_MAPPER``)."""
    mapper = make_mapper(DEFAULT_MAPPER,
                         np.asarray(reference, dtype=np.uint8), mapper_config)
    blocks = [blocks] if isinstance(blocks, ReadSet) else blocks
    return [result for block in blocks for result in mapping_results(
        mapper.map_batch(block.codes, block.offsets))]


def property_oracle(blocks, reference, mapper_config=None):
    """The :class:`PropertyReport` of ``blocks``, one read at a time."""
    pos_deltas, counts, indel_lengths, first_positions = [], [], [], []
    n_reads = n_unmapped = n_chimeric = 0
    for mapping in _streamed_results(blocks, reference, mapper_config):
        n_reads += 1
        if mapping.unmapped:
            n_unmapped += 1
            continue
        if len(mapping.segments) > 1:
            n_chimeric += 1
        first_positions.append(mapping.segments[0].cons_start)
        n_mismatches = 0
        for segment in sorted(mapping.segments, key=lambda s: s.read_start):
            prev = 0
            for op in segment.ops:
                n_mismatches += 1
                pos_deltas.append(op.read_pos - prev)
                prev = op.read_pos
                if op.kind in (alignment.INS, alignment.DEL):
                    indel_lengths.append(op.length)
        counts.append(n_mismatches)
    return PropertyReport(
        mismatch_pos_deltas=np.array(pos_deltas, dtype=np.int64),
        mismatch_counts=np.array(counts, dtype=np.int64),
        indel_block_lengths=np.array(indel_lengths, dtype=np.int64),
        matching_pos_deltas=np.diff(np.array(
            [0] + sorted(first_positions), dtype=np.int64)),
        n_unmapped=n_unmapped, n_chimeric=n_chimeric, n_reads=n_reads)


def pileup_oracle(blocks, reference, mapper_config=None):
    """``(Pileup, mappings)`` of ``blocks``, one read at a time:
    ``mappings`` holds every read's :class:`MappingResult`, ``None``
    for an unmapped one (what :func:`quality_access_oracle` takes)."""
    reference = np.asarray(reference, dtype=np.uint8)
    depth = np.zeros(reference.size, dtype=np.int32)
    alt_counts = np.zeros((4, reference.size), dtype=np.int32)
    indel_counts, mappings = {}, []
    for mapping in _streamed_results(blocks, reference, mapper_config):
        mappings.append(None if mapping.unmapped else mapping)
        for segment in mapping.segments:
            start = segment.cons_start
            consumed = segment.length
            shift = 0
            for op in segment.ops:
                cons_pos = start + op.read_pos + shift
                if op.kind == alignment.SUB:
                    if cons_pos < reference.size and op.bases.size:
                        base = int(op.bases[0])
                        if base < 4:
                            alt_counts[base, cons_pos] += 1
                else:
                    # An insertion consumes read bases only, a deletion
                    # consensus bases only.
                    kind, step = ("ins", -op.length) \
                        if op.kind == alignment.INS else ("del", op.length)
                    indel_counts[(cons_pos, kind)] = \
                        indel_counts.get((cons_pos, kind), 0) + 1
                    shift += step
                    consumed += step
            stop = min(reference.size, start + max(0, consumed))
            depth[start:stop] += 1
    segments = [(row, segment) for row, mapping in enumerate(mappings)
                if mapping is not None for segment in mapping.segments]
    return Pileup(
        depth, alt_counts, indel_counts,
        np.array([mapping is None for mapping in mappings], dtype=bool),
        np.array([row for row, _ in segments], dtype=np.int64),
        np.array([s.cons_start for _, s in segments], dtype=np.int64),
        np.array([s.length for _, s in segments], dtype=np.int64)), mappings


def quality_access_oracle(read_set, mappings, calls, block_size=4096,
                          window=10, emission_order=True):
    """The :class:`QualityAccessReport` of ``calls`` over ``mappings``
    (:func:`pileup_oracle`'s), one read at a time."""
    if not calls:
        total = max(1, -(-read_set.total_bases // block_size))
        return QualityAccessReport(total, 0, 0)
    assert len(mappings) == len(read_set)
    pairs = list(zip(read_set.read_lengths().tolist(), mappings))
    if emission_order:
        pairs.sort(key=lambda pair: (1, 0) if pair[1] is None
                   else (0, pair[1].segments[0].cons_start))
    sites = np.array(sorted(c.position for c in calls), dtype=np.int64)
    accessed = set()
    offset = 0
    for length, mapping in pairs:
        if mapping is not None:
            for segment in mapping.segments:
                lo = segment.cons_start - window
                hi = segment.cons_start + segment.length + window
                i = np.searchsorted(sites, lo)
                if i < sites.size and sites[i] < hi:
                    accessed.update(range(offset // block_size,
                                          (offset + length - 1)
                                          // block_size + 1))
                    break
        offset += length
    return QualityAccessReport(max(1, -(-offset // block_size)),
                               len(accessed), len(calls))


def assert_same_report(got, want):
    """Two reports (any dataclass) are equal field for field: arrays
    element for element, in the same order and dtype."""
    assert type(got) is type(want)
    for name, value in vars(want).items():
        other = getattr(got, name)
        if isinstance(value, np.ndarray):
            assert other.dtype == value.dtype, name
            assert other.tolist() == value.tolist(), name
        else:
            assert other == value, name


def filter_fraction_oracle(read_set, reference, k=31):
    """``measure_filter_fraction`` one read at a time: one k-mer lookup
    per strand, then each candidate window compared in turn."""
    if len(read_set) == 0:
        return 0.0
    reference = np.asarray(reference, dtype=np.uint8)
    index = KmerIndex(reference, k=k, max_occurrences=64)

    def exact(codes):
        if codes.size < k or seq.contains_n(codes):
            return False
        return any(int(at) + codes.size <= reference.size
                   and np.array_equal(
                       reference[int(at):int(at) + codes.size], codes)
                   for at in index.lookup(codes[:k]).cons_pos)

    return sum(exact(codes) or exact(seq.reverse_complement(codes))
               for codes in read_set.read_codes()) / len(read_set)
