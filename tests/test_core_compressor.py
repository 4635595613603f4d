"""Integration tests for the SAGe codec (compressor + decompressor)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (OptLevel, SAGeCompressor, SAGeConfig,
                        SAGeDecompressor)
from repro.core import headers as headers_codec
from repro.core import quality as quality_codec
from repro.core.bitio import BitWriter
from repro.core.compressor import (MAX_INDEL_BLOCK, RAW_COUNT_BITS,
                                   CompressionError)
from repro.core.container import BLOCK_STREAM_NAMES, SAGeArchive
from repro.core.formats import pack_bits
from repro.core.mismatch import (INDEL_DEL, INDEL_INS, TYPE_DEL, TYPE_INS,
                                 TYPE_SUB, SizeBreakdown)
from repro.core.prefix_codes import AssociationTable
from repro.core.tuning import tune_values
from repro.genomics import sequence as seq
from repro.genomics.reads import Read, ReadSet
from repro.genomics.reference import make_reference
from repro.mapping.alignment import DEL, INS, SUB
from repro.mapping.batch import GLOBAL_STATS
from repro.mapping.mapper import MapperConfig, ReadMapper

from tests.conftest import encode_value, mapping_results, read_multiset


def roundtrip(read_set, reference, **config_kwargs):
    config = SAGeConfig(**config_kwargs)
    archive = SAGeCompressor(reference, config).compress(read_set)
    blob = archive.to_bytes()
    decoded = SAGeDecompressor(SAGeArchive.from_bytes(blob)) \
        .decompress_block(0)
    return archive, decoded


class TestDatasetRoundtrips:
    @pytest.mark.parametrize("fixture", ["rs2_small", "rs3_small",
                                         "rs4_small", "rs5_small"])
    def test_lossless_with_quality(self, fixture, request):
        sim = request.getfixturevalue(fixture)
        archive, decoded = roundtrip(sim.read_set, sim.reference)
        assert read_multiset(decoded) == read_multiset(sim.read_set)
        assert archive.n_reads == len(sim.read_set)

    @pytest.mark.parametrize("level", list(OptLevel))
    def test_all_levels_lossless(self, rs4_small, level):
        sim = rs4_small
        _, decoded = roundtrip(sim.read_set, sim.reference, level=level,
                               with_quality=False)
        got = sorted(r.codes.tobytes() for r in decoded)
        want = sorted(r.codes.tobytes() for r in sim.read_set)
        assert got == want

    def test_compression_ratio_beats_raw(self, rs2_small):
        archive, _ = roundtrip(rs2_small.read_set, rs2_small.reference,
                               with_quality=False)
        cr = rs2_small.read_set.total_bases / archive.dna_byte_size()
        assert cr > 8.0

    def test_quality_stream_sized_separately(self, rs2_small):
        archive, _ = roundtrip(rs2_small.read_set, rs2_small.reference)
        assert archive.block(0).quality is not None
        assert len(archive.to_bytes()) > archive.dna_byte_size()


class TestEdgeCases:
    def setup_method(self):
        self.rng = np.random.default_rng(11)
        self.reference = make_reference(4_000, self.rng)

    def _reads_from_reference(self, starts, length=80):
        reads = []
        for start in starts:
            codes = self.reference[start:start + length].copy()
            reads.append(Read(codes, header=f"r{start}"))
        return ReadSet(reads)

    def test_empty_read_set(self):
        archive, decoded = roundtrip(ReadSet(), self.reference)
        assert len(decoded) == 0
        assert archive.n_reads == 0

    def test_single_perfect_read(self):
        rs = self._reads_from_reference([100])
        archive, decoded = roundtrip(rs, self.reference,
                                     with_quality=False)
        assert np.array_equal(decoded[0].codes, rs[0].codes)
        assert archive.n_mapped == 1

    def test_read_with_mismatch_at_position_zero(self):
        codes = self.reference[200:280].copy()
        codes[0] = (codes[0] + 1) % 4
        rs = ReadSet([Read(codes)])
        _, decoded = roundtrip(rs, self.reference, with_quality=False)
        assert np.array_equal(decoded[0].codes, codes)

    def test_corner_read_with_mismatch_at_position_zero(self):
        # N base AND a real substitution at position 0: the position-0
        # pseudo-mismatch and the real mismatch must coexist (§5.1.4).
        codes = self.reference[300:380].copy()
        codes[0] = (codes[0] + 1) % 4
        codes[40] = seq.N_CODE
        rs = ReadSet([Read(codes)])
        _, decoded = roundtrip(rs, self.reference, with_quality=False)
        assert np.array_equal(decoded[0].codes, codes)

    def test_read_with_n_bases(self):
        codes = self.reference[500:600].copy()
        codes[10:13] = seq.N_CODE
        rs = ReadSet([Read(codes)])
        _, decoded = roundtrip(rs, self.reference, with_quality=False)
        assert np.array_equal(decoded[0].codes, codes)

    def test_unmapped_random_reads(self):
        rng = np.random.default_rng(99)
        reads = [Read(seq.random_sequence(90, rng)) for _ in range(5)]
        rs = ReadSet(reads)
        archive, decoded = roundtrip(rs, self.reference,
                                     with_quality=False)
        assert archive.n_unmapped == 5
        got = sorted(r.codes.tobytes() for r in decoded)
        assert got == sorted(r.codes.tobytes() for r in reads)

    def test_unmapped_read_with_n(self):
        rng = np.random.default_rng(5)
        codes = seq.random_sequence(90, rng)
        codes[3] = seq.N_CODE
        archive, decoded = roundtrip(ReadSet([Read(codes)]),
                                     self.reference, with_quality=False)
        assert archive.n_unmapped == 1
        assert np.array_equal(decoded[0].codes, codes)

    def test_reverse_complement_reads(self):
        fwd = self.reference[800:900].copy()
        rev = seq.reverse_complement(fwd)
        rs = ReadSet([Read(rev)])
        _, decoded = roundtrip(rs, self.reference, with_quality=False)
        assert np.array_equal(decoded[0].codes, rev)

    def test_read_with_insertion_block(self):
        rng = np.random.default_rng(3)
        left = self.reference[1000:1040]
        right = self.reference[1040:1080]
        insert = seq.random_sequence(12, rng)
        codes = np.concatenate([left, insert, right])
        rs = ReadSet([Read(codes)])
        _, decoded = roundtrip(rs, self.reference, with_quality=False)
        assert np.array_equal(decoded[0].codes, codes)

    def test_read_with_deletion_block(self):
        codes = np.concatenate([self.reference[1500:1550],
                                self.reference[1565:1615]])
        rs = ReadSet([Read(codes)])
        _, decoded = roundtrip(rs, self.reference, with_quality=False)
        assert np.array_equal(decoded[0].codes, codes)

    def test_mixed_lengths_variable_stream(self):
        rs = ReadSet([Read(self.reference[0:80].copy()),
                      Read(self.reference[90:250].copy()),
                      Read(self.reference[300:345].copy())])
        archive, decoded = roundtrip(rs, self.reference,
                                     with_quality=False)
        assert not archive.fixed_length
        got = sorted(r.codes.tobytes() for r in decoded)
        assert got == sorted(r.codes.tobytes() for r in rs)

    def test_consensus_with_n_rejected(self):
        bad = self.reference.copy()
        bad[0] = seq.N_CODE
        with pytest.raises(CompressionError):
            SAGeCompressor(bad)

    def test_quality_preserved_through_reordering(self):
        rng = np.random.default_rng(8)
        reads = []
        for start in (50, 700, 120, 2000):
            codes = self.reference[start:start + 80].copy()
            qual = rng.integers(0, 41, 80).astype(np.uint8)
            reads.append(Read(codes, qual))
        rs = ReadSet(reads)
        _, decoded = roundtrip(rs, self.reference)
        assert rs._views is None        # encoded from the columns
        assert read_multiset(decoded) == read_multiset(rs)


# ----------------------------------------------------------------------
# The per-read reference emitter.  Each mapped read is planned into
# edit events and every field is written on its own, with
# ``BitWriter.write`` and ``AssociationTable.encode``: the oracle the
# compressor's block emitter (one ``write_fields`` per stream) is held
# to, stream for stream, table for table and bit charge for bit charge.
# ----------------------------------------------------------------------

_TYPE_CODE = {SUB: TYPE_SUB, INS: TYPE_INS, DEL: TYPE_DEL}


def _n_runs(oriented):
    """``(start, length)`` runs of N, split at 255."""
    edges = np.diff(np.concatenate(
        [[0], oriented == seq.N_CODE, [0]]).astype(np.int8))
    return [(int(start) + off, min(255, int(end - start) - off))
            for start, end in zip(np.flatnonzero(edges == 1),
                                  np.flatnonzero(edges == -1))
            for off in range(0, int(end - start), 255)]


def _marker(consensus, at):
    return int(consensus[at]) if at < consensus.size else 0


def plan_read(consensus, codes, mapping, level):
    """``(events, extra segments, N runs)`` of one mapped read; an event
    is ``(kind, core position, length, bases, marker, consensus
    offset)``, an indel split into blocks of at most 255 bases (single
    bases below O2)."""
    oriented = seq.reverse_complement(codes) if mapping.reverse else codes
    block = MAX_INDEL_BLOCK if level.indel_blocks else 1
    events, extra = [], []
    segments = sorted(mapping.segments, key=lambda s: s.read_start)
    for number, segment in enumerate(segments):
        core = segment.read_start - mapping.clip_start.size
        if number:
            extra.append((core, segment.cons_start))
        shift = 0
        for op in segment.ops:
            pos = core + op.read_pos
            at = segment.cons_start + op.read_pos + shift
            if op.kind == SUB:
                base, marker = int(op.bases[0]), _marker(consensus, at)
                if base == seq.N_CODE:
                    base = (marker + 1) % 4
                events.append((SUB, pos, 1, [base], marker, at))
            elif op.kind == INS:
                bases = [0 if b == seq.N_CODE else int(b) for b in op.bases]
                events += [(INS, pos + off, len(bases[off:off + block]),
                            bases[off:off + block], _marker(consensus, at),
                            at)
                           for off in range(0, op.length, block)]
                shift -= op.length
            else:
                events += [(DEL, pos, min(block, op.length - off), [],
                            _marker(consensus, at + off), at + off)
                           for off in range(0, op.length, block)]
                shift += op.length
    return events, extra, _n_runs(oriented)


def scalar_block(compressor, read_set):
    """What ``compressor.compress_block(read_set)`` emits, one field at a
    time: ``(block attributes, plans of the mapped reads)``."""
    cfg, consensus = compressor.config, compressor.consensus
    level = cfg.level
    long_reads = not read_set.is_fixed_length if cfg.long_reads is None \
        else cfg.long_reads
    reads = read_set.read_codes()
    mappings = mapping_results(
        compressor._build_mapper(long_reads).map_batch(reads))
    rows, unmapped = [], []
    for idx, (codes, mapping) in enumerate(zip(reads, mappings)):
        plan = None if mapping.unmapped \
            else plan_read(consensus, codes, mapping, level)
        if plan is None or len(plan[2]) > 255:   # stored raw
            unmapped.append(idx)
        else:
            first = min(mapping.segments, key=lambda s: s.read_start)
            rows.append((first.cons_start, idx, mapping, plan))
    if level.reorder:
        rows.sort(key=lambda row: row[:2])
    lengths = read_set.read_lengths()
    fixed = read_set.is_fixed_length
    w_rlen = max(1, int(lengths.max(initial=1)).bit_length())
    w_cons = max(1, int(consensus.size).bit_length())
    corner = [bool(runs or m.clip_start.size or m.clip_end.size)
              for _, _, m, (_, _, runs) in rows]
    pseudo = [level.corner_marker and c for c in corner]

    def tune(values):
        return tune_values(np.array(values, dtype=np.int64),
                           cfg.epsilon).table

    tables = {}
    if level.reorder:
        tables["mp"] = tune(np.diff([row[0] for row in rows], prepend=0)) \
            if rows else AssociationTable((w_cons,))
    if level.tuned_mismatch:
        deltas = [0] * sum(pseudo)
        for *_, (events, _, _) in rows:
            positions = [event[1] for event in events]
            deltas += [p - q for p, q in zip(positions, [0] + positions)]
        tables["count"] = tune([len(plan[0]) + p
                                for (*_, plan), p in zip(rows, pseudo)])
        tables["mmp"] = tune(deltas)
    if not fixed:
        tables["len"] = tune([lengths[row[1]] for row in rows]) \
            if rows else AssociationTable((w_rlen,))
    if cfg.tuned_indel_lengths and level.indel_blocks:
        tables["indel"] = tune([event[2] for *_, (events, _, _) in rows
                                for event in events if event[0] != SUB])

    writers = {name: BitWriter() for name in BLOCK_STREAM_NAMES}
    breakdown = SizeBreakdown()

    def put(stream, category, value, nbits):
        writers[stream].write(int(value), nbits)
        breakdown.charge(category, nbits)

    def put_bytes(stream, category, data):
        writers[stream].write_bytes(data)
        breakdown.charge(category, 8 * len(data))

    def code(table, value, guide, array, category):
        streams = {writers[guide], writers[array]}
        before = sum(w.bit_length for w in streams)
        encode_value(tables[table], int(value), writers[guide],
                     writers[array])
        breakdown.charge(category, sum(w.bit_length for w in streams)
                         - before)

    def corner_payload(runs, clip_s, clip_e):
        put("corner", "contains_n", bool(runs), 1)
        put("corner", "contains_n", bool(clip_s.size or clip_e.size), 1)
        if runs:
            put("corner", "contains_n", len(runs), 8)
            for pos, run in runs:
                put("corner", "contains_n", pos, w_rlen)
                put("corner", "contains_n", run, 8)
        if clip_s.size or clip_e.size:
            put("corner", "contains_n", clip_s.size, w_rlen)
            put("corner", "contains_n", clip_e.size, w_rlen)
            put_bytes("corner", "contains_n",
                      pack_bits(np.concatenate([clip_s, clip_e]), 3))

    prev_cons = 0
    for (first, idx, mapping, (events, extra, runs)), is_pseudo, \
            is_corner in zip(rows, pseudo, corner):
        if not fixed:
            code("len", lengths[idx], "lengths", "lengths", "read_length")
        if level.reorder:
            code("mp", first - prev_cons, "mpga", "mpa", "matching_pos")
            prev_cons = first
        else:
            put("mpa", "matching_pos", first, w_cons)
        put("mbta", "rev", mapping.reverse, 1)
        if level.chimeric and long_reads:
            put("side", "matching_pos", bool(extra), 1)
            if extra:
                put("side", "matching_pos", len(extra), 2)
                for core, cons_start in extra:
                    put("side", "matching_pos", core, w_rlen)
                    put("side", "matching_pos", cons_start, w_cons)
        if level.tuned_mismatch:
            code("count", len(events) + is_pseudo, "mmpga", "mmpga",
                 "mismatch_counts")
        else:
            put("mmpga", "mismatch_counts", len(events), RAW_COUNT_BITS)
        payload = (runs, mapping.clip_start, mapping.clip_end)
        if not level.corner_marker:
            put("corner", "contains_n", bool(runs), 1)
            put("corner", "contains_n", bool(
                mapping.clip_start.size or mapping.clip_end.size), 1)
            if is_corner:
                corner_payload(*payload)
        if is_pseudo:
            code("mmp", 0, "mmpga", "mmpa", "mismatch_pos")
            put("mbta", "mismatch_types", 1, 1)
            corner_payload(*payload)
        prev = 0
        for number, (kind, pos, length, bases, marker, _) in enumerate(
                events):
            if level.tuned_mismatch:
                code("mmp", pos - prev, "mmpga", "mmpa", "mismatch_pos")
            else:
                put("mmpa", "mismatch_pos", pos, w_rlen)
            prev = pos
            if level.corner_marker and not is_pseudo and number == 0 \
                    and pos == 0:
                put("mbta", "mismatch_types", 0, 1)
            if not level.type_inference:
                put("mbta", "mismatch_types", _TYPE_CODE[kind], 2)
            if kind == SUB:
                put("mbta", "mismatch_bases", bases[0], 2)
                continue
            if level.type_inference:
                put("mbta", "mismatch_bases", marker, 2)
                put("mbta", "mismatch_types",
                    INDEL_INS if kind == INS else INDEL_DEL, 1)
            if "indel" in tables:
                code("indel", length, "mmpga", "mmpa", "mismatch_pos")
            elif level.indel_blocks:
                put("mmpga", "mismatch_pos", length == 1, 1)
                if length != 1:
                    put("mmpa", "mismatch_pos", length, 8)
            for base in bases:
                put("mbta", "mismatch_bases", base, 2)
    for idx in unmapped:
        if not fixed:
            put("unmapped", "unmapped", lengths[idx], w_rlen)
        put_bytes("unmapped", "unmapped", pack_bits(reads[idx], 3))
    breakdown.charge("unmapped", 0)

    permutation = [row[1] for row in rows] + unmapped
    if cfg.preserve_order and permutation:
        for idx in permutation:
            put("order", "header", idx,
                max(1, (len(read_set) - 1).bit_length()))
    emitted = read_set.subset(permutation)
    if cfg.with_headers and len(read_set):
        blob = headers_codec.compress_headers(emitted.headers)
        breakdown.charge("header", 8 * len(blob))
    if cfg.with_quality and read_set.has_quality:
        blob = quality_codec.compress(emitted.quality,
                                      order1=cfg.quality_order1)
        breakdown.charge("quality", 8 * blob.byte_size)
    return {"streams": {name: (w.getvalue(), w.bit_length)
                        for name, w in writers.items()},
            "tables": tables, "breakdown": breakdown,
            "permutation": permutation, "n_mapped": len(rows),
            "n_unmapped": len(unmapped)}, [row[3] for row in rows]


def assert_equals_the_oracle(compressor, read_set):
    """``compress_block`` against :func:`scalar_block`; returns the
    oracle's plans, so a test can show what its block exercised."""
    block = compressor.compress_block(read_set)
    expected, plans = scalar_block(compressor, read_set)
    assert block.streams == expected["streams"]
    assert block.tables == expected["tables"]
    assert block.breakdown == expected["breakdown"]
    assert block.permutation.tolist() == expected["permutation"]
    assert (block.n_mapped, block.n_unmapped) \
        == (expected["n_mapped"], expected["n_unmapped"])
    blob = compressor.compress(read_set).to_bytes()
    decoded = SAGeDecompressor(SAGeArchive.from_bytes(blob)) \
        .decompress_block(0)
    assert read_multiset(decoded) == read_multiset(read_set)
    return plans


#: The consensus the shaped reads below are cut from.
CONSENSUS = make_reference(12_000, np.random.default_rng(2024))


def shaped_read(shape, length, size, where, seed):
    """``length`` bases cut from :data:`CONSENSUS` in one of the shapes
    the emitter has a rule for; ``size`` (the edit's extent) and
    ``where`` (0..100, its place) steer it."""
    rng = np.random.default_rng(seed)
    cons = CONSENSUS
    start = int(rng.integers(0, cons.size - length - 2 * size - 1))
    piece = cons[start:start + length].copy()
    at = where * length // 100
    if shape == "substitutions":
        spots = rng.choice(length, min(size, length // 8), replace=False)
        spots[0] = 0 if where < 50 else spots[0]
        piece[spots] = (piece[spots] + 1 + rng.integers(0, 3, spots.size)) % 4
    elif shape == "n-run":
        piece[at:at + size] = seq.N_CODE
        piece[rng.integers(0, length)] = seq.N_CODE
    elif shape == "clip":
        clip = seq.random_sequence(8 + size % 40, rng)
        body = piece[:length - clip.size]
        piece = np.concatenate([clip, body] if where < 50 else [body, clip])
    elif shape == "chimeric":
        other = (start + cons.size // 2) % (cons.size - length)
        piece[length // 2:] = cons[other:other + length - length // 2]
    elif shape == "insertion":
        inserted = seq.random_sequence(min(size, length // 3), rng)
        inserted[rng.integers(0, inserted.size)] = seq.N_CODE
        at = at * (length - inserted.size) // length
        piece = np.concatenate([piece[:at], inserted,
                                piece[at:length - inserted.size]])
    elif shape == "deletion":
        piece = np.concatenate(
            [piece[:at], cons[start + at + size:start + length + size]])
    elif shape == "consensus-end":
        tail = seq.random_sequence(3, rng)
        piece = np.concatenate([cons[cons.size - length + 3:], tail])
        if where < 50:
            piece[length // 2] = seq.N_CODE
    elif shape == "unmapped":
        piece = seq.random_sequence(length, rng)
    return piece


SHAPES = ("exact", "substitutions", "n-run", "clip", "chimeric",
          "insertion", "deletion", "consensus-end", "unmapped")


def shaped_block(specs, fixed_length):
    """A read set of :func:`shaped_read` reads (reverse-complemented
    where asked), with scores and names."""
    reads = []
    for number, (shape, length, size, where, reverse, seed) in \
            enumerate(specs):
        codes = shaped_read(shape, fixed_length or length, size, where, seed)
        if reverse:
            codes = seq.reverse_complement(codes)
        quality = np.random.default_rng(seed).integers(
            2, 40, codes.size).astype(np.uint8)
        reads.append(Read(codes, quality, f"r{number}/{shape}"))
    return ReadSet(reads)


class TestColumnPath:
    """The block emitter (one ``write_fields`` per stream) writes the
    bits :func:`scalar_block` writes one field at a time, and charges
    them alike."""

    @staticmethod
    def _block(variable: bool):
        rng = np.random.default_rng(23)
        reference = make_reference(6_000, rng)

        def piece(start, length=90):
            return reference[start:start + (
                length + 37 * (start % 5) if variable else length)].copy()

        def sub(codes, *positions):
            codes[list(positions)] = (codes[list(positions)] + 1) % 4
            return codes

        simple = [piece(100), sub(piece(400), 0), sub(piece(700), 0, 1, 50),
                  sub(piece(1_000), 33), sub(piece(1_300), -1),
                  seq.reverse_complement(sub(piece(1_600), 0, 40)),
                  seq.reverse_complement(piece(1_900)), piece(100)]
        with_n = sub(piece(2_200), 0)
        with_n[20:23] = seq.N_CODE
        inserted = np.concatenate([reference[2_500:2_545],
                                   seq.random_sequence(9, rng),
                                   reference[2_545:2_590]])
        deleted = np.concatenate([reference[2_800:2_850],
                                  reference[2_861:2_911]])
        clipped = np.concatenate([seq.random_sequence(20, rng),
                                  reference[3_100:3_180]])
        chimeric = np.concatenate([reference[3_400:3_600],
                                   reference[5_200:5_400]])
        others = [with_n, inserted, deleted, clipped,
                  seq.random_sequence(90, rng)]
        if variable:
            others.append(chimeric)
        # Interleaved: substitution-only reads between the others.
        codes = [c for pair in zip(simple, others + others[:3])
                 for c in pair]
        quality = [rng.integers(2, 40, c.size).astype(np.uint8)
                   for c in codes]
        return reference, ReadSet(
            [Read(c, q, f"r{i}")
             for i, (c, q) in enumerate(zip(codes, quality))])

    @pytest.mark.parametrize("tuned_indel_lengths", [False, True],
                             ids=["fixed-indel", "tuned-indel"])
    @pytest.mark.parametrize("variable", [False, True],
                             ids=["fixed-length", "variable-length"])
    @pytest.mark.parametrize("level", list(OptLevel),
                             ids=lambda level: level.name)
    def test_equals_the_scalar_path(self, level, variable,
                                    tuned_indel_lengths):
        reference, read_set = self._block(variable)
        config = SAGeConfig(level=level, with_headers=True,
                            tuned_indel_lengths=tuned_indel_lengths)
        compressor = SAGeCompressor(reference, config)
        plans = assert_equals_the_oracle(compressor, read_set)
        kinds = [{event[0] for event in events} for events, _, _ in plans]
        assert sum(read <= {SUB} for read in kinds) >= 7
        assert sum(bool(read - {SUB}) for read in kinds) >= 2
        if variable and level.chimeric:
            assert any(extra for _, extra, _ in plans)

    @pytest.mark.parametrize("level", list(OptLevel),
                             ids=lambda level: level.name)
    def test_every_rule_is_exercised(self, level):
        """One block holding every shape the property draws at its
        extremes, with the oracle's plans showing each rule fired:
        N runs past 255 (split), indel blocks past 255 (split above O2),
        N inside an insertion, an insertion past the consensus end,
        clips, chimeric sides and an unmapped read."""
        specs = [("n-run", 1_400, 300, 30, False, 1),
                 ("insertion", 1_500, 300, 50, True, 2),
                 ("deletion", 1_400, 520, 40, False, 3),
                 ("consensus-end", 400, 1, 20, False, 4),
                 ("clip", 600, 20, 20, True, 5),
                 ("chimeric", 1_200, 1, 0, False, 6),
                 ("substitutions", 300, 8, 10, False, 7),
                 ("unmapped", 200, 1, 0, False, 8)]
        config = SAGeConfig(level=level, mapper=MapperConfig(
            diag_cluster_gap=1_024))
        compressor = SAGeCompressor(CONSENSUS, config)
        read_set = shaped_block(specs, None)
        plans = assert_equals_the_oracle(compressor, read_set)
        events = [event for plan in plans for event in plan[0]]
        runs = [run for plan in plans for run in plan[2]]
        assert any(run == 255 for _, run in runs)
        cap = MAX_INDEL_BLOCK if level.indel_blocks else 1
        for kind in (INS, DEL):
            blocks = [ev for ev in events if ev[0] == kind]
            assert max(ev[2] for ev in blocks) == cap
            assert len(blocks) > 300 // cap
        assert any(ev[0] == INS and ev[5] >= CONSENSUS.size
                   for ev in events)
        mappings = mapping_results(compressor._build_mapper(True)
                                   .map_batch(read_set.read_codes()))
        assert any(op.kind == INS and (op.bases == seq.N_CODE).any()
                   for m in mappings for s in m.segments for op in s.ops)
        assert any(plan[1] for plan in plans) == level.chimeric

    def test_objects_only_for_fallback_reads(self, rs2_small, monkeypatch):
        """The mapper hands the emitter its table: on a fixed-length
        short block the rows the extension (``ReadMapper._extend``)
        takes are exactly the reads the numpy kernel's fast path left to
        the scalar chain rules, and they are few."""
        read_set = rs2_small.read_set.subset(range(1_024))
        assert read_set.is_fixed_length
        compressor = SAGeCompressor(rs2_small.reference,
                                    SAGeConfig(mapper_kernel="numpy"))
        stats = GLOBAL_STATS            # the mapper's one counter
        extended = []
        extend = ReadMapper._extend

        def counting(self, oriented, starts, *args):
            extended.append(starts.size)
            return extend(self, oriented, starts, *args)

        monkeypatch.setattr(ReadMapper, "_extend", counting)
        fallback = stats.fallback
        block = compressor.compress_block(read_set)
        fallback = stats.fallback - fallback
        assert sum(extended) == fallback
        assert 0 < fallback < len(read_set) // 10
        monkeypatch.undo()
        assert block.streams \
            == scalar_block(compressor, read_set)[0]["streams"]

    @settings(max_examples=60, deadline=None)
    @given(specs=st.lists(st.tuples(
               st.sampled_from(SHAPES), st.integers(100, 1_600),
               st.sampled_from([1, 3, 40, 254, 255, 256, 300, 520]),
               st.integers(0, 100), st.booleans(), st.integers(0, 2**16)),
               max_size=8),
           fixed_length=st.one_of(st.none(), st.integers(100, 600)),
           level=st.sampled_from(list(OptLevel)),
           tuned_indel_lengths=st.booleans(),
           preserve_order=st.booleans(), with_headers=st.booleans(),
           diag_cluster_gap=st.sampled_from([64, 1_024]))
    def test_property_equals_the_oracle(self, specs, fixed_length, level,
                                        tuned_indel_lengths, preserve_order,
                                        with_headers, diag_cluster_gap):
        config = SAGeConfig(
            level=level, tuned_indel_lengths=tuned_indel_lengths,
            preserve_order=preserve_order, with_headers=with_headers,
            mapper=MapperConfig(diag_cluster_gap=diag_cluster_gap))
        assert_equals_the_oracle(SAGeCompressor(CONSENSUS, config),
                                 shaped_block(specs, fixed_length))


class TestFormatLimits:
    """Reads the format cannot state as mapped are stored raw; configs it
    cannot state are refused before anything is mapped."""

    @staticmethod
    def _with_n(starts, long_run=0):
        """9,000 consensus bases with an ``N`` at each of ``starts``,
        after a ``long_run``-base ``N`` run."""
        codes = CONSENSUS[1_000:10_000].copy()
        codes[:long_run] = seq.N_CODE
        codes[np.asarray(starts, dtype=np.int64)] = seq.N_CODE
        return ReadSet([Read(codes)])

    @pytest.mark.parametrize("level", list(OptLevel),
                             ids=lambda level: level.name)
    def test_more_n_runs_than_a_corner_payload_lists(self, level):
        # Every 20th base N is 450 runs: an 8-bit count cannot list them,
        # so the read is stored raw (the 3-bit payload holds N); every
        # 40th, 225 runs, still maps.  At the edge 255 runs map and 256
        # do not, a run longer than 255 counting as its pieces.
        singles = 317 + 34 * np.arange(256)
        for read_set, mapped in (
                (self._with_n(np.arange(0, 9_000, 20)), 0),
                (self._with_n(np.arange(0, 9_000, 40)), 1),
                (self._with_n(singles[:255]), 1),
                (self._with_n(singles), 0),
                (self._with_n(singles[:253], long_run=300), 1),
                (self._with_n(singles[:254], long_run=300), 0)):
            archive, decoded = roundtrip(read_set, CONSENSUS, level=level,
                                         with_quality=False)
            assert archive.n_mapped == mapped
            assert np.array_equal(decoded[0].codes, read_set[0].codes)

    def test_chimeric_segments_fit_the_side_count(self):
        codes = np.concatenate([CONSENSUS[start:start + 400]
                                for start in range(0, 12_000, 2_000)])
        read_set = ReadSet([Read(codes)])
        config = SAGeConfig(mapper=MapperConfig(max_segments=4),
                            long_reads=True, with_quality=False)
        compressor = SAGeCompressor(CONSENSUS, config)
        _, plans = scalar_block(compressor, read_set)
        assert len(plans[0][1]) == 3           # the most 2 bits count
        archive, decoded = roundtrip(read_set, CONSENSUS,
                                     mapper=config.mapper, long_reads=True,
                                     with_quality=False)
        assert np.array_equal(decoded[0].codes, codes)
        for segments in (0, 5, 6):
            with pytest.raises(CompressionError, match="max_segments"):
                SAGeCompressor(CONSENSUS, SAGeConfig(
                    mapper=MapperConfig(max_segments=segments),
                    long_reads=True))


class TestBreakdownAccounting:
    def test_breakdown_covers_streams(self, rs2_small):
        archive, _ = roundtrip(rs2_small.read_set, rs2_small.reference,
                               with_quality=False)
        accounted = archive.breakdown.mismatch_info_bits
        stream_bits = sum(
            bits for _, bits in archive.block(0).streams.values())
        assert accounted == stream_bits

    def test_consensus_charged(self, rs2_small):
        archive, _ = roundtrip(rs2_small.read_set, rs2_small.reference,
                               with_quality=False)
        assert archive.breakdown.get("consensus") == archive.consensus[1]

    def test_levels_monotonically_smaller(self, rs4_small):
        sizes = []
        for level in OptLevel:
            archive, _ = roundtrip(rs4_small.read_set,
                                   rs4_small.reference, level=level,
                                   with_quality=False)
            sizes.append(archive.breakdown.mismatch_info_bits)
        assert sizes[0] >= sizes[1] >= sizes[2] >= sizes[3] >= sizes[4]
        assert sizes[4] < 0.75 * sizes[0]


class TestPermutation:
    def test_permutation_maps_emission_to_input(self, rs3_small):
        sim = rs3_small
        config = SAGeConfig(with_quality=False)
        archive = SAGeCompressor(sim.reference, config) \
            .compress(sim.read_set)
        decoded = SAGeDecompressor(archive).decompress_block(0)
        for out_idx, in_idx in enumerate(archive.block(0).permutation):
            assert np.array_equal(decoded[out_idx].codes,
                                  sim.read_set[int(in_idx)].codes)
