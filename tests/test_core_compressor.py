"""Integration tests for the SAGe codec (compressor + decompressor)."""

import numpy as np
import pytest

from repro.core import (OptLevel, SAGeCompressor, SAGeConfig,
                        SAGeDecompressor)
from repro.core import compressor as compressor_module
from repro.core.compressor import CompressionError
from repro.core.container import SAGeArchive
from repro.genomics import sequence as seq
from repro.genomics.reads import Read, ReadSet
from repro.genomics.reference import make_reference

from tests.conftest import read_multiset


def roundtrip(read_set, reference, **config_kwargs):
    config = SAGeConfig(**config_kwargs)
    archive = SAGeCompressor(reference, config).compress(read_set)
    blob = archive.to_bytes()
    decoded = SAGeDecompressor(SAGeArchive.from_bytes(blob)).decompress()
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
        assert archive.byte_size() > archive.dna_byte_size()


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


class TestColumnPath:
    """Simple reads (one segment, no clip, substitutions only, no N)
    are planned and emitted as columns; ``_plan_read``/``_write_read``
    stay the reference, reached by declaring nothing simple."""

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
        # Interleaved, so runs of simple reads are broken by the rest.
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
    def test_equals_the_scalar_path(self, monkeypatch, level, variable,
                                    tuned_indel_lengths):
        reference, read_set = self._block(variable)
        config = SAGeConfig(level=level, with_headers=True,
                            tuned_indel_lengths=tuned_indel_lengths)
        chosen = []
        selection = compressor_module._is_simple
        monkeypatch.setattr(
            compressor_module, "_is_simple",
            lambda *args: chosen.append(selection(*args)) or chosen[-1])
        compressor = SAGeCompressor(reference, config)
        columns = compressor.compress_block(read_set)
        assert sum(chosen) >= 7 and chosen.count(False) >= 4

        monkeypatch.setattr(compressor_module, "_is_simple",
                            lambda *args: False)
        scalar = SAGeCompressor(reference, config).compress_block(read_set)
        assert columns.streams == scalar.streams
        assert columns.tables == scalar.tables
        assert columns.breakdown == scalar.breakdown
        assert columns.permutation.tolist() == scalar.permutation.tolist()
        if variable and level.chimeric:
            assert columns.streams["side"][1] > 0

        blob = compressor.assemble([columns]).to_bytes()
        decoded = SAGeDecompressor(SAGeArchive.from_bytes(blob)).decompress()
        assert read_multiset(decoded) == read_multiset(read_set)


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
        decoded = SAGeDecompressor(archive).decompress()
        for out_idx, in_idx in enumerate(archive.block(0).permutation):
            assert np.array_equal(decoded[out_idx].codes,
                                  sim.read_set[int(in_idx)].codes)
