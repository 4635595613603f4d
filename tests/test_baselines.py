"""Tests for the baseline compressors (pigz analog, Spring analog)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import pigz
from repro.baselines.spring import SpringCompressor, SpringDecompressor
from repro.core import deflate, lz77
from repro.core.huffman import HuffmanTable, entropy_bits
from repro.genomics import fastq

from tests.conftest import read_multiset


class TestHuffman:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=1,
                    max_size=3000))
    def test_roundtrip(self, symbols):
        arr = np.array(symbols, dtype=np.int64)
        counts = np.bincount(arr, minlength=61)
        table = HuffmanTable.from_counts(counts)
        payload, nbits = table.encode(arr)
        assert np.array_equal(table.decode(payload, arr.size, nbits), arr)

    def test_codes_are_prefix_free(self):
        counts = np.array([100, 50, 25, 12, 6, 3, 1])
        table = HuffmanTable.from_counts(counts)
        codes = [format(int(c), f"0{int(l)}b")
                 for c, l in zip(table.codes, table.lengths) if l]
        for i, a in enumerate(codes):
            for j, b in enumerate(codes):
                if i != j:
                    assert not b.startswith(a)

    def test_skewed_input_gets_short_codes(self):
        counts = np.array([10_000, 10, 10, 10])
        table = HuffmanTable.from_counts(counts)
        assert table.lengths[0] == 1

    def test_table_serialization(self):
        from repro.core.bitio import BitReader, BitWriter
        counts = np.array([5, 9, 12, 13, 16, 45])
        table = HuffmanTable.from_counts(counts)
        w = BitWriter()
        table.serialize(w)
        back = HuffmanTable.deserialize(BitReader(w.getvalue(),
                                                  w.bit_length))
        assert np.array_equal(back.lengths, table.lengths)
        assert np.array_equal(back.codes, table.codes)

    def test_average_length_near_entropy(self):
        rng = np.random.default_rng(0)
        symbols = rng.choice(8, size=50_000,
                             p=[.4, .2, .15, .1, .06, .05, .03, .01])
        counts = np.bincount(symbols, minlength=8)
        table = HuffmanTable.from_counts(counts)
        _, nbits = table.encode(symbols)
        avg = nbits / symbols.size
        h = entropy_bits(counts)
        assert h <= avg <= h + 1.0


class TestLZ77:
    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=2000))
    def test_roundtrip(self, data):
        tokens = lz77.tokenize(data)
        assert lz77.detokenize(tokens) == data

    def test_repetitive_data_yields_matches(self):
        data = b"GATTACA" * 300
        tokens = lz77.tokenize(data)
        assert any(t.match_length >= 16 for t in tokens)

    def test_distances_within_window(self):
        rng = np.random.default_rng(0)
        data = bytes(rng.integers(65, 69, 80_000).astype(np.uint8))
        for token in lz77.tokenize(data):
            assert token.distance <= lz77.WINDOW


class TestDeflate:
    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=4000))
    def test_roundtrip(self, data):
        blob = deflate.compress(data)
        assert deflate.decompress(blob) == data

    def test_multi_block(self):
        data = b"abcdefgh" * 5000
        blob = deflate.compress(data, block_size=8192)
        assert blob.n_blocks > 1
        assert deflate.decompress(blob) == data

    def test_compresses_redundant_data(self):
        data = b"ACGTACGTAA" * 2000
        blob = deflate.compress(data)
        assert blob.byte_size < len(data) / 5

    def test_empty(self):
        blob = deflate.compress(b"")
        assert deflate.decompress(blob) == b""


class TestPigz:
    def test_fastq_roundtrip(self, rs3_small):
        archive = pigz.compress_read_set(rs3_small.read_set)
        back = pigz.decompress_read_set(archive)
        assert fastq.write(back) == fastq.write(rs3_small.read_set)

    def test_dna_ratio_is_general_purpose_class(self, rs2_small):
        blob = pigz.compress_dna(rs2_small.read_set)
        ratio = rs2_small.read_set.total_bases / blob.byte_size
        # General-purpose on DNA text: well above 1, far below genomic.
        assert 1.5 < ratio < 8.0


class TestSpringAnalog:
    @pytest.mark.parametrize("fixture", ["rs2_small", "rs4_small"])
    def test_lossless(self, fixture, request):
        sim = request.getfixturevalue(fixture)
        archive = SpringCompressor(sim.reference).compress(sim.read_set)
        decoded = SpringDecompressor(archive).decompress()
        assert read_multiset(decoded) == read_multiset(sim.read_set)

    def test_genomic_ratio_beats_pigz(self, rs2_small):
        spring_archive = SpringCompressor(
            rs2_small.reference, with_quality=False) \
            .compress(rs2_small.read_set)
        pigz_blob = pigz.compress_dna(rs2_small.read_set)
        spring_cr = rs2_small.read_set.total_bases \
            / spring_archive.dna_byte_size()
        pigz_cr = rs2_small.read_set.total_bases / pigz_blob.byte_size
        assert spring_cr > 2.5 * pigz_cr

    def test_ratio_close_to_sage(self, rs2_small):
        from repro.core import SAGeCompressor, SAGeConfig
        spring_archive = SpringCompressor(
            rs2_small.reference, with_quality=False) \
            .compress(rs2_small.read_set)
        sage_archive = SAGeCompressor(
            rs2_small.reference, SAGeConfig(with_quality=False)) \
            .compress(rs2_small.read_set)
        spring_cr = rs2_small.read_set.total_bases \
            / spring_archive.dna_byte_size()
        sage_cr = rs2_small.read_set.total_bases \
            / sage_archive.dna_byte_size()
        # Paper: SAGe within ~5% of (N)Spring on average; allow slack
        # for the scaled-down analogs.
        assert 0.75 < sage_cr / spring_cr < 1.35
