"""Edge-case tests for the baseline compressors."""

import numpy as np
import pytest

from repro.baselines import pigz
from repro.baselines.spring import SpringCompressor, SpringDecompressor
from repro.core import deflate, lz77
from repro.genomics import sequence as seq
from repro.genomics.reads import Read, ReadSet
from repro.genomics.reference import make_reference


class TestSpringEdges:
    def setup_method(self):
        self.rng = np.random.default_rng(17)
        self.reference = make_reference(4_000, self.rng)

    def test_empty_read_set(self):
        archive = SpringCompressor(self.reference).compress(ReadSet())
        decoded = SpringDecompressor(archive).decompress()
        assert len(decoded) == 0

    def test_quality_less_reads(self):
        reads = ReadSet([Read(self.reference[100:200].copy()),
                         Read(self.reference[700:800].copy())])
        archive = SpringCompressor(self.reference).compress(reads)
        assert archive.quality is None
        decoded = SpringDecompressor(archive).decompress()
        got = sorted(r.codes.tobytes() for r in decoded)
        assert got == sorted(r.codes.tobytes() for r in reads)

    def test_unmapped_reads_survive(self):
        junk = Read(seq.random_sequence(80, self.rng))
        reads = ReadSet([Read(self.reference[50:150].copy()), junk])
        archive = SpringCompressor(self.reference,
                                   with_quality=False).compress(reads)
        assert archive.n_unmapped == 1
        decoded = SpringDecompressor(archive).decompress()
        got = sorted(r.codes.tobytes() for r in decoded)
        assert got == sorted(r.codes.tobytes() for r in reads)

    def test_read_with_n(self):
        codes = self.reference[300:400].copy()
        codes[7] = seq.N_CODE
        reads = ReadSet([Read(codes)])
        archive = SpringCompressor(self.reference,
                                   with_quality=False).compress(reads)
        decoded = SpringDecompressor(archive).decompress()
        assert np.array_equal(decoded[0].codes, codes)

    def test_reverse_complement_read(self):
        rc = seq.reverse_complement(self.reference[900:1000])
        archive = SpringCompressor(self.reference, with_quality=False) \
            .compress(ReadSet([Read(rc)]))
        decoded = SpringDecompressor(archive).decompress()
        assert np.array_equal(decoded[0].codes, rc)

    def test_variable_length_reads(self):
        reads = ReadSet([Read(self.reference[0:60].copy()),
                         Read(self.reference[100:350].copy())])
        archive = SpringCompressor(self.reference,
                                   with_quality=False).compress(reads)
        assert archive.fixed_length == 0
        decoded = SpringDecompressor(archive).decompress()
        got = sorted(r.codes.tobytes() for r in decoded)
        assert got == sorted(r.codes.tobytes() for r in reads)


class TestDeflateEdges:
    def test_single_byte(self):
        blob = deflate.compress(b"x")
        assert deflate.decompress(blob) == b"x"

    def test_all_identical_bytes(self):
        data = b"\x00" * 10_000
        blob = deflate.compress(data)
        assert deflate.decompress(blob) == data
        assert blob.byte_size < 600

    def test_incompressible_random(self):
        rng = np.random.default_rng(0)
        data = bytes(rng.integers(0, 256, 5_000).astype(np.uint8))
        blob = deflate.compress(data)
        assert deflate.decompress(blob) == data
        # Near-incompressible: bounded expansion only.
        assert blob.byte_size < 1.2 * len(data) + 600

    def test_block_boundary_exact(self):
        data = b"ab" * 4096  # exactly one 8 KiB block
        blob = deflate.compress(data, block_size=8192)
        assert blob.n_blocks == 1
        assert deflate.decompress(blob) == data


class TestLZ77Edges:
    def test_empty(self):
        assert lz77.detokenize(lz77.tokenize(b"")) == b""

    def test_min_match_threshold(self):
        # Repeats shorter than MIN_MATCH stay literals.
        data = b"abcabc"
        tokens = lz77.tokenize(data)
        assert lz77.detokenize(tokens) == data

    def test_overlapping_match(self):
        # RLE-style copies where the match overlaps its own output.
        data = b"a" * 300
        tokens = lz77.tokenize(data)
        assert lz77.detokenize(tokens) == data
        assert any(t.match_length > 0 and t.distance < t.match_length
                   for t in tokens)


class TestPigzEdges:
    def test_empty_read_set(self):
        archive = pigz.compress_read_set(ReadSet())
        assert pigz.decompress_read_set(archive).reads == []

    def test_quality_stream_requires_quality(self):
        reads = ReadSet([Read(seq.encode("ACGT"))])
        with pytest.raises(ValueError):
            pigz.quality_stream(reads)

    def test_dna_stream_layout(self):
        reads = ReadSet([Read(seq.encode("ACGT")),
                         Read(seq.encode("TT"))])
        assert pigz.dna_stream(reads) == b"ACGT\nTT"
