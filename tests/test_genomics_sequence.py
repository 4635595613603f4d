"""Unit tests for repro.genomics.sequence."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.genomics import sequence as seq

dna_text = st.text(alphabet="ACGTN", min_size=0, max_size=300)
acgt_text = st.text(alphabet="ACGT", min_size=1, max_size=300)


class TestEncodeDecode:
    def test_basic_order(self):
        assert seq.encode("ACGTN").tolist() == [0, 1, 2, 3, 4]

    def test_lowercase_normalized(self):
        assert seq.decode(seq.encode("acgtn")) == "ACGTN"

    def test_empty(self):
        assert seq.encode("").size == 0
        assert seq.decode(np.empty(0, dtype=np.uint8)) == ""

    def test_invalid_character(self):
        with pytest.raises(seq.SequenceError):
            seq.encode("ACGX")

    def test_invalid_code(self):
        with pytest.raises(seq.SequenceError):
            seq.decode(np.array([7], dtype=np.uint8))

    @given(dna_text)
    def test_roundtrip(self, text):
        assert seq.decode(seq.encode(text)) == text

    def test_bytes_input(self):
        assert seq.encode(b"ACGT").tolist() == [0, 1, 2, 3]


class TestReverseComplement:
    def test_known(self):
        assert seq.decode(seq.reverse_complement(seq.encode("AACGT"))) \
            == "ACGTT"

    def test_n_maps_to_n(self):
        assert seq.decode(seq.reverse_complement(seq.encode("ANT"))) \
            == "ANT"

    @given(dna_text)
    def test_involution(self, text):
        codes = seq.encode(text)
        twice = seq.reverse_complement(seq.reverse_complement(codes))
        assert np.array_equal(twice, codes)


class TestContainsN:
    def test_with_and_without(self):
        assert seq.contains_n(seq.encode("ACNGT"))
        assert not seq.contains_n(seq.encode("ACGT"))

    def test_empty(self):
        assert not seq.contains_n(np.empty(0, dtype=np.uint8))


class TestRandomSequence:
    def test_length_and_alphabet(self):
        rng = np.random.default_rng(0)
        codes = seq.random_sequence(5000, rng)
        assert codes.size == 5000
        assert codes.max() < 4

    def test_gc_content_respected(self):
        rng = np.random.default_rng(0)
        codes = seq.random_sequence(50_000, rng, gc_content=0.7)
        gc = np.isin(codes, [1, 2]).mean()
        assert 0.65 < gc < 0.75

    def test_invalid_gc(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            seq.random_sequence(10, rng, gc_content=1.5)


class TestKmerCodes:
    def test_values_match_manual_packing(self):
        codes = seq.encode("ACGTA")
        kmers = seq.kmer_codes(codes, 2)
        # AC=0b0001, CG=0b0110, GT=0b1011, TA=0b1100
        assert kmers.tolist() == [1, 6, 11, 12]

    def test_n_marked_with_sentinel(self):
        codes = seq.encode("ACNGT")
        kmers = seq.kmer_codes(codes, 3)
        sentinel = 1 << 6
        assert (kmers == sentinel).tolist() == [True, True, True]

    def test_too_short(self):
        assert seq.kmer_codes(seq.encode("AC"), 5).size == 0

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            seq.kmer_codes(seq.encode("ACGT"), 0)
        with pytest.raises(ValueError):
            seq.kmer_codes(seq.encode("ACGT"), 32)

    @given(st.lists(st.integers(0, 4), max_size=120),
           st.integers(min_value=1, max_value=31))
    def test_doubling_equals_one_pass_per_offset(self, codes, k):
        """The doubling packer against the ``k``-pass loop it replaced,
        ``N`` sentinels included, for every ``k``."""
        codes = np.array(codes, dtype=np.uint8)
        n = codes.size - k + 1
        want = np.zeros(max(n, 0), dtype=np.uint64)
        bad = np.zeros(max(n, 0), dtype=bool)
        for off in range(k):
            window = codes[off:off + n] if n > 0 else codes[:0]
            bad |= window == seq.N_CODE
            want = (want << np.uint64(2)) | window.astype(np.uint64)
        want[bad] = np.uint64(1) << np.uint64(2 * k)
        assert seq.kmer_codes(codes, k).tolist() == want.tolist()

    @given(acgt_text, st.integers(min_value=1, max_value=8))
    def test_distinct_kmers_distinct_codes(self, text, k):
        codes = seq.encode(text)
        kmers = seq.kmer_codes(codes, k)
        for i in range(kmers.size):
            window = text[i:i + k]
            expected = 0
            for ch in window:
                expected = (expected << 2) | "ACGT".index(ch)
            assert int(kmers[i]) == expected
