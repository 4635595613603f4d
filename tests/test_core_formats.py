"""Unit tests for repro.core.formats (§5.4 output formats)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.formats import (FormatError, OutputFormat, bits_per_base,
                                encode_output, pack_bits,
                                unpack_bits)
from repro.genomics import sequence as seq
from tests.conftest import decode_output

acgt_codes = st.lists(st.integers(min_value=0, max_value=3), min_size=0,
                      max_size=300).map(
    lambda xs: np.array(xs, dtype=np.uint8))
acgtn_codes = st.lists(st.integers(min_value=0, max_value=4), min_size=0,
                       max_size=300).map(
    lambda xs: np.array(xs, dtype=np.uint8))


class TestFormats:
    @given(acgtn_codes)
    def test_ascii_roundtrip(self, codes):
        text = encode_output(codes, OutputFormat.ASCII)
        back = decode_output(text, OutputFormat.ASCII, codes.size)
        assert np.array_equal(back, codes)

    @given(acgt_codes)
    def test_two_bit_roundtrip(self, codes):
        packed = encode_output(codes, OutputFormat.TWO_BIT)
        back = decode_output(packed, OutputFormat.TWO_BIT, codes.size)
        assert np.array_equal(back, codes)

    @given(acgtn_codes)
    def test_three_bit_roundtrip(self, codes):
        packed = encode_output(codes, OutputFormat.THREE_BIT)
        back = decode_output(packed, OutputFormat.THREE_BIT, codes.size)
        assert np.array_equal(back, codes)

    @given(acgtn_codes)
    def test_one_hot_roundtrip(self, codes):
        onehot = encode_output(codes, OutputFormat.ONE_HOT)
        back = decode_output(onehot, OutputFormat.ONE_HOT, codes.size)
        assert np.array_equal(back, codes)

    def test_two_bit_rejects_n(self):
        with pytest.raises(FormatError):
            encode_output(seq.encode("ACN"), OutputFormat.TWO_BIT)

    def test_two_bit_density(self):
        packed = encode_output(seq.encode("ACGTACGT"),
                               OutputFormat.TWO_BIT)
        assert len(packed) == 2

    def test_one_hot_shape(self):
        onehot = encode_output(seq.encode("ACGTN"), OutputFormat.ONE_HOT)
        assert onehot.shape == (5, 5)
        assert (onehot.sum(axis=1) == 1).all()

    def test_bits_per_base_ordering(self):
        assert bits_per_base(OutputFormat.TWO_BIT) \
            < bits_per_base(OutputFormat.THREE_BIT) \
            < bits_per_base(OutputFormat.ASCII) \
            < bits_per_base(OutputFormat.ONE_HOT)


class TestPackBits:
    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=200),
           st.integers(min_value=3, max_value=6))
    def test_roundtrip(self, values, width):
        arr = np.array(values, dtype=np.uint8)
        packed = pack_bits(arr, width)
        assert np.array_equal(unpack_bits(packed, width, arr.size), arr)

    def test_width_overflow(self):
        with pytest.raises(FormatError):
            pack_bits(np.array([4], dtype=np.uint8), 2)

    def test_packed_size(self):
        packed = pack_bits(np.zeros(10, dtype=np.uint8), 3)
        assert len(packed) == 4  # ceil(30 / 8)
