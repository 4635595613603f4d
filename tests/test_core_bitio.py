"""Unit tests for repro.core.bitio."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bitio import BitIOError, BitReader, BitWriter

fields = st.lists(
    st.integers(min_value=0, max_value=56).flatmap(
        lambda w: st.tuples(st.integers(min_value=0,
                                        max_value=(1 << w) - 1),
                            st.just(w))),
    min_size=0, max_size=80)


class TestWriter:
    def test_single_field(self):
        w = BitWriter()
        w.write(0b101, 3)
        assert w.bit_length == 3
        assert w.getvalue() == bytes([0b10100000])

    def test_value_too_wide(self):
        w = BitWriter()
        with pytest.raises(BitIOError):
            w.write(4, 2)

    def test_negative_rejected(self):
        w = BitWriter()
        with pytest.raises(BitIOError):
            w.write(-1, 4)
        with pytest.raises(BitIOError):
            w.write(1, -1)

    def test_zero_width_noop(self):
        w = BitWriter()
        w.write(0, 0)
        assert w.bit_length == 0

    def test_align_to_byte(self):
        w = BitWriter()
        w.write(1, 1)
        w.align_to_byte()
        assert w.bit_length == 8
        w.align_to_byte()
        assert w.bit_length == 8

    def test_write_bytes_aligned_and_unaligned(self):
        w = BitWriter()
        w.write_bytes(b"\xab")
        w.write(1, 1)
        w.write_bytes(b"\xff")
        r = BitReader(w.getvalue(), w.bit_length)
        assert r.read(8) == 0xAB
        assert r.read(1) == 1
        assert r.read(8) == 0xFF


class TestReader:
    def test_read_past_end(self):
        r = BitReader(b"\x00", 4)
        r.read(4)
        with pytest.raises(BitIOError):
            r.read(1)

    def test_limit_checked_against_buffer(self):
        with pytest.raises(BitIOError):
            BitReader(b"\x00", 9)

    def test_position_and_remaining(self):
        r = BitReader(b"\xff\xff")
        assert r.remaining == 16
        r.read(5)
        assert r.position == 5
        assert r.remaining == 11

    def test_read_bytes_fast_path_aligned(self):
        r = BitReader(b"\x01\x02\x03")
        assert r.read_bytes(2) == b"\x01\x02"
        assert r.read(8) == 3

    def test_read_bytes_unaligned(self):
        w = BitWriter()
        w.write(1, 1)
        w.write_bytes(b"\xaa\xbb")
        r = BitReader(w.getvalue(), w.bit_length)
        r.read(1)
        assert r.read_bytes(2) == b"\xaa\xbb"

    def test_align_to_byte(self):
        r = BitReader(b"\xff\x01")
        r.read(3)
        r.align_to_byte()
        assert r.read(8) == 1

    def test_wide_field(self):
        w = BitWriter()
        w.write(3, 7)                          # skew the alignment
        value = (1 << 90) - 123
        w.write(value, 91)
        r = BitReader(w.getvalue(), w.bit_length)
        assert r.read(7) == 3
        assert r.read(91) == value

    def test_unary_without_terminator(self):
        r = BitReader(b"\xff", 8, name="mpga")
        with pytest.raises(BitIOError, match="mpga.*past end"):
            r.read_unary()


class TestUnary:
    @pytest.mark.parametrize("value", [0, 1, 2, 7, 31])
    def test_roundtrip(self, value):
        w = BitWriter()
        w.write_unary(value)
        assert w.bit_length == value + 1
        r = BitReader(w.getvalue(), w.bit_length)
        assert r.read_unary() == value

    def test_negative_rejected(self):
        with pytest.raises(BitIOError):
            BitWriter().write_unary(-1)

    def test_paper_code_family(self):
        # §5.1.1: codes 0, 10, 110, 1110 for four classes.
        w = BitWriter()
        for i in range(4):
            w.write_unary(i)
        assert w.getvalue() == bytes([0b01011011, 0b10000000])


class TestRoundtripProperties:
    @given(fields)
    def test_field_sequence_roundtrip(self, pairs):
        w = BitWriter()
        for value, width in pairs:
            w.write(value, width)
        r = BitReader(w.getvalue(), w.bit_length)
        for value, width in pairs:
            assert r.read(width) == value
        assert r.remaining == 0

    @given(st.binary(max_size=200))
    def test_bytes_roundtrip(self, data):
        w = BitWriter()
        w.write_bytes(data)
        r = BitReader(w.getvalue(), w.bit_length)
        assert r.read_bytes(len(data)) == data

    @given(st.binary(max_size=40), st.integers(min_value=0, max_value=7))
    def test_read_bytes_any_alignment(self, data, skew):
        # The unaligned path shifts the straddled bytes in one pass; it
        # must stop at the stream's last byte, not read past it.
        w = BitWriter()
        w.write(0, skew)
        w.write_bytes(data)
        r = BitReader(w.getvalue(), w.bit_length)
        assert r.read(skew) == 0
        assert r.read_bytes(len(data)) == data
        assert r.remaining == 0

    def test_mixed_script(self):
        # Fields, unary codes and raw bytes interleaved at every
        # alignment read back as written, position by position.
        rng = np.random.default_rng(0)
        w = BitWriter()
        script = []
        for _ in range(200):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                width = int(rng.integers(1, 57))
                value = int(rng.integers(0, 1 << width))
                w.write(value, width)
                script.append((kind, value, width, w.bit_length))
            elif kind == 1:
                value = int(rng.integers(0, 12))
                w.write_unary(value)
                script.append((kind, value, None, w.bit_length))
            else:
                value = bytes(rng.integers(0, 256, 3, dtype=np.uint8))
                w.write_bytes(value)
                script.append((kind, value, len(value), w.bit_length))
        r = BitReader(w.getvalue(), w.bit_length)
        for kind, value, size, end in script:
            if kind == 0:
                assert r.read(size) == value
            elif kind == 1:
                assert r.read_unary() == value
            else:
                assert r.read_bytes(size) == value
            assert r.position == end

    @given(st.lists(st.integers(min_value=0, max_value=20), max_size=30))
    def test_unary_sequence(self, values):
        w = BitWriter()
        for v in values:
            w.write_unary(v)
        r = BitReader(w.getvalue(), w.bit_length)
        assert [r.read_unary() for _ in values] == values
