"""Unit tests for repro.core.prefix_codes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bitio import BitReader, BitWriter
from repro.core.errors import CorruptArchiveError
from repro.core.prefix_codes import MAX_CLASSES, MAX_WIDTH, AssociationTable

from tests.conftest import encode_value, encoded_bits, write_unary


def coded_streams(table, values):
    """``values`` written as the compressor writes them: guide codes
    to one stream, fields to another, one ``write_fields`` each."""
    codes, code_widths, field_widths = table.guide_codes(values)
    guide, array = BitWriter(), BitWriter()
    guide.write_fields(codes, code_widths)
    array.write_fields(np.asarray(values), field_widths)
    return guide, array


class TestValidation:
    def test_needs_at_least_one_class(self):
        with pytest.raises(ValueError):
            AssociationTable(())

    def test_too_many_classes(self):
        with pytest.raises(ValueError):
            AssociationTable(tuple(range(1, MAX_CLASSES + 2)))

    def test_duplicate_widths_rejected(self):
        with pytest.raises(ValueError):
            AssociationTable((3, 3))

    def test_width_range(self):
        with pytest.raises(ValueError):
            AssociationTable((64,))


class TestClassSelection:
    def test_smallest_fitting_class(self):
        table = AssociationTable((2, 4, 8))
        assert table.classify([3, 4, 200]).tolist() == [0, 1, 2]

    def test_cheapest_not_first(self):
        # Class 0 is wide (frequent large values); a small value is still
        # cheaper in class 0 (1+8) than class 1 (2+2=4)?  No: 4 < 9, so
        # the narrow class wins despite its longer unary code.
        table = AssociationTable((8, 2))
        assert table.classify([3]).tolist() == [1]
        _, code_widths, field_widths = table.guide_codes([3])
        assert code_widths[0] + field_widths[0] == 2 + 2

    def test_value_too_large(self):
        table = AssociationTable((2, 4))
        with pytest.raises(ValueError):
            table.classify([16])

    def test_from_histogram_orders_by_frequency(self):
        table = AssociationTable.from_histogram([2, 5, 8], [10, 500, 3])
        assert table.widths == (5, 2, 8)


class TestEncodeDecode:
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                    max_size=100))
    def test_roundtrip(self, values):
        table = AssociationTable((2, 5, 8))
        guide, array = coded_streams(table, values)
        gr = BitReader(guide.getvalue(), guide.bit_length)
        ar = BitReader(array.getvalue(), array.bit_length)
        assert [table.decode(gr, ar) for _ in values] == values

    def test_guide_and_array_separated(self):
        table = AssociationTable((1, 4))
        # 0 is class 0: guide '0', array 1 bit; 9 is class 1: guide '10',
        # array 4 bits.
        guide, array = coded_streams(table, [0, 9])
        assert guide.bit_length == 1 + 2
        assert array.bit_length == 1 + 4

    def test_decode_unknown_class(self):
        table = AssociationTable((2,))
        guide, array = BitWriter(), BitWriter()
        write_unary(guide, 3)  # class 3 does not exist
        array.write(0, 2)
        gr = BitReader(guide.getvalue(), guide.bit_length)
        ar = BitReader(array.getvalue(), array.bit_length)
        with pytest.raises(ValueError):
            table.decode(gr, ar)

    def test_encoded_bits_matches_streams(self):
        table = AssociationTable((3, 6))
        for value in (0, 7, 8, 63):
            guide, array = coded_streams(table, [value])
            assert encoded_bits(table, value) \
                == guide.bit_length + array.bit_length
            oracle = BitWriter(), BitWriter()
            encode_value(table, value, *oracle)
            assert [w.getvalue() for w in oracle] \
                == [guide.getvalue(), array.getvalue()]


class TestSerialization:
    @given(st.sets(st.integers(min_value=0, max_value=MAX_WIDTH),
                   min_size=1, max_size=MAX_CLASSES))
    def test_roundtrip(self, widths):
        table = AssociationTable(tuple(widths))
        w = BitWriter()
        table.serialize(w)
        back = AssociationTable.deserialize(
            BitReader(w.getvalue(), w.bit_length))
        assert back.widths == table.widths

    @pytest.mark.parametrize("width", range(MAX_WIDTH + 1, 64))
    def test_wider_than_a_window_is_refused(self, width):
        # The 6-bit width field can say 57..63; no decoder reads such a
        # field through one 64-bit window, so the table is corrupt.
        w = BitWriter()
        w.write(1, 3)
        w.write(3, 6)
        w.write(width, 6)
        with pytest.raises(CorruptArchiveError, match=f"width {width}"):
            AssociationTable.deserialize(BitReader(w.getvalue(),
                                                   w.bit_length))


def test_unary_code_length():
    # Class i's guide code is i ones and a terminating zero.
    table = AssociationTable((2, 4, 6, 8))
    for index, value in enumerate((3, 15, 63, 255)):
        guide, array = coded_streams(table, [value])
        assert guide.bit_length == index + 1
        assert guide.getvalue()[0] >> (7 - index) == (1 << (index + 1)) - 2
        assert array.bit_length == table.widths[index]
