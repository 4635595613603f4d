"""Unit tests for repro.core.quality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import quality
from repro.core.bitio import BitReader
from repro.core.errors import SAGeError
from repro.core.huffman import (PEEK_BITS, HuffmanError, HuffmanTable,
                                canonical_codes)

score_arrays = st.lists(st.integers(min_value=0, max_value=60),
                        min_size=0, max_size=2000).map(
    lambda xs: np.array(xs, dtype=np.uint8))


def reference_huffman_decode(table, payload, n_symbols):
    """The per-symbol decode loop the vectorized decoder replaced."""
    sym_tab, len_tab = table._decode_table()
    out = np.empty(n_symbols, dtype=np.int64)
    data = payload + b"\x00\x00"
    acc = acc_bits = byte_pos = 0
    for i in range(n_symbols):
        while acc_bits < PEEK_BITS:
            acc = (acc << 8) | data[byte_pos]
            byte_pos += 1
            acc_bits += 8
        peek = (acc >> (acc_bits - PEEK_BITS)) & ((1 << PEEK_BITS) - 1)
        assert len_tab[peek], "invalid code in stream"
        out[i] = sym_tab[peek]
        acc_bits -= int(len_tab[peek])
        acc &= (1 << acc_bits) - 1
    return out


def reference_decompress(blob):
    """Bit-serial oracle for ``quality.decompress``: the reference
    Huffman loop plus the numpy-scalar order-1 replay."""
    reader = BitReader(blob.payload)
    n_scores, order1 = reader.read(40), bool(reader.read(1))
    if n_scores == 0:
        return np.empty(0, dtype=np.uint8)
    max_score, block_size = reader.read(8), reader.read(32)
    width = max(1, (max_score + quality.CONTEXT_BUCKETS)
                // quality.CONTEXT_BUCKETS)
    out = []
    while len(out) < n_scores:
        block_len = min(block_size, n_scores - len(out))
        parts = []
        for _ in range(quality.CONTEXT_BUCKETS if order1 else 1):
            table = HuffmanTable.deserialize(reader)
            count, nbits = reader.read(32), reader.read(40)
            reader.align_to_byte()
            payload = reader.read_bytes((nbits + 7) // 8)
            parts.append(list(reference_huffman_decode(table, payload,
                                                       count)))
        ctx = 0
        for _ in range(block_len):
            out.append(parts[ctx].pop(0))
            if order1:
                ctx = min(out[-1] // width, quality.CONTEXT_BUCKETS - 1)
    return np.array(out, dtype=np.uint8)


class TestRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(score_arrays, st.booleans(),
           st.sampled_from([1024, quality.DEFAULT_BLOCK]))
    def test_lossless(self, scores, order1, block_size):
        blob = quality.compress(scores, order1=order1,
                                block_size=block_size)
        back = quality.decompress(blob)
        assert back.dtype == np.uint8
        assert np.array_equal(back, scores)
        assert np.array_equal(back, reference_decompress(blob))

    def test_empty(self):
        blob = quality.compress(np.empty(0, dtype=np.uint8))
        assert quality.decompress(blob).size == 0

    def test_single_value_alphabet(self):
        scores = np.full(1000, 37, dtype=np.uint8)
        blob = quality.compress(scores)
        assert np.array_equal(quality.decompress(blob), scores)

    def test_multi_block(self):
        rng = np.random.default_rng(0)
        scores = rng.integers(0, 40, 5000).astype(np.uint8)
        blob = quality.compress(scores, block_size=1024)
        assert np.array_equal(quality.decompress(blob), scores)


#: Symbol counts on both sides of every anchor-stride (64) edge.
EDGE_COUNTS = [0, 1, 63, 64, 65, 4095, 4096, 4097]


def _distribution(kind, alphabet, rng):
    if kind == "uniform":
        return np.full(alphabet, 1.0 / alphabet)
    if kind == "single":
        p = np.zeros(alphabet)
        p[rng.integers(alphabet)] = 1.0
        return p
    p = 0.5 ** np.arange(1, alphabet + 1)     # skewed: geometric
    return p / p.sum()


class TestVectorizedDecoderMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(alphabet=st.integers(1, 64),
           kind=st.sampled_from(["skewed", "uniform", "single"]),
           count=st.sampled_from(EDGE_COUNTS) | st.integers(0, 600),
           seed=st.integers(0, 2**32 - 1))
    def test_substream(self, alphabet, kind, count, seed):
        rng = np.random.default_rng(seed)
        symbols = rng.choice(alphabet, size=count,
                             p=_distribution(kind, alphabet, rng))
        table = HuffmanTable.from_counts(
            np.bincount(symbols, minlength=alphabet))
        payload, nbits = table.encode(symbols)
        decoded = table.decode(payload, count, nbits)
        assert decoded.dtype == np.uint8
        assert np.array_equal(decoded, symbols)
        assert np.array_equal(
            decoded, reference_huffman_decode(table, payload, count))

    @pytest.mark.parametrize("count", EDGE_COUNTS[1:])
    def test_code_lengths_forced_to_the_limit(self, count):
        # Fibonacci-like counts make the optimal tree deeper than
        # PEEK_BITS, so from_counts takes its damped-rebuild path and
        # the longest codes are exactly PEEK_BITS bits.
        counts = np.array([1, 1] + [2 ** k for k in range(1, 29)])
        table = HuffmanTable.from_counts(counts)
        assert table.lengths.max() == PEEK_BITS
        rng = np.random.default_rng(count)
        # Rare symbols on purpose: long codes must occur in the stream.
        symbols = rng.integers(0, counts.size, count)
        payload, nbits = table.encode(symbols)
        assert np.array_equal(table.decode(payload, count, nbits),
                              symbols)
        assert np.array_equal(
            reference_huffman_decode(table, payload, count), symbols)

    @pytest.mark.parametrize("pad", [0, 3])
    def test_nbits_byte_aligned_and_not(self, pad):
        # Two symbols of 1 and 2..3 bits: pick a count whose bit total
        # is (is not) a multiple of 8.
        table = HuffmanTable(lengths=np.array([1, 2, 2]),
                             codes=canonical_codes(np.array([1, 2, 2])))
        symbols = np.array([0] * (8 - pad) + [1, 2] * 4)
        payload, nbits = table.encode(symbols)
        assert (nbits % 8 == 0) == (pad == 0)
        assert np.array_equal(
            table.decode(payload, symbols.size, nbits), symbols)

    def test_wide_alphabet_decodes_as_uint16(self):
        symbols = np.arange(300).repeat(2)
        table = HuffmanTable.from_counts(np.bincount(symbols))
        payload, nbits = table.encode(symbols)
        decoded = table.decode(payload, symbols.size, nbits)
        assert decoded.dtype == np.uint16
        assert np.array_equal(decoded, symbols)

    @pytest.mark.parametrize("order1", [False, True])
    def test_decompress_multi_block_stride_edges(self, order1):
        rng = np.random.default_rng(5)
        scores = rng.choice([2, 12, 23, 37], size=4097,
                            p=[.04, .09, .17, .7]).astype(np.uint8)
        blob = quality.compress(scores, order1=order1, block_size=1024)
        assert np.array_equal(quality.decompress(blob), scores)
        assert np.array_equal(reference_decompress(blob), scores)


class TestDamagedStreams:
    """Huffman-level damage is a located HuffmanError, never a bare
    IndexError or a silently short result."""

    @pytest.fixture
    def coded(self):
        table = HuffmanTable(lengths=np.array([1, 2, 3, 0]),
                             codes=canonical_codes(np.array([1, 2, 3, 0])))
        symbols = np.array([0, 1, 2, 0, 1, 2, 0, 0, 1] * 20)
        payload, nbits = table.encode(symbols)
        return table, symbols, payload, nbits

    def test_invalid_code_is_located(self, coded):
        table, symbols, _, _ = coded
        # 0b111 is the one unassigned prefix of this (incomplete) code.
        payload = bytes([0b0101_1011, 0b1000_0000])
        with pytest.raises(HuffmanError, match="invalid code at bit 6") \
                as info:
            table.decode(payload, 5, 10, stream="quality", origin=40)
        assert isinstance(info.value, SAGeError)
        assert info.value.stream == "quality"
        assert info.value.offset == 40

    def test_code_running_past_nbits(self, coded):
        table, symbols, payload, nbits = coded
        with pytest.raises(HuffmanError, match="stream ends before"):
            table.decode(payload, symbols.size + 40, nbits)

    def test_last_symbol_must_end_at_nbits(self, coded):
        table, symbols, payload, nbits = coded
        with pytest.raises(HuffmanError, match="last symbol ends"):
            table.decode(payload, symbols.size - 1, nbits)

    def test_counts_are_checked_before_anything_is_sized(self, coded):
        table, _, payload, _ = coded
        with pytest.raises(HuffmanError, match="cannot fill"):
            table.decode(payload, 2**32 - 1, 2**31)     # count > nbits
        with pytest.raises(HuffmanError, match="cannot fill"):
            table.decode(payload, 10, 2**40 - 1)        # nbits > payload
        with pytest.raises(HuffmanError, match="left over"):
            table.decode(payload, 0, 8)


class TestCompressionBehaviour:
    def test_skewed_scores_compress(self):
        rng = np.random.default_rng(0)
        scores = rng.choice([37, 23, 12, 2], size=20_000,
                            p=[0.7, 0.17, 0.09, 0.04]).astype(np.uint8)
        blob = quality.compress(scores, order1=False)
        ratio = scores.size / blob.byte_size
        assert ratio > 3.0

    def test_order1_helps_correlated_streams(self):
        rng = np.random.default_rng(1)
        # Random-walk qualities (nanopore-like autocorrelation).
        steps = rng.integers(-1, 2, 30_000)
        scores = np.clip(20 + np.cumsum(steps) % 8, 0, 59).astype(np.uint8)
        blob0 = quality.compress(scores, order1=False)
        blob1 = quality.compress(scores, order1=True)
        assert blob1.byte_size <= blob0.byte_size * 1.02

    def test_uniform_scores_near_incompressible(self):
        rng = np.random.default_rng(2)
        scores = rng.integers(0, 60, 20_000).astype(np.uint8)
        blob = quality.compress(scores, order1=False)
        ratio = scores.size / blob.byte_size
        assert ratio < 1.6

    def test_blob_records_count(self):
        scores = np.array([1, 2, 3], dtype=np.uint8)
        assert quality.compress(scores).n_scores == 3
