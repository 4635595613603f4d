"""Unit tests for repro.core.quality."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SAGeArchive, huffman, quality
from repro.core.bitio import BitReader, BitWriter
from repro.core.errors import CorruptArchiveError, SAGeError
from repro.core.huffman import (MAX_CODE_LENGTH, HuffmanError, HuffmanTable,
                                canonical_codes)
from repro.genomics import datasets
from repro.genomics.simulator import QualityModel

from tests.conftest import GOLDEN, golden_blob

score_arrays = st.lists(st.integers(min_value=0, max_value=60),
                        min_size=0, max_size=2000).map(
    lambda xs: np.array(xs, dtype=np.uint8))


#: Bits the per-symbol oracle looks at to decode one symbol.
PEEK_BITS = MAX_CODE_LENGTH


def decode_table(table):
    """(symbol, length) lookup tables indexed by a PEEK_BITS-bit peek:
    the per-symbol oracle's table."""
    sym_tab = np.zeros(1 << PEEK_BITS, dtype=np.int64)
    len_tab = np.zeros(1 << PEEK_BITS, dtype=np.int64)
    for sym in range(table.alphabet_size):
        length = int(table.lengths[sym])
        if length == 0:
            continue
        prefix = int(table.codes[sym]) << (PEEK_BITS - length)
        span = 1 << (PEEK_BITS - length)
        sym_tab[prefix:prefix + span] = sym
        len_tab[prefix:prefix + span] = length
    return sym_tab, len_tab


def reference_huffman_decode(table, payload, n_symbols, nbits, *,
                             stream=None, origin=0):
    """The per-symbol decode loop: one PEEK_BITS-bit peek per symbol
    over the first ``(nbits + 7) // 8`` payload bytes, zero-extended.

    Raises the decoder's located :class:`HuffmanError` for the first
    fault: an invalid code, a stream that ends (or a code that runs past
    ``nbits``) before ``n_symbols`` symbols do, or a last symbol that
    does not end at ``nbits``.
    """
    def damaged(message, bit):
        return HuffmanError(f"{message} at bit {bit}", stream=stream,
                            offset=origin + bit // 8)

    if n_symbols > nbits or nbits > 8 * len(payload):
        raise damaged(f"{n_symbols} symbols cannot fill {nbits} bits of a "
                      f"{len(payload)}-byte payload", 0)
    if n_symbols == 0 and nbits:
        raise damaged(f"{nbits} bits left over after 0 symbols", 0)
    sym_tab, len_tab = decode_table(table)
    data = payload[:(nbits + 7) // 8] + bytes(2)
    out = np.empty(n_symbols, dtype=np.int64)
    acc = acc_bits = byte_pos = pos = start = 0
    for i in range(n_symbols):
        if pos == nbits:
            raise damaged(f"stream ends before its {n_symbols} symbols do",
                          start)
        while acc_bits < PEEK_BITS:
            acc = (acc << 8) | data[byte_pos]
            byte_pos += 1
            acc_bits += 8
        peek = (acc >> (acc_bits - PEEK_BITS)) & ((1 << PEEK_BITS) - 1)
        length = int(len_tab[peek])
        if not length:
            raise damaged("invalid code", pos)
        if pos + length > nbits:
            if i == n_symbols - 1:
                raise damaged(f"last symbol ends at bit {pos + length} of "
                              f"a {nbits}-bit stream", pos)
            raise damaged(f"stream ends before its {n_symbols} symbols do",
                          pos)
        out[i] = sym_tab[peek]
        start, pos = pos, pos + length
        acc_bits -= length
        acc &= (1 << acc_bits) - 1
    if pos != nbits:
        raise damaged(f"last symbol ends at bit {pos} of a {nbits}-bit "
                      f"stream", start)
    return out


def reference_decompress(blob):
    """Bit-serial oracle for ``quality.decompress``: the reference
    Huffman loop plus a scalar per-score replay of the order-1 lanes.
    A walk-layout (v3/v4) blob has no lane field and is one lane per
    block, so the one replay pins both layouts."""
    reader = BitReader(blob.payload)
    n_scores, order1 = reader.read(40), bool(reader.read(1))
    if n_scores == 0:
        return np.empty(0, dtype=np.uint8)
    max_score, block_size = reader.read(8), reader.read(32)
    lane = reader.read(32) if blob.laned else block_size
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
            parts.append(iter(reference_huffman_decode(table, payload,
                                                       count, nbits)))
        block = [None] * block_len
        # Column-major: every lane's position 0, then every position 1...
        for pos in range(min(lane, block_len) if order1 else 0):
            for at in range(pos, block_len, lane):
                ctx = 0 if at % lane == 0 else min(
                    block[at - 1] // width, quality.CONTEXT_BUCKETS - 1)
                block[at] = next(parts[ctx])
        out += block if order1 else list(parts[0])
        assert all(next(part, None) is None for part in parts)
    return np.array(out, dtype=np.uint8)


def with_lane(blob, lane):
    """``blob`` with its v5 lane field (bits 81..112) set to ``lane``."""
    bits = np.unpackbits(np.frombuffer(blob.payload, dtype=np.uint8))
    bits[81:113] = np.unpackbits(
        np.array([lane], dtype=">u4").view(np.uint8))
    return quality.QualityBlob(np.packbits(bits).tobytes(), blob.n_scores)


def golden_quality_blobs():
    """Every quality blob of the committed v3/v4 archives (walk
    layout)."""
    blobs = []
    for name in sorted(GOLDEN["blobs"]):
        archive = SAGeArchive.from_bytes(golden_blob(name))
        blobs += [archive.block(i).quality for i in range(archive.n_blocks)
                  if archive.block(i).quality is not None]
    return blobs


class TestRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(score_arrays, st.booleans(),
           st.sampled_from([1024, quality.DEFAULT_BLOCK]))
    def test_lossless(self, scores, order1, block_size):
        blob = quality._write(scores, order1, block_size)
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

    @settings(max_examples=40, deadline=None)
    @given(size=st.sampled_from([1, 63, 64, 65, 1023, 1024, 1025, 4097]),
           order1=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_lane_and_block_edges(self, size, order1, seed):
        scores = np.random.default_rng(seed).choice(
            [2, 12, 23, 37], size=size).astype(np.uint8)
        blob = quality._write(scores, order1, block_size=1024)
        assert np.array_equal(quality.decompress(blob), scores)
        assert np.array_equal(reference_decompress(blob), scores)


class TestLayouts:
    """v5 blobs decode lane by lane; the per-score walk reads only the
    walk layout of v3/v4 archives."""

    def test_v5_decode_never_walks(self, monkeypatch, correlated_scores):
        def walk(*args):
            raise AssertionError("the walk decoded a v5 blob")

        monkeypatch.setattr(quality, "_reassemble_order1", walk)
        for size in (1, 64, 65, 4097, correlated_scores.size):
            scores = correlated_scores[:size]
            blob = quality._write(scores, True, block_size=1024)
            assert np.array_equal(quality.decompress(blob), scores)

    def test_walk_layout_is_the_one_lane_case(self, monkeypatch):
        def lanes(*args):
            raise AssertionError("a walk-layout blob decoded as lanes")

        monkeypatch.setattr(quality, "_unlane", lanes)
        blobs = golden_quality_blobs()
        assert blobs and not any(blob.laned for blob in blobs)
        for blob in blobs:
            assert np.array_equal(quality.decompress(blob),
                                  reference_decompress(blob))

    def test_lane_field_is_written_and_read(self, monkeypatch,
                                            correlated_scores):
        scores = correlated_scores[:5000]
        blob = quality._write(scores, True, block_size=1024)
        assert with_lane(blob, quality.LANE) == blob
        # A reader takes the lane length from the bytes.
        monkeypatch.setattr(quality, "LANE", 100)
        other = quality._write(scores, True, block_size=1024)
        assert other != blob
        monkeypatch.undo()
        assert np.array_equal(quality.decompress(other), scores)
        assert np.array_equal(reference_decompress(other), scores)

    @pytest.mark.parametrize("lane", [0, 1025, 2**32 - 1])
    def test_damaged_lane_field(self, lane, correlated_scores):
        blob = quality._write(correlated_scores[:5000], True,
                              block_size=1024)
        with pytest.raises(CorruptArchiveError, match="lanes of") as info:
            quality.decompress(with_lane(blob, lane))
        assert info.value.stream == "quality"
        assert info.value.offset is not None

    @pytest.mark.parametrize("claimed", [999, 1001, 10**9])
    def test_the_two_score_counts_must_agree(self, claimed):
        blob = quality.compress(np.arange(1000) % 40)
        with pytest.raises(CorruptArchiveError, match="container says") \
                as info:
            quality.decompress(quality.QualityBlob(blob.payload, claimed))
        assert info.value.stream == "quality"

    def test_substream_running_out_at_a_lane_step(self):
        # Moving a score from one sub-stream to another keeps the block
        # total, so only the lane step can see that one runs out.
        scores = np.tile([2, 37], 200).astype(np.uint8)
        parts = quality._lane_split(scores, quality.LANE, 37)
        assert np.array_equal(
            quality._unlane(parts, scores.size, quality.LANE, 37), scores)
        starved = [parts[0][:-1], parts[1], parts[2],
                   np.append(parts[3], parts[0][-1])]
        with pytest.raises(CorruptArchiveError, match="ran out") as info:
            quality._unlane(starved, scores.size, quality.LANE, 37)
        assert info.value.stream == "quality"


class TestModelChoice:
    """``compress`` writes whichever allowed model is smaller, priced
    exactly from histograms; order-0 wins a tie."""

    @settings(max_examples=60, deadline=None)
    @given(score_arrays, st.sampled_from([7, 64, 1024,
                                          quality.DEFAULT_BLOCK]))
    def test_writes_the_smaller_model(self, scores, block_size):
        written = [quality._write(scores, order1, block_size)
                   for order1 in (False, True)]
        blob = quality.compress(scores, block_size=block_size)
        sizes = [w.byte_size for w in written]
        assert blob.byte_size == min(sizes)
        assert blob == written[sizes[1] < sizes[0]]
        assert np.array_equal(quality.decompress(blob), scores)
        if scores.size:
            # The price is the written size, for both models.
            max_score = int(scores.max())
            for order1, w in zip((False, True), written):
                counts = quality._counts(scores, order1, block_size,
                                         max_score)
                assert quality._nbytes(
                    counts, quality._code_lengths(counts), max_score) \
                    == w.byte_size

    def test_a_tie_writes_order0(self):
        def runs(seed):
            rng = np.random.default_rng(seed)
            return np.repeat(rng.choice([2, 12, 23, 37], size=100),
                             rng.integers(1, 20, size=100)).astype(np.uint8)

        def tied(scores):
            return quality._write(scores, False).byte_size \
                == quality._write(scores, True).byte_size

        # Runs of scores make order-1 about as small as order-0; the
        # first seed whose two blobs are the same size is the tie.
        scores = next(runs(seed) for seed in range(5000) if tied(runs(seed)))
        assert quality.compress(scores).model == "order0"
        empty = np.empty(0, dtype=np.uint8)
        assert tied(empty) and quality.compress(empty).model == "order0"

    @settings(max_examples=30, deadline=None)
    @given(score_arrays)
    def test_order0_forced(self, scores):
        blob = quality.compress(scores, order1=False)
        assert blob.model == "order0"
        assert blob == quality._write(scores, False)

    def test_no_model_without_a_flag(self):
        # A damaged section can be shorter than the header's 41 bits.
        assert quality.QualityBlob(b"\0" * 5, 0).model is None

    def test_correlated_scores_keep_order1(self, correlated_scores):
        assert quality.compress(correlated_scores).model == "order1"

    def test_simulated_short_read_block_picks_order0(self):
        read_set = datasets.generate("RS2", base_genome=27_500,
                                     seed=71).read_set
        scores = read_set.quality[:read_set.offsets[1024]]
        assert quality.compress(scores).model == "order0"

    def test_long_read_scores_keep_order1(self, rs4_small):
        assert quality.compress(rs4_small.read_set.quality).model \
            == "order1"


#: Symbol counts from none to a few chunks of payload, on both sides of
#: powers of two.
EDGE_COUNTS = [0, 1, 63, 64, 65, 4095, 4096, 4097]


#: Symbol counts whose optimal code is deeper than MAX_CODE_LENGTH.
FIBONACCI_COUNTS = np.array([1, 1] + [2 ** k for k in range(1, 29)])


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
            decoded, reference_huffman_decode(table, payload, count, nbits))

    @pytest.mark.parametrize("count", EDGE_COUNTS[1:])
    def test_code_lengths_forced_to_the_limit(self, count):
        # Fibonacci-like counts make the optimal tree deeper than
        # MAX_CODE_LENGTH, so from_counts takes its damped-rebuild path
        # and the longest codes are exactly MAX_CODE_LENGTH bits.
        table = HuffmanTable.from_counts(FIBONACCI_COUNTS)
        assert table.lengths.max() == MAX_CODE_LENGTH
        rng = np.random.default_rng(count)
        # Rare symbols on purpose: long codes must occur in the stream.
        symbols = rng.integers(0, FIBONACCI_COUNTS.size, count)
        payload, nbits = table.encode(symbols)
        assert np.array_equal(table.decode(payload, count, nbits),
                              symbols)
        assert np.array_equal(
            reference_huffman_decode(table, payload, count, nbits), symbols)

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
        blob = quality._write(scores, order1, block_size=1024)
        assert np.array_equal(quality.decompress(blob), scores)
        assert np.array_equal(reference_decompress(blob), scores)


def _staircase(longest):
    """Complete code lengths 1, 2, ..., longest - 1, longest, longest."""
    return np.array(list(range(1, longest)) + [longest, longest])


def _with_residue(table, symbols, residue):
    """``symbols`` plus copies of the symbol with the shortest code
    until the stream is ``residue`` bits past a whole byte; that code's
    length must be odd, so that some 0..7 copies do it."""
    short = int(np.argmin(np.where(table.lengths > 0, table.lengths, 99)))
    _, nbits = table.encode(symbols)
    extra = next(k for k in range(8)
                 if (nbits + k * int(table.lengths[short])) % 8 == residue)
    return np.append(symbols, [short] * extra)


class TestByteAutomaton:
    """The chunked byte automaton against the per-symbol oracle on what
    it adds: many chunk boundaries, every candidate entry depth, the
    tail bits, wide and one-symbol alphabets, and shared tables."""

    N = 20_000

    def check(self, table, symbols):
        payload, nbits = table.encode(symbols)
        decoded = table.decode(payload, symbols.size, nbits)
        assert np.array_equal(decoded, symbols)
        assert np.array_equal(
            decoded,
            reference_huffman_decode(table, payload, symbols.size, nbits))
        return decoded

    @pytest.mark.parametrize("longest", list(range(1, 16)) + ["fibonacci"])
    def test_every_longest_code_length(self, longest):
        # A chunk has one candidate entry per depth below the longest
        # code, so 1..15 lanes are all stepped.
        if longest == "fibonacci":
            table = HuffmanTable.from_counts(FIBONACCI_COUNTS)
        else:
            table = HuffmanTable.from_lengths(_staircase(longest))
        assert table.lengths.max() == (
            MAX_CODE_LENGTH if longest == "fibonacci" else longest)
        rng = np.random.default_rng(table.alphabet_size)
        # Uniform draws make the longest codes common.
        self.check(table, rng.integers(0, table.alphabet_size, self.N))

    @pytest.mark.parametrize("length", [1, 2, 7, 8, 9, 15])
    def test_one_symbol_codes(self, length):
        # An incomplete code: every other prefix continues no code.
        lengths = np.zeros(5, dtype=np.int64)
        lengths[3] = length
        table = HuffmanTable.from_lengths(lengths)
        self.check(table, np.full(self.N, 3))
        payload, nbits = table.encode(np.full(10, 3))
        damaged = bytearray(payload)
        damaged[-1] ^= 0x80
        with pytest.raises(HuffmanError, match="invalid code"):
            table.decode(bytes(damaged), 10, nbits)

    @pytest.mark.parametrize("alphabet", [257, 300, 1000])
    def test_uint16_alphabets(self, alphabet):
        rng = np.random.default_rng(alphabet)
        weights = 0.99 ** np.arange(alphabet)
        symbols = rng.choice(alphabet, size=self.N,
                             p=weights / weights.sum())
        table = HuffmanTable.from_counts(
            np.bincount(symbols, minlength=alphabet))
        assert self.check(table, symbols).dtype == np.uint16

    @pytest.mark.parametrize("residue", range(8))
    # Rows of 8, 4 and 2 symbol slots.
    @pytest.mark.parametrize("lengths", [[1, 2, 3, 3], [3] * 8, [5] * 20])
    def test_every_tail_length(self, lengths, residue):
        table = HuffmanTable.from_lengths(np.array(lengths))
        rng = np.random.default_rng(residue)
        symbols = _with_residue(
            table, rng.integers(0, len(lengths), self.N), residue)
        payload, nbits = table.encode(symbols)
        assert nbits % 8 == residue
        self.check(table, symbols)
        # One symbol too few or too many puts the fault in the tail, also
        # in streams with no whole byte.
        for part in [symbols] + [symbols[-k:] for k in range(1, 9)]:
            payload, nbits = table.encode(part)
            for n_symbols in (part.size - 1, part.size + 1):
                with pytest.raises(HuffmanError) as expected:
                    reference_huffman_decode(table, payload, n_symbols,
                                             nbits)
                with pytest.raises(HuffmanError) as info:
                    table.decode(payload, n_symbols, nbits)
                assert str(info.value) == str(expected.value)

    @pytest.mark.parametrize("order1", [False, True])
    @pytest.mark.parametrize("size", [12_800, 102_400])
    @pytest.mark.parametrize("model", ["illumina_binned", "illumina_legacy",
                                       "nanopore"])
    def test_simulator_models(self, model, size, order1):
        scores = getattr(QualityModel, model)().sample(
            size, np.zeros(size, dtype=bool), np.random.default_rng(size))
        blob = quality._write(scores, order1, quality.DEFAULT_BLOCK)
        assert blob.model == ("order1" if order1 else "order0")
        assert np.array_equal(quality.decompress(blob), scores)
        assert np.array_equal(reference_decompress(blob), scores)

    def test_threads_share_the_tables(self):
        # As sage serve's decode pool does: threads decode streams coded
        # with different tables at once, building and sharing them.
        rng = np.random.default_rng(8)
        jobs = []
        for k in range(16):
            model = (QualityModel.illumina_binned() if k % 2 else
                     QualityModel.illumina_legacy())
            symbols = rng.choice(model.levels, size=5_000, p=model.weights)
            table = HuffmanTable.from_counts(np.bincount(symbols,
                                                         minlength=42))
            payload, nbits = table.encode(symbols)
            jobs.append((table, payload, symbols.size, nbits,
                         reference_huffman_decode(table, payload,
                                                  symbols.size, nbits)))
        huffman._automaton.cache_clear()
        start = threading.Barrier(8)

        def decode_all(offset):
            start.wait()
            return [job[0].decode(*job[1:4]) for job in
                    jobs[offset:] + jobs[:offset]]

        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(decode_all, range(8)))
        for offset, decoded in enumerate(results):
            for job, out in zip(jobs[offset:] + jobs[:offset], decoded):
                assert np.array_equal(out, job[4])
        auto = huffman._automaton(
            np.asarray(jobs[0][0].lengths, dtype=np.int64).tobytes())
        assert not any(field.flags.writeable for field in auto
                       if isinstance(field, np.ndarray))


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

    def test_over_subscribed_table_is_rejected(self):
        # Three 1-bit codes cannot all exist: canonical code 2 does not
        # fit in one bit.  Only damage makes such a table, built
        # directly or read off the wire.
        direct = HuffmanTable.from_lengths(np.array([1, 1, 1]))
        writer = BitWriter()
        direct.serialize(writer)
        wire = HuffmanTable.deserialize(BitReader(writer.getvalue()))
        for table in (direct, wire):
            with pytest.raises(HuffmanError, match="over-subscribed") \
                    as info:
                table.decode(bytes([0b0101_0101]), 8, 8, stream="quality",
                             origin=12)
            assert info.value.stream == "quality"
            assert info.value.offset == 12


class TestDamageMatchesReference:
    """A damaged stream decodes to the oracle's symbols or raises the
    oracle's message at the oracle's bit."""

    @settings(max_examples=150, deadline=None)
    @given(alphabet=st.integers(1, 48),
           kind=st.sampled_from(["skewed", "uniform", "single"]),
           count=st.integers(1, 40) | st.integers(1, 2_500),
           seed=st.integers(0, 2**32 - 1),
           flips=st.lists(st.integers(0, 2**31), max_size=3),
           cut=st.integers(0, 20) | st.just(0),
           delta=st.integers(-4, 4) | st.just(0))
    def test_damage(self, alphabet, kind, count, seed, flips, cut, delta):
        rng = np.random.default_rng(seed)
        symbols = rng.choice(alphabet, size=count,
                             p=_distribution(kind, alphabet, rng))
        table = HuffmanTable.from_counts(
            np.bincount(symbols, minlength=alphabet))
        payload, nbits = table.encode(symbols)
        payload = bytearray(payload)
        for flip in flips:
            bit = flip % (8 * len(payload))
            payload[bit >> 3] ^= 0x80 >> (bit & 7)
        args = (bytes(payload), max(count + delta, 0), max(nbits - cut, 0))
        try:
            expected = reference_huffman_decode(
                table, *args, stream="quality", origin=40)
        except HuffmanError as exc:
            with pytest.raises(HuffmanError) as info:
                table.decode(*args, stream="quality", origin=40)
            assert str(info.value) == str(exc)
            assert info.value.offset == exc.offset
        else:
            assert np.array_equal(
                table.decode(*args, stream="quality", origin=40), expected)


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

    def test_context_model_pays_on_correlated_scores(self,
                                                     correlated_scores):
        order0 = quality.compress(correlated_scores, order1=False)
        order1 = quality.compress(correlated_scores)
        assert order1.byte_size <= 0.8 * order0.byte_size

    def test_lanes_cost_little_against_one_lane(self, monkeypatch,
                                                correlated_scores):
        lanes = quality._write(correlated_scores, True)
        monkeypatch.setattr(quality, "LANE", correlated_scores.size)
        one_lane = quality._write(correlated_scores, True)
        assert one_lane.byte_size < lanes.byte_size \
            <= 1.02 * one_lane.byte_size

    def test_blob_records_count(self):
        scores = np.array([1, 2, 3], dtype=np.uint8)
        assert quality.compress(scores).n_scores == 3
