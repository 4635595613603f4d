"""Failure-injection tests: corrupted archives must fail loudly.

A lossless codec's decoder must never silently emit wrong data; these
tests truncate, zero, and mangle streams and check for clean errors (or
a detected inconsistency) instead of garbage output.
"""

import numpy as np
import pytest

from repro.core import SAGeCompressor, SAGeConfig, SAGeDecompressor
from repro.core.bitio import BitIOError, BitWriter
from repro.core.container import SAGeArchive
from repro.core.decompressor import DecompressionError
from repro.core.errors import BlockDecodeError


@pytest.fixture(scope="module")
def archive(rs3_small):
    return SAGeCompressor(rs3_small.reference,
                          SAGeConfig(with_quality=False)) \
        .compress(rs3_small.read_set)


def _mutate(archive, stream, new_pair):
    clone = SAGeArchive.from_bytes(archive.to_bytes())
    if stream == "consensus":
        clone.consensus = new_pair
    else:
        clone.block(0).streams[stream] = new_pair
    return clone


class TestTruncation:
    @pytest.mark.parametrize("stream", ["mmpa", "mmpga", "mbta", "mpa"])
    def test_truncated_stream_raises(self, archive, stream):
        payload, bits = archive.block(0).streams[stream]
        clone = _mutate(archive, stream, (payload[:len(payload) // 2],
                                          bits // 2))
        with pytest.raises((BitIOError, DecompressionError, ValueError,
                            IndexError)):
            SAGeDecompressor(clone).decompress()

    def test_truncated_consensus_raises(self, archive):
        payload, bits = archive.consensus
        clone = _mutate(archive, "consensus",
                        (payload[:len(payload) // 2], bits // 2))
        with pytest.raises(Exception):
            SAGeDecompressor(clone).decompress()

    def test_empty_mbta_raises(self, archive):
        clone = _mutate(archive, "mbta", (b"", 0))
        with pytest.raises((BitIOError, DecompressionError, ValueError)):
            SAGeDecompressor(clone).decompress()


class TestContainerValidation:
    def test_truncated_blob(self, archive):
        blob = archive.to_bytes()
        with pytest.raises(Exception):
            SAGeArchive.from_bytes(blob[:len(blob) // 3])

    def test_reader_count_mismatch_detected(self, archive):
        # Claim one extra mapped read: the decoder must run out of
        # stream data rather than fabricate a read.
        clone = SAGeArchive.from_bytes(archive.to_bytes())
        clone.block(0).n_mapped += 1
        with pytest.raises((BitIOError, DecompressionError, ValueError,
                            IndexError)):
            SAGeDecompressor(clone).decompress()

    def test_quality_read_count_mismatch(self, rs3_small):
        full = SAGeCompressor(rs3_small.reference, SAGeConfig()) \
            .compress(rs3_small.read_set)
        clone = SAGeArchive.from_bytes(full.to_bytes())
        # Drop the last unmapped/mapped read but keep the quality blob:
        # score counts will not line up.
        blk = clone.block(0)
        if blk.n_unmapped > 0:
            blk.n_unmapped -= 1
        else:
            blk.n_mapped -= 1
        with pytest.raises(Exception):
            SAGeDecompressor(clone).decompress()


class TestStreamContentCorruption:
    def test_zeroed_guide_stream(self, archive):
        payload, bits = archive.block(0).streams["mmpga"]
        clone = _mutate(archive, "mmpga", (bytes(len(payload)), bits))
        decoder = SAGeDecompressor(clone)
        try:
            decoded = decoder.decompress()
        except Exception:
            return  # loud failure is acceptable
        # If it decodes structurally, the content must differ from the
        # original (corruption must not be silently absorbed).
        original = SAGeDecompressor(archive).decompress()
        same = all(np.array_equal(a.codes, b.codes)
                   for a, b in zip(decoded, original))
        assert not same


class TestOrderStream:
    """The stored permutation is read in one batched field extraction
    and must still be rejected unless it is a permutation."""

    @pytest.fixture(scope="class")
    def ordered(self, rs3_small):
        return SAGeCompressor(
            rs3_small.reference,
            SAGeConfig(with_quality=False, preserve_order=True)) \
            .compress(rs3_small.read_set.subset(range(37)))

    @staticmethod
    def _with_order(archive, entries):
        width = max(1, (len(entries) - 1).bit_length())
        writer = BitWriter()
        writer.write_fields(entries, [width] * len(entries))
        return _mutate(archive, "order",
                       (writer.getvalue(), writer.bit_length))

    def test_intact_order_restores_input(self, ordered, rs3_small):
        decoded = SAGeDecompressor(ordered).decompress()
        assert [r.text for r in decoded] \
            == [r.text for r in rs3_small.read_set.reads[:37]]

    @pytest.mark.parametrize("damage", ["duplicate", "out_of_range"])
    def test_not_a_permutation(self, ordered, damage):
        n = ordered.block(0).n_reads
        entries = list(range(n))[::-1]
        # 37 reads are stored in 6-bit fields, so 63 fits the field and
        # is out of range; a duplicate leaves another slot unfilled.
        entries[5] = entries[6] if damage == "duplicate" else 63
        with pytest.raises(BlockDecodeError,
                           match="order stream is not a permutation") as err:
            SAGeDecompressor(self._with_order(ordered, entries)).decompress()
        assert isinstance(err.value.__cause__, DecompressionError)

    def test_truncated_order_stream(self, ordered):
        payload, bits = ordered.block(0).streams["order"]
        clone = _mutate(ordered, "order", (payload[:2], 16))
        with pytest.raises(BlockDecodeError, match="order"):
            SAGeDecompressor(clone).decompress()
