"""Tests for codec extensions: order preservation, headers, tuned indel
lengths, and the thread-scaling model."""

import numpy as np
import pytest

from repro.core import (OptLevel, SAGeCompressor, SAGeConfig,
                        SAGeDecompressor)
from repro.core.container import SAGeArchive
from repro.core.headers import compress_headers, decompress_headers
from repro.pipeline.configs import NSPR, PIGZ, SAGESW


def roundtrip(read_set, reference, **kwargs):
    archive = SAGeCompressor(reference, SAGeConfig(**kwargs)) \
        .compress(read_set)
    blob = archive.to_bytes()
    return archive, SAGeDecompressor(
        SAGeArchive.from_bytes(blob)).decompress()


class TestPreserveOrder:
    def test_original_order_restored(self, rs3_small):
        _, decoded = roundtrip(rs3_small.read_set, rs3_small.reference,
                               preserve_order=True)
        for original, restored in zip(rs3_small.read_set, decoded):
            assert np.array_equal(original.codes, restored.codes)
            assert np.array_equal(original.quality, restored.quality)

    def test_without_flag_order_changes(self, rs3_small):
        _, decoded = roundtrip(rs3_small.read_set, rs3_small.reference)
        same_order = all(np.array_equal(a.codes, b.codes)
                         for a, b in zip(rs3_small.read_set, decoded))
        assert not same_order  # reordering by matching position

    def test_order_stream_cost_is_small(self, rs3_small):
        plain, _ = roundtrip(rs3_small.read_set, rs3_small.reference,
                             with_quality=False)
        ordered, _ = roundtrip(rs3_small.read_set, rs3_small.reference,
                               with_quality=False, preserve_order=True)
        extra = ordered.byte_size() - plain.byte_size()
        n = len(rs3_small.read_set)
        # ~log2(n) bits per read.
        assert 0 < extra <= (n * 3)

    def test_long_reads_with_order(self, rs4_small):
        _, decoded = roundtrip(rs4_small.read_set, rs4_small.reference,
                               preserve_order=True, with_quality=False)
        for original, restored in zip(rs4_small.read_set, decoded):
            assert np.array_equal(original.codes, restored.codes)


class TestHeaderStream:
    def test_headers_roundtrip_codec(self):
        headers = [f"instr1.run4.tile{i // 10}.read{i}"
                   for i in range(250)]
        payload = compress_headers(headers)
        assert decompress_headers(payload) == headers
        # Front coding + DEFLATE beats raw text on templated headers.
        raw = sum(len(h) for h in headers)
        assert len(payload) < raw

    def test_headers_through_archive(self, rs3_small):
        _, decoded = roundtrip(rs3_small.read_set, rs3_small.reference,
                               with_headers=True, preserve_order=True)
        for original, restored in zip(rs3_small.read_set, decoded):
            assert original.header == restored.header

    def test_empty_and_odd_headers(self):
        headers = ["", "a", "", "abba", "abb"]
        assert decompress_headers(compress_headers(headers)) == headers

    def test_invalid_characters_rejected(self):
        # A newline is the one thing front coding cannot store; the
        # error names the header.
        from repro.core.errors import CompressionError
        with pytest.raises(CompressionError, match="bad"):
            compress_headers(["bad\nheader"])

    def test_pipe_in_header_roundtrips(self):
        # The decoder splits each line at the first '|' only and the
        # prefix length is digits, so NCBI-style names are storable.
        headers = ["gi|123|ref", "gi|124|ref|x", "", "|", "a|", "3|b"]
        assert decompress_headers(compress_headers(headers)) == headers

    def test_corrupt_payload_raises_taxonomy_error(self):
        # Malformed header text must surface as CorruptArchiveError
        # (stream context included), not a bare int()/decode error.
        from repro.core import deflate
        from repro.core.errors import CorruptArchiveError
        for text in ("not-a-count\nrest", "2\nnope|x\n0|y"):
            blob = deflate.compress(text.encode("utf-8"))
            with pytest.raises(CorruptArchiveError) as excinfo:
                decompress_headers(blob.payload)
            assert excinfo.value.context.get("stream") == "headers"

    def test_undecodable_payload_raises_taxonomy_error(self):
        from repro.core.errors import CorruptArchiveError
        with pytest.raises(CorruptArchiveError):
            decompress_headers(b"\xff\xfe garbage")


class TestTunedIndelLengths:
    def test_lossless_on_long_reads(self, rs4_small):
        archive, decoded = roundtrip(
            rs4_small.read_set, rs4_small.reference,
            tuned_indel_lengths=True, with_quality=False)
        assert "indel" in archive.block(0).tables
        got = sorted(r.codes.tobytes() for r in decoded)
        want = sorted(r.codes.tobytes() for r in rs4_small.read_set)
        assert got == want

    def test_competitive_with_fixed_scheme(self, rs4_small):
        fixed, _ = roundtrip(rs4_small.read_set, rs4_small.reference,
                             with_quality=False)
        tuned, _ = roundtrip(rs4_small.read_set, rs4_small.reference,
                             with_quality=False,
                             tuned_indel_lengths=True)
        # The paper's fixed 1+8 scheme is near-optimal for 1-skewed
        # blocks; Algorithm-1 tuning must be at least comparable.
        assert tuned.breakdown.get("mismatch_pos") \
            <= 1.05 * fixed.breakdown.get("mismatch_pos")

    def test_not_used_below_o2(self, rs4_small):
        archive, _ = roundtrip(rs4_small.read_set, rs4_small.reference,
                               level=OptLevel.O1, with_quality=False,
                               tuned_indel_lengths=True)
        assert "indel" not in archive.block(0).tables


class TestThreadScaling:
    def test_spring_saturates_at_32(self):
        assert NSPR.software_rate_at(32) == NSPR.software_rate_at(64)
        assert NSPR.software_rate_at(16) \
            == pytest.approx(NSPR.software_rate_at(32) / 2)

    def test_pigz_serial_decode(self):
        assert PIGZ.software_rate_at(2) == PIGZ.software_rate_at(128)
        assert PIGZ.software_rate_at(1) \
            == pytest.approx(PIGZ.software_rate_at(2) / 2)

    def test_sagesw_scales_further(self):
        assert SAGESW.software_rate_at(64) \
            > SAGESW.software_rate_at(32) * 1.9

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            NSPR.software_rate_at(0)
