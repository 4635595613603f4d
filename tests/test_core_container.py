"""Unit tests for repro.core.container serialization."""

import pytest

from repro.api import SAGeDataset
from repro.core import (SAGeCompressor, SAGeConfig, SAGeDecompressor,
                        container)
from repro.core.container import (VERSION, ContainerError,
                                  CorruptArchiveError, SAGeArchive,
                                  SAGeBlock, TruncatedArchiveError)

from tests.conftest import (SIZE_CONFIGS, V3_BLOBS, golden_blob,
                            read_multiset, sections_nbytes)


@pytest.fixture(scope="module")
def archive(rs3_small):
    config = SAGeConfig()
    return SAGeCompressor(rs3_small.reference, config) \
        .compress(rs3_small.read_set)


class TestSerialization:
    def test_roundtrip_fields(self, archive):
        back = SAGeArchive.from_bytes(archive.to_bytes())
        assert back.level == archive.level
        assert back.n_mapped == archive.n_mapped
        assert back.n_unmapped == archive.n_unmapped
        assert back.fixed_length == archive.fixed_length
        assert back.fixed_read_length == archive.fixed_read_length
        assert back.consensus_length == archive.consensus_length
        assert back.w_rlen == archive.w_rlen
        assert back.w_cons == archive.w_cons

    def test_roundtrip_streams(self, archive):
        back = SAGeArchive.from_bytes(archive.to_bytes())
        assert back.consensus == archive.consensus
        assert back.block(0).streams == archive.block(0).streams

    def test_roundtrip_tables(self, archive):
        back = SAGeArchive.from_bytes(archive.to_bytes()).block(0)
        tables = archive.block(0).tables
        assert set(back.tables) == set(tables)
        for key, table in tables.items():
            assert back.tables[key].widths == table.widths

    def test_roundtrip_quality(self, archive):
        back = SAGeArchive.from_bytes(archive.to_bytes()).block(0)
        quality = archive.block(0).quality
        assert back.quality is not None
        assert back.quality.payload == quality.payload
        assert back.quality.n_scores == quality.n_scores

    def test_byte_size_tracks_blob(self, rs3_small, rs4_small):
        # dna_byte_size() is the number tab02 reports: with every
        # block's quality and header sections it is the written size
        # exactly, for every optional section, built or reloaded — and
        # for a loaded v3 archive, whose re-save is the v4 layout.
        archives = [SAGeArchive.from_bytes(golden_blob(name))
                    for name in V3_BLOBS]
        for sim in (rs3_small, rs4_small):
            for config in SIZE_CONFIGS:
                built = SAGeCompressor(sim.reference, config) \
                    .compress(sim.read_set)
                archives += [built, SAGeArchive.from_bytes(built.to_bytes())]
        for archive in archives:
            assert sections_nbytes(archive) == len(archive.to_bytes())


class TestValidation:
    def test_bad_magic(self, archive):
        blob = bytearray(archive.to_bytes())
        blob[0] ^= 0xFF
        with pytest.raises(ContainerError):
            SAGeArchive.from_bytes(bytes(blob))

    def test_bad_version(self, archive):
        blob = bytearray(archive.to_bytes())
        blob[4] = 0xEE
        with pytest.raises(ContainerError):
            SAGeArchive.from_bytes(bytes(blob))

    def test_header_estimate_matches(self, archive):
        # The header estimate is used for size accounting; serializing
        # twice must agree.
        assert archive.header_bytes_estimate() \
            == archive.header_bytes_estimate()


class TestMalformedInput:
    """from_bytes never escapes as struct.error/IndexError: every
    malformed buffer fails with the typed taxonomy, carrying offsets."""

    def test_empty_buffer(self):
        with pytest.raises(TruncatedArchiveError):
            SAGeArchive.from_bytes(b"")

    def test_short_buffer(self):
        with pytest.raises(TruncatedArchiveError) as info:
            SAGeArchive.from_bytes(b"SAG")
        assert info.value.actual == 3

    def test_non_sage_input(self):
        with pytest.raises(CorruptArchiveError) as info:
            SAGeArchive.from_bytes(b"this is not a SAGe archive at all")
        assert info.value.offset == 0

    @pytest.mark.parametrize("cut", [6, 12, 30])
    def test_truncated_header(self, archive, cut):
        blob = archive.to_bytes()
        with pytest.raises(TruncatedArchiveError):
            SAGeArchive.from_bytes(blob[:cut])

    def test_truncated_anywhere_is_typed(self, archive):
        blob = archive.to_bytes()
        for cut in range(5, len(blob), max(1, len(blob) // 23)):
            try:
                SAGeArchive.from_bytes(blob[:cut])
            except ContainerError:
                pass   # typed failure is the contract; never a raw
                       # struct.error / IndexError

    def test_taxonomy_is_valueerror(self):
        # Pre-taxonomy `except ValueError` call sites keep working.
        with pytest.raises(ValueError):
            SAGeArchive.from_bytes(b"XXXXXXXXXX")


class TestChecksums:
    def test_current_version_is_default_write(self, archive):
        blob = archive.to_bytes()
        assert blob[4] == VERSION
        back = SAGeArchive.from_bytes(blob)
        assert back.source_version == VERSION
        assert back.checksummed

    def test_verify_checksums_ok(self, archive):
        back = SAGeArchive.from_bytes(archive.to_bytes())
        report = back.verify_checksums()
        assert report["header"] == "ok"
        assert report["consensus"] == "ok"
        assert set(report["blocks"]) == {"ok"}

    def test_header_crc_detects_damage(self, archive):
        blob = bytearray(archive.to_bytes())
        blob[8] ^= 0x10           # inside the global header fields
        with pytest.raises(CorruptArchiveError):
            SAGeArchive.from_bytes(bytes(blob))

    def test_walk_layout_quality_is_written_only_as_v4(self, archive):
        v4 = SAGeArchive.from_bytes(golden_blob("v4_blocked"))
        view = v4.block_view(1)
        assert not view.block(0).quality.laned
        assert view.to_bytes()[4] == 4
        back = SAGeArchive.from_bytes(view.to_bytes())
        assert read_multiset(SAGeDecompressor(back).decompress_block(0)) \
            == read_multiset(SAGeDataset(v4).decode_block(1))
        with pytest.raises(ContainerError, match="mix"):
            SAGeArchive.from_blocks(
                [v4.block(0), archive.block(0)], level=archive.level,
                consensus=archive.consensus,
                consensus_length=archive.consensus_length)

    def test_every_version_after_v4_reads_lanes(self, archive,
                                                monkeypatch):
        # The layout rule is "after v4", not "the current version": a
        # later bump must still read a v5 blob's quality as lanes.
        payload = bytes(archive.block_payload(0))
        monkeypatch.setattr(container, "VERSION", 6)
        assert SAGeBlock.deserialize(payload, version=5).quality.laned
        assert not SAGeBlock.deserialize(payload, version=4).quality.laned

    def test_v3_verify_reports_unchecked(self):
        for name in V3_BLOBS:
            back = SAGeArchive.from_bytes(golden_blob(name))
            assert back.source_version == 3
            assert not back.checksummed
            report = back.verify_checksums()
            assert report["header"] == "unchecked"
            assert set(report["blocks"]) == {"unchecked"}

    def test_v4_upgrade_from_v3(self):
        for name in V3_BLOBS:
            back = SAGeArchive.from_bytes(golden_blob(name))
            blob = back.to_bytes()      # v4, never v5: walk-layout quality
            assert blob[4] == 4
            upgraded = SAGeArchive.from_bytes(blob)
            assert upgraded.checksummed
            assert upgraded.verify_checksums() == {
                "header": "ok", "consensus": "ok",
                "blocks": ["ok"] * back.n_blocks}
            # The digests are all the upgrade adds.
            assert upgraded.consensus == back.consensus
            for index in range(back.n_blocks):
                assert bytes(upgraded.block_payload(index)) \
                    == bytes(back.block_payload(index))
            assert len(blob) - len(golden_blob(name)) \
                == 4 * (2 + back.n_blocks)
            assert upgraded.to_bytes() == blob
