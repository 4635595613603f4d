"""Tests for the block-based streaming engine and the v3/v4 container.

Covers the acceptance criteria of the block refactor: lossless round
trips across all optimization levels and read-set families, byte-equal
parallel/serial compression, isolated random-access block decoding, and
container version handling.
"""

import numpy as np
import pytest

from repro.api import EngineOptions, SAGeDataset
from repro.core import (BlockCompressor, OptLevel, SAGeCompressor,
                        SAGeConfig, SAGeDecompressor)
from repro.core.container import (BLOCK_STREAM_NAMES, ContainerError,
                                  SAGeArchive)
from repro.genomics.reads import ReadSet
from repro.genomics.simulator import (ReadSimulator, long_read_profile,
                                      short_read_profile)
from repro.mapping.mapper import MapperConfig

from tests.conftest import (SIZE_CONFIGS, chunked, golden_blob,
                            read_multiset)

BLOCK_READS = 9  # deliberately small: forces several partial blocks
BLOCKED = EngineOptions(block_reads=BLOCK_READS)


def _simulate(profile, seed, genome, n_reads):
    sim = ReadSimulator(profile, np.random.default_rng(seed))
    return sim.simulate(genome, n_reads)


@pytest.fixture(scope="module")
def families():
    """Small deterministic read sets, one per paper read-set family."""
    short = _simulate(short_read_profile(), 11, 3_000, 40)
    long_clean = _simulate(
        long_read_profile(read_length=400, min_length=150, max_length=900,
                          chimera_rate=0.0, n_rate=0.0),
        12, 5_000, 24)
    chimeric = _simulate(
        long_read_profile(read_length=400, min_length=150, max_length=900,
                          chimera_rate=0.5),
        13, 5_000, 24)
    n_heavy = _simulate(short_read_profile(n_rate=0.05), 14, 3_000, 40)
    return {"short": short, "long": long_clean,
            "chimeric": chimeric, "n_heavy": n_heavy}


class TestRoundtrips:
    @pytest.mark.parametrize("level", list(OptLevel))
    @pytest.mark.parametrize("family",
                             ["short", "long", "chimeric", "n_heavy"])
    def test_lossless_all_levels_and_families(self, families, family,
                                              level):
        sim = families[family]
        config = SAGeConfig(level=level)
        archive = BlockCompressor(sim.reference, config, options=BLOCKED) \
            .compress(sim.read_set)
        assert archive.n_blocks > 1
        back = SAGeArchive.from_bytes(archive.to_bytes())
        decoded = SAGeDataset(back).read_set()
        assert read_multiset(decoded) == read_multiset(sim.read_set)

    def test_preserve_order_restores_global_order(self, families):
        sim = families["short"]
        config = SAGeConfig(preserve_order=True)
        archive = BlockCompressor(sim.reference, config, options=BLOCKED) \
            .compress(sim.read_set)
        decoded = SAGeDataset(
            SAGeArchive.from_bytes(archive.to_bytes())).read_set()
        assert len(decoded) == len(sim.read_set)
        for original, restored in zip(sim.read_set, decoded):
            assert np.array_equal(original.codes, restored.codes)

    def test_mixed_block_shapes(self, families):
        """Blocks may disagree on fixed-length/long-read flags."""
        mixed = ReadSet(list(families["short"].read_set)
                        + list(families["long"].read_set), name="mixed")
        archive = BlockCompressor(
            families["short"].reference, SAGeConfig(),
            options=EngineOptions(block_reads=40)).compress(mixed)
        decoded = SAGeDataset(
            SAGeArchive.from_bytes(archive.to_bytes())).read_set()
        assert read_multiset(decoded) == read_multiset(mixed)


class TestParallelDeterminism:
    def test_parallel_matches_serial_bytes(self, families):
        sim = families["short"]
        serial, parallel = (
            BlockCompressor(sim.reference, SAGeConfig(),
                            options=BLOCKED.replace(workers=workers))
            .compress(sim.read_set)
            .to_bytes() for workers in (1, 4))
        assert serial == parallel

    def test_workers_do_not_mutate_shared_config(self, families):
        sim = families["long"]
        mapper = MapperConfig()
        config = SAGeConfig(mapper=mapper)
        BlockCompressor(sim.reference, config,
                        options=BLOCKED.replace(workers=2)) \
            .compress(sim.read_set)
        assert mapper == MapperConfig()


class TestRandomAccess:
    @pytest.fixture(scope="class")
    def loaded(self, families):
        sim = families["short"]
        archive = BlockCompressor(sim.reference, SAGeConfig(),
                                  options=BLOCKED).compress(sim.read_set)
        chunks = chunked(sim.read_set, BLOCK_READS)
        return SAGeArchive.from_bytes(archive.to_bytes()), chunks

    def test_block_index_counts(self, loaded):
        archive, chunks = loaded
        index = archive.block_index()
        assert len(index) == len(chunks)
        assert [e.n_reads for e in index] == [len(c) for c in chunks]
        assert sum(e.n_reads for e in index) == archive.n_reads

    def test_decompress_block_is_isolated(self, loaded):
        archive, chunks = loaded
        target = len(chunks) // 2
        decoded = SAGeDecompressor(archive).decompress_block(target)
        assert read_multiset(decoded) == read_multiset(chunks[target])
        # Only the requested block was parsed from the blob.
        parsed = [i for i, b in enumerate(archive.blocks)
                  if b is not None]
        assert parsed == [target]

    def test_iter_block_read_sets_covers_all(self, loaded):
        archive, chunks = loaded
        sets = list(SAGeDataset(archive).blocks())
        assert len(sets) == len(chunks)
        for got, expected in zip(sets, chunks):
            assert read_multiset(got) == read_multiset(expected)

    def test_partial_decode_headers_globally_unique(self, loaded):
        archive, chunks = loaded
        seen = set()
        for block_set in SAGeDataset(archive).blocks():
            for read in block_set:
                assert read.header not in seen
                seen.add(read.header)

    def test_out_of_range_block(self, loaded):
        archive, _ = loaded
        with pytest.raises(ContainerError):
            archive.block_view(archive.n_blocks)

    def test_flat_archive_is_block_zero(self, families):
        sim = families["short"]
        archive = SAGeCompressor(sim.reference,
                                 SAGeConfig()).compress(sim.read_set)
        decoded = SAGeDecompressor(archive).decompress_block(0)
        assert read_multiset(decoded) == read_multiset(sim.read_set)
        with pytest.raises(ContainerError):
            archive.block_view(1)

    def test_block_view_is_a_one_block_archive(self, loaded):
        shared, chunks = loaded
        archive = SAGeArchive.from_bytes(shared.to_bytes())
        view = archive.block_view(1)
        assert view.n_blocks == 1
        assert view.block(0) is archive.block(1)
        assert view.consensus is archive.consensus
        assert read_multiset(SAGeDecompressor(view).decompress()) \
            == read_multiset(chunks[1])


class TestContainerCompat:
    def test_v2_is_neither_read_nor_written(self, families):
        sim = families["short"]
        archive = SAGeCompressor(sim.reference,
                                 SAGeConfig()).compress(sim.read_set)
        assert archive.to_bytes()[4] == 4       # the one version written
        blob = bytearray(golden_blob("v3_one_block_order_headers"))
        blob[4] = 2              # the version byte follows the magic
        with pytest.raises(ContainerError, match="unsupported version 2"):
            SAGeArchive.from_bytes(bytes(blob))

    def test_blocked_archive_refuses_v2(self):
        blob = bytearray(golden_blob("v3_blocked"))
        blob[4] = 2
        with pytest.raises(ContainerError, match="unsupported version 2"):
            SAGeArchive.from_bytes(bytes(blob))

    def test_single_block_loads_lazily(self, families):
        sim = families["short"]
        archive = SAGeCompressor(sim.reference,
                                 SAGeConfig()).compress(sim.read_set)
        back = SAGeArchive.from_bytes(archive.to_bytes())
        assert back.n_blocks == 1
        assert back.blocks == [None]         # parsed on first access
        assert back.consensus == archive.consensus
        assert back.block(0).streams == archive.block(0).streams

    def test_roundtrip_is_byte_stable(self, families):
        sim = families["short"]
        blob = BlockCompressor(sim.reference, SAGeConfig(), options=BLOCKED) \
            .compress(sim.read_set).to_bytes()
        assert SAGeArchive.from_bytes(blob).to_bytes() == blob

    def test_byte_size_tracks_blob(self, families):
        # Exact, not approximate: the multi-block half of the matrix in
        # test_core_container.py (index entries, per-block framing).
        for sim in (families["short"], families["chimeric"]):
            for config in SIZE_CONFIGS:
                built = BlockCompressor(sim.reference, config,
                                        options=BLOCKED) \
                    .compress(sim.read_set)
                assert built.n_blocks > 1
                for archive in (built,
                                SAGeArchive.from_bytes(built.to_bytes())):
                    assert archive.byte_size() == len(archive.to_bytes())


class TestBlockedHardwarePath:
    """The hardware/SSD models must accept blocked archives (§5.3)."""

    @pytest.fixture(scope="class")
    def blocked(self, families):
        sim = families["short"]
        archive = BlockCompressor(sim.reference, SAGeConfig(),
                                  options=BLOCKED).compress(sim.read_set)
        return sim, archive

    def test_hardware_model_decodes_blocked(self, blocked):
        from repro.hardware.sage_units import SAGeHardwareModel
        from repro.hardware.ssd import pcie_ssd
        sim, archive = blocked
        reads, stats = SAGeHardwareModel(pcie_ssd()).run(archive)
        assert read_multiset(reads) == read_multiset(sim.read_set)
        assert stats.n_reads == len(sim.read_set)
        assert stats.output_bases == sim.read_set.total_bases
        # Shared consensus fetched once, not once per block.
        assert stats.stream_bits["consensus"] == archive.consensus[1]

    def test_device_read_and_batches(self, blocked):
        from repro.hardware.device import SAGeDevice
        sim, archive = blocked
        device = SAGeDevice()
        device.sage_write("rs", archive)
        result = device.sage_read("rs")
        assert read_multiset(result.reads) == read_multiset(sim.read_set)
        batches = list(device.iter_batches("rs", batch_reads=10))
        total = [r for b in batches for r in b]
        codes_only = sorted(r.codes.tobytes() for r in total)
        assert codes_only == sorted(r.codes.tobytes()
                                    for r in sim.read_set)

    def test_block_index_offsets_locate_payloads(self, blocked):
        """Built-in-memory offsets must match the serialized layout."""
        from repro.core.container import SAGeBlock
        _, archive = blocked
        blob = archive.to_bytes()
        loaded = SAGeArchive.from_bytes(blob)
        assert archive.block_index() == loaded.block_index()
        for i, entry in enumerate(archive.block_index()):
            payload = blob[entry.offset:entry.offset + entry.nbytes]
            assert SAGeBlock.deserialize(payload).n_reads == entry.n_reads


class TestEngineEdges:
    def test_empty_input_yields_one_empty_block(self, families):
        sim = families["short"]
        # One empty chunk (block_reads=0) or an empty partition.
        for options in (EngineOptions(), BLOCKED):
            archive = BlockCompressor(sim.reference, SAGeConfig(),
                                      options=options).compress(ReadSet([]))
            assert archive.n_blocks == 1
            assert archive.n_reads == 0
            decoded = SAGeDecompressor(
                SAGeArchive.from_bytes(archive.to_bytes())).decompress()
            assert len(decoded) == 0

    def test_one_block_starts_no_pool(self, families, monkeypatch):
        """``workers`` is pure speed: with one block there is nothing to
        parallelise, so the bytes are the serial ones and no process
        pool is started for them."""
        from repro.core import blocks

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for one block")

        sim = families["short"]
        serial = BlockCompressor(sim.reference).compress(sim.read_set)
        monkeypatch.setattr(blocks, "ProcessPoolExecutor", no_pool)
        pooled = BlockCompressor(sim.reference,
                                 options=EngineOptions(workers=4)) \
            .compress(sim.read_set)
        assert pooled.n_blocks == 1
        assert pooled.to_bytes() == serial.to_bytes()

    def test_prechunked_stream_one_block_per_chunk(self, families):
        sim = families["short"]
        chunks = chunked(sim.read_set, 15)
        archive = BlockCompressor(sim.reference,
                                  SAGeConfig()).compress(iter(chunks))
        assert archive.n_blocks == len(chunks)
        # The header records options.block_reads as given — here the
        # default 0, not a partition size nobody chose.
        assert archive.block_reads == 0
        assert SAGeArchive.from_bytes(archive.to_bytes()).block_reads == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            EngineOptions(block_reads=-1)
        with pytest.raises(ValueError):
            EngineOptions(workers=0)

    def test_breakdown_counts_consensus_once(self, families):
        sim = families["short"]
        blocked = BlockCompressor(sim.reference, SAGeConfig(),
                                  options=BLOCKED).compress(sim.read_set)
        flat = SAGeCompressor(sim.reference,
                              SAGeConfig()).compress(sim.read_set)
        assert blocked.breakdown.get("consensus") \
            == flat.breakdown.get("consensus")

    def test_breakdown_header_charges_order_and_header_blobs(self,
                                                              families):
        """Blocked and one-block archives follow one Fig. 17 rule: the
        container header once, plus every block's order stream and
        header blob."""
        sim = families["short"]
        config = SAGeConfig(preserve_order=True, with_headers=True)
        one_shot = SAGeCompressor(sim.reference,
                                  config).compress(sim.read_set)
        one_block = BlockCompressor(
            sim.reference, config,
            options=EngineOptions(block_reads=len(sim.read_set))) \
            .compress(sim.read_set)
        blocked = BlockCompressor(sim.reference, config, options=BLOCKED) \
            .compress(sim.read_set)
        assert blocked.n_blocks > 1 and one_block.n_blocks == 1
        for archive in (one_shot, one_block, blocked):
            owned = sum(
                blk.streams["order"][1] + 8 * len(blk.headers_blob)
                for blk in archive.blocks)
            assert owned > 0
            assert archive.breakdown.get("header") \
                == owned + 8 * archive.header_bytes_estimate()
        # The same reads in one block are the same archive, whichever
        # engine built it.
        assert one_block.breakdown.bits == one_shot.breakdown.bits

    def test_block_streams_exclude_consensus(self, families):
        sim = families["short"]
        archive = BlockCompressor(sim.reference, SAGeConfig(),
                                  options=BLOCKED).compress(sim.read_set)
        for i in range(archive.n_blocks):
            assert set(archive.block(i).streams) \
                == set(BLOCK_STREAM_NAMES)
