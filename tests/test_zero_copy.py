"""Zero-copy transport and stream-selective lazy decode (PR 8).

Three properties of the mmap-backed streaming engine:

* **Byte identity** — an mmap-opened archive decodes byte-identically
  to the eager in-memory path under every kernel and every backend,
  whenever all streams are selected, and re-serializes to the exact
  on-disk bytes.
* **Bounded memory** — a full streaming pass over a many-block archive
  keeps the Python heap well below the archive size: payloads live in
  the mapping and parsed blocks are released as the window advances.
* **Typed failure** — a corrupt block read through the mapping still
  raises :class:`CorruptArchiveError` carrying the block index, and
  salvage recovers exactly the untouched blocks.
"""

import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (EngineOptions, SAGeDataset, SAGeError,
                       StreamSelection, atomic_write_bytes)
from repro.core import STREAM_GROUPS
from repro.core.container import SAGeArchive
from repro.core.errors import BlockDecodeError, CorruptArchiveError
from repro.core.kernels import available_kernels
from repro.genomics.reads import Read, ReadSet
from repro.genomics.reference import make_reference
from repro.pipeline.executor import CollectSink
from repro.testing import faults

BLOCK_READS = 24

BACKEND_MATRIX = [("serial", 1), ("process", 2)]


class Collect(CollectSink):
    """``CollectSink`` asking for the stream groups ``requires`` names:
    a pass decodes what its sinks declare, and nothing else says so."""

    def __init__(self, requires):
        super().__init__()
        self.requires = requires


def decode_trace(dataset: SAGeDataset, requires=None):
    """Ordered (name, bases, quality) decode signature — equivalent to
    comparing the rendered FASTQ bytes.  With ``requires``, the pass
    decodes what a sink declaring it asks for."""
    if requires is None:
        read_set = dataset.read_set()
    else:
        [read_set] = dataset.pipe(Collect(requires)).run()
    out = []
    for read in read_set:
        qual = read.quality.tobytes() if read.quality is not None else b""
        out.append((read.header, read.codes.tobytes(), qual))
    return out


@pytest.fixture(scope="module")
def archive_path(rs3_small, tmp_path_factory):
    """A blocked v4 archive on disk plus its exact bytes."""
    dataset = SAGeDataset.from_fastq(
        rs3_small.read_set, reference=rs3_small.reference,
        options=EngineOptions(block_reads=BLOCK_READS))
    blob = dataset.to_bytes()
    path = tmp_path_factory.mktemp("zero_copy") / "subject.sage"
    atomic_write_bytes(path, blob)
    return path, blob


class TestMmapArchive:
    def test_open_is_file_backed(self, archive_path):
        path, blob = archive_path
        with SAGeDataset.open(path) as dataset:
            assert dataset.archive.file_backed
            assert dataset.archive.source_path == Path(path)
            assert dataset.n_blocks > 1

    def test_roundtrip_bytes_identical(self, archive_path):
        path, blob = archive_path
        with SAGeDataset.open(path) as dataset:
            assert dataset.to_bytes() == blob

    def test_block_payload_is_view(self, archive_path):
        path, _ = archive_path
        archive = SAGeArchive.open(path)
        try:
            payload = archive.block_payload(0)
            assert isinstance(payload, memoryview)
        finally:
            del payload
            archive.close()

    def test_release_block_keeps_decoding(self, archive_path):
        path, _ = archive_path
        with SAGeDataset.open(path) as dataset:
            first = dataset.decode_block(1)
            dataset.archive.release_block(1)
            again = dataset.decode_block(1)
            assert [r.codes.tobytes() for r in first] \
                == [r.codes.tobytes() for r in again]

    def test_hardware_model_releases_what_it_parses(self, archive_path):
        from repro.hardware.sage_units import SAGeHardwareModel
        from repro.hardware.ssd import pcie_ssd
        path, _ = archive_path
        with SAGeDataset.open(path) as dataset:
            archive = dataset.archive
            assert archive.n_blocks > 1
            reads, _ = SAGeHardwareModel(pcie_ssd()).run(archive)
            assert len(reads) == archive.n_reads
            assert archive.blocks == [None] * archive.n_blocks

    def test_close_releases_mapping(self, archive_path):
        path, _ = archive_path
        dataset = SAGeDataset.open(path)
        decoded = dataset.decode_block(0)
        dataset.close()
        assert len(decoded) > 0        # parsed data survives close
        assert dataset.closed


class TestByteIdentity:
    @pytest.mark.parametrize("codec", available_kernels())
    @pytest.mark.parametrize("backend,workers", BACKEND_MATRIX)
    def test_lazy_decode_matches_eager(self, archive_path, codec,
                                       backend, workers):
        path, blob = archive_path
        eager = SAGeDataset(SAGeArchive.from_bytes(blob),
                            options=EngineOptions(codec=codec))
        baseline = decode_trace(eager)
        options = EngineOptions(codec=codec, backend=backend,
                                workers=workers)
        with SAGeDataset.open(path, options=options) as dataset:
            assert decode_trace(dataset) == baseline

    @pytest.mark.parametrize("codec", available_kernels())
    def test_explicit_full_selection_matches(self, archive_path, codec):
        path, blob = archive_path
        eager = SAGeDataset(SAGeArchive.from_bytes(blob),
                            options=EngineOptions(codec=codec))
        baseline = decode_trace(eager)
        with SAGeDataset.open(
                path, options=EngineOptions(codec=codec)) as dataset:
            assert decode_trace(dataset, requires=STREAM_GROUPS) == baseline


REFERENCE = make_reference(2_000, np.random.default_rng(99))


@st.composite
def fuzz_read(draw):
    length = draw(st.integers(min_value=25, max_value=140))
    start = draw(st.integers(min_value=0,
                             max_value=REFERENCE.size - length))
    codes = REFERENCE[start:start + length].copy()
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        pos = draw(st.integers(min_value=0, max_value=codes.size - 1))
        codes[pos] = (codes[pos] + 1) % 4
    seed = draw(st.integers(min_value=0, max_value=2**16))
    qual = np.random.default_rng(seed).integers(
        0, 41, codes.size).astype(np.uint8)
    return Read(codes, qual)


@st.composite
def fuzz_read_sets(draw):
    reads = draw(st.lists(fuzz_read(), min_size=1, max_size=14))
    if draw(st.booleans()):
        for read in reads:
            read.quality = None
    return ReadSet(reads)


class TestByteIdentityFuzz:
    @given(read_set=fuzz_read_sets(),
           codec=st.sampled_from(available_kernels()),
           block_reads=st.sampled_from([3, 6]))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mmap_lazy_equals_eager(self, tmp_path, read_set, codec,
                                    block_reads):
        """For arbitrary read sets, the mmap-backed lazy decode under a
        full selection reproduces the eager decode exactly, and the
        mapped archive re-serializes to its own file bytes."""
        dataset = SAGeDataset.from_fastq(
            read_set, reference=REFERENCE,
            options=EngineOptions(block_reads=block_reads, codec=codec))
        blob = dataset.to_bytes()
        path = tmp_path / "fuzz.sage"
        atomic_write_bytes(path, blob)

        eager = SAGeDataset(SAGeArchive.from_bytes(blob),
                            options=EngineOptions(codec=codec))
        baseline = decode_trace(eager)
        with SAGeDataset.open(
                path, options=EngineOptions(codec=codec)) as lazy:
            assert lazy.to_bytes() == blob
            assert decode_trace(lazy) == baseline
            assert decode_trace(lazy, requires=STREAM_GROUPS) == baseline


class TestSelectiveDecode:
    def test_sequence_only_drops_quality_and_headers(self, archive_path):
        """A sink declaring ``requires=("sequence",)`` gets only the
        sequence decoded, on every backend (the pool's workers receive
        the pass's selection from their initializer)."""
        path, _ = archive_path
        with SAGeDataset.open(path) as dataset:
            full = dataset.read_set()
        assert full.quality is not None
        for backend, workers in BACKEND_MATRIX:
            options = EngineOptions(backend=backend, workers=workers)
            with SAGeDataset.open(path, options=options) as dataset:
                pipeline = dataset.pipe(Collect(("sequence",)))
                [reads] = pipeline.run()
            decoded = pipeline.stats.streams_decoded
            assert reads.quality is None, backend
            assert decoded["sequence"] > 0
            assert decoded["quality"] == decoded["headers"] == 0, backend
            assert [r.codes.tobytes() for r in reads] \
                == [r.codes.tobytes() for r in full]

    def test_selection_union_from_sinks(self, archive_path):
        path, _ = archive_path
        with SAGeDataset.open(path) as dataset:
            # Both sinks read base codes only.
            for sink in ("mapping-rate", "property"):
                dataset.pipe(sink).run()
                stats = dataset.stats
                assert stats.streams_decoded.get("sequence", 0) > 0
                assert stats.streams_decoded.get("quality", 0) == 0
                assert stats.streams_decoded.get("headers", 0) == 0

    def test_full_decode_counts_all_groups(self, archive_path):
        path, _ = archive_path
        with SAGeDataset.open(path) as dataset:
            dataset.pipe("collect").run()
            stats = dataset.stats
            assert stats.streams_decoded.get("sequence", 0) > 0
            assert stats.streams_decoded.get("quality", 0) > 0
            full_bits = stats.stream_bits_total
            dataset.pipe("mapping-rate").run()
            # Skipping quality and headers is most of the archive.
            assert full_bits >= 2 * dataset.stats.stream_bits_total > 0

    def test_quality_requires_sequence(self):
        with pytest.raises(ValueError):
            StreamSelection(sequence=False, quality=True)
        with pytest.raises(ValueError, match="unknown stream group"):
            StreamSelection.from_spec(("nonsense",))


class TestDescriptorTransport:
    def test_process_backend_ships_descriptors(self, archive_path):
        path, blob = archive_path
        options = EngineOptions(backend="process", workers=2)
        with SAGeDataset.open(path, options=options) as dataset:
            n_blocks = dataset.n_blocks
            dataset.pipe("collect").run()
            shipped = dataset.stats.bytes_shipped
        # A task names the file and one block; payload pickling would be
        # the full archive (tens of KB here, MBs in production).
        assert 0 < shipped < (len(str(path)) + 64) * n_blocks
        assert shipped * 10 < len(blob)

    def test_in_memory_archive_decodes_in_the_parent(self, archive_path):
        # No file a worker could open: the pass is the serial one, and
        # nothing is shipped.
        _, blob = archive_path
        archive = SAGeArchive.from_bytes(blob)
        options = EngineOptions(backend="process", workers=2)
        dataset = SAGeDataset(archive, options=options)
        dataset.pipe("collect").run()
        assert dataset.stats.blocks == archive.n_blocks
        assert dataset.stats.bytes_shipped == 0


@pytest.fixture(scope="module")
def scaling_archives(tmp_path_factory):
    """Two archives with identical block size, ~5x apart in bytes."""
    from repro.genomics import datasets

    data = datasets.generate("RS2", base_genome=12_000)
    reads = list(data.read_set)
    tmp = tmp_path_factory.mktemp("bounded")
    out = {}
    for name, subset in [("small", reads[:len(reads) // 7]),
                         ("large", reads)]:
        dataset = SAGeDataset.from_fastq(
            ReadSet(subset), reference=data.reference,
            options=EngineOptions(block_reads=64))
        path = tmp / f"{name}.sage"
        atomic_write_bytes(path, dataset.to_bytes())
        out[name] = path
    return out


def _streaming_peak(path, options) -> tuple[int, int]:
    """(heap peak during a full streaming pass, reads consumed)."""
    counts = []
    with SAGeDataset.open(path, options=options) as dataset:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            dataset.pipe(lambda block: counts.append(len(block))).run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak, sum(counts)


class TestBoundedMemory:
    def test_open_touches_only_header(self, scaling_archives):
        """Opening an archive and reading its metadata allocates far
        less heap than the file: payloads stay in the mapping (the
        eager path starts by reading the whole file into bytes)."""
        path = scaling_archives["large"]
        file_size = path.stat().st_size
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            archive = SAGeArchive.open(path)
            archive.block_index()
            _ = archive.n_reads, archive.consensus_length
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            archive.close()
        assert archive.n_blocks > 30
        assert peak < file_size / 3, \
            f"open() heap {peak} vs file {file_size}"

    @pytest.mark.parametrize("backend,workers", BACKEND_MATRIX)
    def test_streaming_peak_scales_sublinearly(self, scaling_archives,
                                               backend, workers):
        """A ~5x larger archive must not cost ~5x the heap: the mmap
        window holds O(block), not O(archive).  Materializing the file
        (or retaining every parsed block) would scale the peak with the
        archive size."""
        options = EngineOptions(backend=backend, workers=workers)
        small, n_small = _streaming_peak(scaling_archives["small"],
                                         options)
        large, n_large = _streaming_peak(scaling_archives["large"],
                                         options)
        assert n_large >= 4 * n_small > 0
        size_ratio = (scaling_archives["large"].stat().st_size
                      / scaling_archives["small"].stat().st_size)
        assert size_ratio > 4
        assert large < 3 * small, \
            f"{backend}: peak {small} -> {large} for {size_ratio:.1f}x " \
            f"more archive bytes"


class TestCorruptMappedBlock:
    DAMAGED = 2

    @pytest.fixture()
    def damaged_path(self, archive_path, tmp_path):
        """The subject archive with one block's payload zeroed."""
        path, blob = archive_path
        with SAGeDataset.open(path) as dataset:
            entry = dataset.archive.block_index()[self.DAMAGED]
        report = faults.zero_region(
            blob, random.Random(11),
            region=(entry.offset, entry.offset + entry.nbytes))
        assert report.changed
        damaged = tmp_path / "damaged.sage"
        atomic_write_bytes(damaged, report.blob)
        return damaged

    def test_typed_error_with_block_context(self, damaged_path):
        with SAGeDataset.open(damaged_path) as dataset:
            # Container layer: the CRC check runs on the mmap view and
            # names the damaged block and its payload offset.
            with pytest.raises(CorruptArchiveError) as excinfo:
                dataset.archive.block(self.DAMAGED)
            assert excinfo.value.block_index == self.DAMAGED
            assert excinfo.value.offset is not None
            # Decode layer: wrapped into the salvage unit, chaining the
            # container error and keeping the block context.
            with pytest.raises(BlockDecodeError) as excinfo:
                dataset.decode_block(self.DAMAGED)
            assert excinfo.value.block_index == self.DAMAGED
            assert isinstance(excinfo.value.__cause__,
                              CorruptArchiveError)

    @pytest.mark.parametrize("backend,workers", BACKEND_MATRIX)
    def test_streaming_raises_typed_error(self, damaged_path, backend,
                                          workers):
        options = EngineOptions(backend=backend, workers=workers)
        with SAGeDataset.open(damaged_path, options=options) as dataset:
            with pytest.raises(SAGeError):
                dataset.read_set()

    def test_salvage_recovers_intact_blocks(self, archive_path,
                                            damaged_path):
        path, _ = archive_path
        with SAGeDataset.open(path) as clean:
            expected = {i: [r.codes.tobytes() for r in clean.decode_block(i)]
                        for i in range(clean.n_blocks)
                        if i != self.DAMAGED}
        options = EngineOptions(on_error="skip")
        with SAGeDataset.open(damaged_path, options=options) as dataset:
            recovered = dataset.read_set()
            stats = dataset.stats
        assert [gap.index for gap in stats.gaps] == [self.DAMAGED]
        assert stats.blocks == len(expected)
        assert [r.codes.tobytes() for r in recovered] \
            == [codes for i in sorted(expected) for codes in expected[i]]

    def test_verify_localizes_damage(self, damaged_path):
        with SAGeDataset.open(damaged_path) as dataset:
            report = dataset.verify()
            assert report.blocks[self.DAMAGED] == "failed"
            assert all(status == "ok" for i, status in
                       enumerate(report.blocks) if i != self.DAMAGED)
