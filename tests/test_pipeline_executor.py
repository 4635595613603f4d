"""Tests for the overlapped streaming execution engine."""

import io

import numpy as np
import pytest

from repro.analysis import MappingRateSink, PropertyAccumulator, analyze
from repro.analysis.variants import call_variants, pileup
from repro.api import EngineOptions, SAGeDataset
from repro.core import (INFLIGHT_PER_WORKER, BlockCompressor, SAGeArchive,
                        SAGeCompressor, SAGeConfig, SAGeDecompressor)
from repro.genomics import fastq
from repro.pipeline.executor import (CollectSink, FastqSink,
                                     StreamExecutor)

from tests.conftest import decode_blocks, read_multiset

BLOCK_READS = 16


@pytest.fixture(scope="module")
def blocked(rs3_small):
    """A multi-block archive round-tripped through bytes."""
    archive = BlockCompressor(
        rs3_small.reference, SAGeConfig(),
        options=EngineOptions(block_reads=BLOCK_READS)) \
        .compress(rs3_small.read_set)
    loaded = SAGeArchive.from_bytes(archive.to_bytes())
    assert loaded.n_blocks > 2
    return loaded


@pytest.fixture(scope="module")
def serial_text(blocked):
    return fastq.write(decode_blocks(SAGeDecompressor(blocked)))


class TestStreamExecutor:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("process", 2), ("auto", 2)])
    def test_output_identical_to_serial(self, blocked, serial_text,
                                        backend, workers):
        executor = StreamExecutor(blocked, options=EngineOptions(
            workers=workers, backend=backend))
        buffer = io.StringIO()
        executor.run(FastqSink(buffer))
        assert buffer.getvalue() == serial_text
        # A healthy pass needs no rescue: a task the pool cannot pickle
        # (a lambda, a local function) would be retried serially,
        # silently, for every block.
        assert executor.stats.blocks_retried == 0
        if backend == "serial":
            assert executor.stats.peak_inflight == 1

    def test_blocks_arrive_in_index_order(self, blocked):
        executor = StreamExecutor(blocked,
                                  options=EngineOptions(workers=2))
        decoder = SAGeDecompressor(blocked)
        for index, block in enumerate(executor):
            expected = decoder.decompress_block(index)
            assert [r.header for r in block] \
                == [r.header for r in expected]

    def test_bounded_inflight(self, blocked):
        executor = StreamExecutor(
            blocked, options=EngineOptions(workers=2))
        for _ in executor:
            pass
        stats = executor.stats
        assert stats.blocks == blocked.n_blocks
        assert executor.window == 2 * INFLIGHT_PER_WORKER
        assert 1 <= stats.peak_inflight <= executor.window
        # The window is smaller than the archive: the dataset was
        # never fully in flight at once.
        assert executor.window < blocked.n_blocks
        assert stats.peak_inflight < blocked.n_blocks

    def test_stats_account_reads_and_bases(self, blocked, rs3_small):
        executor = StreamExecutor(blocked,
                                  options=EngineOptions(workers=2))
        collected = executor.run(CollectSink())[0]
        assert executor.stats.reads == len(rs3_small.read_set)
        assert executor.stats.bases == rs3_small.read_set.total_bases
        assert read_multiset(collected) \
            == read_multiset(rs3_small.read_set)

    def test_flat_archive_is_single_block(self, rs3_small):
        archive = SAGeCompressor(rs3_small.reference, SAGeConfig()) \
            .compress(rs3_small.read_set)
        executor = StreamExecutor(archive,
                                  options=EngineOptions(workers=4))
        assert executor.resolved_backend == "serial"
        blocks = list(executor)
        assert len(blocks) == 1
        assert read_multiset(blocks[0]) \
            == read_multiset(rs3_small.read_set)

    def test_multiple_sinks_one_pass(self, blocked):
        executor = StreamExecutor(blocked,
                                  options=EngineOptions(workers=2))
        n_written, collected = executor.run(
            FastqSink(io.StringIO()), CollectSink())
        assert n_written == len(collected) == blocked.n_reads

    def test_validation(self, blocked):
        with pytest.raises(ValueError):
            EngineOptions(workers=0)
        with pytest.raises(ValueError):
            EngineOptions(backend="gpu")
        with pytest.raises(ValueError):
            StreamExecutor(blocked).run()

    def test_stream_read_sets_wrapper(self, blocked, serial_text):
        sets = list(StreamExecutor(blocked,
                                   options=EngineOptions(workers=2)))
        text = "".join(fastq.format_read(r, 0)
                       for s in sets for r in s)
        assert text == serial_text


class TestDecompressorIntegration:
    def test_iter_block_read_sets_workers(self, blocked, serial_text):
        sets = list(SAGeDataset(
            blocked, options=EngineOptions(workers=2)).blocks())
        assert len(sets) == blocked.n_blocks
        text = "".join(fastq.format_read(r, 0)
                       for s in sets for r in s)
        assert text == serial_text

    def test_decompress_workers_identical(self, blocked, serial_text):
        parallel = SAGeDataset(
            blocked, options=EngineOptions(workers=2)).read_set()
        assert fastq.write(parallel) == serial_text

    def test_invalid_workers(self, blocked):
        with pytest.raises(ValueError):
            SAGeDataset(blocked, options=EngineOptions(workers=0))


class TestSinks:
    def test_property_sink_matches_whole_dataset(self, blocked,
                                                 rs3_small):
        decoder = SAGeDecompressor(blocked)
        executor = StreamExecutor(blocked,
                                  options=EngineOptions(workers=2),
                                  decompressor=decoder)
        streamed = executor.run(PropertyAccumulator(decoder.consensus))[0]
        whole = analyze(decode_blocks(SAGeDecompressor(blocked)),
                        rs3_small.reference)
        assert streamed.n_reads == whole.n_reads
        assert streamed.n_unmapped == whole.n_unmapped
        assert np.array_equal(streamed.mismatch_counts,
                              whole.mismatch_counts)
        assert np.array_equal(streamed.matching_pos_deltas,
                              whole.matching_pos_deltas)

    def test_mapping_rate_sink(self, blocked):
        decoder = SAGeDecompressor(blocked)
        executor = StreamExecutor(blocked, decompressor=decoder)
        rate = executor.run(MappingRateSink(decoder.consensus))[0]
        assert rate.n_reads == blocked.n_reads
        assert rate.n_mapped + rate.n_unmapped == rate.n_reads
        assert 0.5 < rate.mapping_rate <= 1.0

    def test_fastq_sink_matches_write_file(self, blocked, tmp_path,
                                           serial_text):
        out = tmp_path / "sink.fastq"
        with open(out, "w", encoding="ascii") as handle:
            StreamExecutor(blocked, options=EngineOptions(workers=2)) \
                .run(FastqSink(handle))
        assert out.read_text(encoding="ascii") == serial_text


class TestStreamedAnalysis:
    def test_analyze_accepts_block_stream(self, blocked, rs3_small):
        streamed = analyze(SAGeDataset(blocked).blocks(),
                           rs3_small.reference)
        whole = analyze(decode_blocks(SAGeDecompressor(blocked)),
                        rs3_small.reference)
        assert streamed.n_reads == whole.n_reads
        assert np.array_equal(streamed.mismatch_pos_deltas,
                              whole.mismatch_pos_deltas)

    def test_pileup_accepts_block_stream(self, blocked, rs3_small):
        streamed = pileup(
            SAGeDataset(blocked,
                        options=EngineOptions(workers=2)).blocks(),
            rs3_small.reference)
        whole = pileup(decode_blocks(SAGeDecompressor(blocked)),
                       rs3_small.reference)
        assert np.array_equal(streamed.depth, whole.depth)
        assert np.array_equal(streamed.alt_counts, whole.alt_counts)
        assert streamed.indel_counts == whole.indel_counts

    def test_call_variants_from_stream(self, blocked, rs3_small):
        streamed = call_variants(SAGeDataset(blocked).blocks(),
                                 rs3_small.reference)
        whole = call_variants(decode_blocks(SAGeDecompressor(blocked)),
                              rs3_small.reference)
        assert [(c.position, c.kind) for c in streamed] \
            == [(c.position, c.kind) for c in whole]
