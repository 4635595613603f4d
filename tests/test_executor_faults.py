"""Fault-tolerant streaming: on_error policy, the pooled retry, gaps."""

import io
from dataclasses import fields

import numpy as np
import pytest

from repro.api import EngineOptions, SAGeDataset, atomic_write_bytes
from repro.core.container import SAGeArchive
from repro.core.errors import BlockDecodeError, SAGeError
from repro.pipeline.executor import (BlockGap, CollectSink, FastqSink,
                                     StreamExecutor)

from tests.conftest import format_read, read_multiset

BLOCK_READS = 24
BAD_BLOCK = 2


@pytest.fixture(scope="module")
def intact(rs3_small):
    dataset = SAGeDataset.from_fastq(
        rs3_small.read_set, reference=rs3_small.reference,
        options=EngineOptions(block_reads=BLOCK_READS))
    return dataset


@pytest.fixture(scope="module")
def corrupt(intact, tmp_path_factory):
    """The intact archive with one byte flipped inside block BAD_BLOCK,
    as a mapped file (pool workers open the file)."""
    blob = intact.to_bytes()
    entry = intact.archive.block_index()[BAD_BLOCK]
    damaged = bytearray(blob)
    damaged[entry.offset + entry.nbytes // 2] ^= 0xFF
    path = tmp_path_factory.mktemp("faults") / "corrupt.sage"
    path.write_bytes(bytes(damaged))
    archive = SAGeArchive.open(path)
    yield archive
    archive.close()


def _executor(archive, **kwargs):
    """An executor over ``archive``, which is file-backed wherever a
    test pools it: an archive with no file decodes in the parent."""
    kwargs.setdefault("workers", 1)
    return StreamExecutor(archive, options=EngineOptions(**kwargs))


class TestOnErrorPolicy:
    def test_default_raise(self, corrupt):
        executor = _executor(corrupt)
        with pytest.raises(BlockDecodeError) as info:
            list(executor)
        assert info.value.block_index == BAD_BLOCK
        assert executor.stats.blocks_failed == 1

    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("process", 2),
    ])
    def test_skip_yields_survivors(self, intact, corrupt, backend,
                                   workers):
        executor = _executor(corrupt, backend=backend, workers=workers,
                             on_error="skip")
        sets = list(executor)
        assert len(sets) == intact.n_blocks - 1
        stats = executor.stats
        assert stats.blocks == intact.n_blocks - 1
        assert stats.blocks_failed == 1
        assert stats.blocks_skipped == 1
        [gap] = stats.gaps
        assert isinstance(gap, BlockGap)
        assert gap.index == BAD_BLOCK
        assert gap.n_reads == BLOCK_READS
        assert isinstance(gap.error, SAGeError)
        # Survivor content is exactly the intact blocks, in order.
        expected = [intact.decode_block(i) for i in range(intact.n_blocks)
                    if i != BAD_BLOCK]
        assert [read_multiset(s) for s in sets] \
            == [read_multiset(s) for s in expected]

    def test_salvage_matches_skip(self, intact, corrupt):
        # Salvage is a skip pass: no second kernel, no extra recovery.
        report = SAGeDataset(corrupt).salvage()
        executor = _executor(corrupt, on_error="skip")
        [skipped] = executor.run(CollectSink())
        assert report.blocks_recovered == intact.n_blocks - 1
        assert [gap.index for gap in report.gaps] == [BAD_BLOCK]
        assert read_multiset(report.read_set) == read_multiset(skipped)

    def test_pooled_failure_is_retried_before_gap(self, corrupt):
        # A corrupt block fails in the worker too (it parses the same
        # blob), so the pooled failure reaches the parent's one retry
        # under default options.
        executor = _executor(corrupt, backend="process", workers=2,
                             on_error="skip")
        list(executor)
        # Deterministic corruption: the one serial retry fails the same
        # way, then the gap forms.
        assert executor.stats.blocks_retried == 1
        assert executor.stats.blocks_failed == 1
        assert executor.stats.blocks_skipped == 1
        assert [gap.index for gap in executor.stats.gaps] == [BAD_BLOCK]

    def test_rescued_blocks_are_accounted_and_released(self, intact,
                                                       tmp_path):
        # Workers cannot open a file deleted after the parent mapped it,
        # so every block fails in the pool and is rescued in the parent:
        # the rescue is the serial decode, stream bits and release too.
        path = tmp_path / "gone.sage"
        path.write_bytes(intact.to_bytes())
        archive = SAGeArchive.open(path)
        path.unlink()
        try:
            executor = _executor(archive, backend="process", workers=2)
            sets = list(executor)
            assert executor.stats.blocks_retried == intact.n_blocks
            assert archive.blocks == [None] * intact.n_blocks
        finally:
            archive.close()
        serial = _executor(SAGeArchive.from_bytes(intact.to_bytes()))
        assert [read_multiset(s) for s in sets] \
            == [read_multiset(s) for s in serial]
        assert executor.stats.streams_decoded \
            == serial.stats.streams_decoded
        assert executor.stats.stream_bits_total > 0

    def test_replaced_file_is_rescued_from_the_parent_mapping(
            self, intact, rs3_small, tmp_path):
        # A session maps archive A; its path is then replaced by archive
        # B.  Workers opening the path find B's identity, so every block
        # is decoded in the parent, from A's mapping, as the serial
        # backend of the same session does.
        path = tmp_path / "replaced.sage"
        atomic_write_bytes(path, intact.to_bytes())
        reads = rs3_small.read_set
        other = SAGeDataset.from_fastq(
            reads.subset(range(len(reads) - 1, -1, -1)),
            reference=rs3_small.reference,
            options=EngineOptions(block_reads=BLOCK_READS))
        with SAGeDataset.open(path, options=EngineOptions(
                workers=2, backend="process")) as dataset:
            atomic_write_bytes(path, other.to_bytes())
            pooled = io.BytesIO()
            dataset.to_fastq(pooled)
            assert dataset.stats.blocks_retried == dataset.n_blocks
            serial = io.BytesIO()
            SAGeDataset(dataset.archive,
                        decompressor=dataset.decompressor()).to_fastq(serial)
        replaced = io.BytesIO()
        with SAGeDataset.open(path) as now:
            now.to_fastq(replaced)
        assert pooled.getvalue() == serial.getvalue() != replaced.getvalue()


class TestSinksAcrossGaps:
    def test_collect_sink_records_gaps(self, intact, corrupt):
        executor = _executor(corrupt, on_error="skip")
        sink = CollectSink()
        [recovered] = executor.run(sink)
        assert [gap.index for gap in sink.gaps] == [BAD_BLOCK]
        assert len(recovered) == intact.n_reads - BLOCK_READS

    def test_fastq_sink_names_stay_stable(self, intact, corrupt):
        # Read names after the hole must match the intact decode: the
        # sink advances its global read counter across the gap.
        buffer = io.StringIO()
        executor = _executor(corrupt, on_error="skip")
        [written] = executor.run(FastqSink(buffer))
        assert written == intact.n_reads - BLOCK_READS
        expected = io.StringIO()
        base = 0
        # Decode from a blob roundtrip like the corrupt archive did, so
        # synthesized read names use the same archive identity.
        roundtrip = SAGeDataset(SAGeArchive.from_bytes(intact.to_bytes()))
        for i in range(intact.n_blocks):
            block = roundtrip.decode_block(i)
            if i != BAD_BLOCK:
                for j, read in enumerate(block):
                    expected.write(format_read(read, base + j))
            base += len(block)
        assert buffer.getvalue() == expected.getvalue()


class TestOptionValidation:
    @pytest.mark.parametrize("kwargs,fragment", [
        (dict(on_error="panic"), "on_error"),
        (dict(block_retries=1), "block_retries"),
        (dict(block_timeout=None), "block_timeout"),
        (dict(block_timeout=1.5), "block_timeout"),
        (dict(block_timeout=np.float32(2)), "block_timeout"),
        (dict(workers=2.5), "workers"),
        (dict(workers="2"), "workers"),
        (dict(workers=None), "workers"),
        (dict(block_reads=64.0), "block_reads"),
        (dict(block_retries=0), "block_retries"),
    ])
    def test_rejects_bad_values(self, kwargs, fragment):
        # A bad value of a field is a ValueError naming it; the retry
        # count and block timeout are no fields at all (one pooled
        # retry is the rule, and no timeout can bound a running process
        # task), so any value of theirs is a TypeError naming them.
        [name] = kwargs
        known = {f.name for f in fields(EngineOptions)}
        error = ValueError if name in known else TypeError
        with pytest.raises(error, match=fragment):
            EngineOptions(**kwargs)

    def test_thread_backend_is_gone(self):
        with pytest.raises(ValueError) as info:
            EngineOptions(backend="thread")
        for name in ("auto", "serial", "process"):
            assert name in str(info.value)

    def test_accepts_policy_values(self):
        for policy in ("raise", "skip"):
            assert EngineOptions(on_error=policy).on_error == policy
        with pytest.raises(ValueError, match="on_error"):
            EngineOptions(on_error="salvage")   # salvage() runs "skip"
        # "Integral" is whatever has __index__: numpy ints stay accepted.
        options = EngineOptions(workers=np.int64(2), block_reads=np.int32(8))
        assert (options.workers, options.block_reads) == (2, 8)
