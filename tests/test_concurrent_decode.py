"""Concurrent random access on one shared mmap'd dataset.

The serving layer's load-bearing assumption, tested directly: many
threads may call ``decompress_block`` on a single open
:class:`SAGeDataset` — overlapping block sets, either codec kernel —
and every result is byte-identical to a serial decode.  The second half
covers the close contract: ``close()`` is idempotent, safe from any
thread, and a close racing an in-flight decode surfaces as a typed
error (or a completed decode), never a crash.
"""

import threading

import pytest

from repro.api import EngineOptions, SAGeDataset
from repro.core.errors import ContainerError, SAGeError
from repro.genomics import fastq

from tests.conftest import read_multiset

BLOCK_READS = 24


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory, rs3_small):
    path = tmp_path_factory.mktemp("concurrent") / "reads.sage"
    dataset = SAGeDataset.from_fastq(
        rs3_small.read_set, reference=rs3_small.reference,
        options=EngineOptions(block_reads=BLOCK_READS))
    dataset.save(path)
    assert dataset.archive.n_blocks >= 4
    return path


def _serial_blocks(path, kernel):
    with SAGeDataset.open(path,
                          options=EngineOptions(codec=kernel)) as dataset:
        return [fastq.write(dataset.decode_block(i))
                for i in range(dataset.archive.n_blocks)]


class TestConcurrentDecodeBlock:
    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    def test_overlapping_blocks_byte_identical(self, archive_path, kernel):
        expected = _serial_blocks(archive_path, kernel)
        n_blocks = len(expected)
        with SAGeDataset.open(
                archive_path,
                options=EngineOptions(codec=kernel)) as dataset:
            decoder = dataset.decompressor()
            results: dict[tuple[int, int], str] = {}
            errors: list[BaseException] = []
            barrier = threading.Barrier(6)

            def worker(worker_id, indices):
                try:
                    barrier.wait(timeout=10)
                    for i in indices:
                        read_set = decoder.decompress_block(i)
                        results[(worker_id, i)] = fastq.write(read_set)
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            # Six threads, deliberately overlapping block sets: every
            # block is decoded by at least two threads concurrently.
            plans = [list(range(n_blocks)),
                     list(reversed(range(n_blocks))),
                     [i for i in range(n_blocks) if i % 2 == 0] * 2,
                     [i for i in range(n_blocks) if i % 2 == 1] * 2,
                     [0, n_blocks - 1] * 3,
                     list(range(n_blocks))]
            threads = [threading.Thread(target=worker, args=(wid, plan))
                       for wid, plan in enumerate(plans)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors
            for (_, i), text in results.items():
                assert text == expected[i], f"block {i} diverged"

    def test_shared_decoder_matches_multiset(self, archive_path,
                                             rs3_small):
        with SAGeDataset.open(archive_path) as dataset:
            collected = []
            lock = threading.Lock()

            def worker(indices):
                for i in indices:
                    read_set = dataset.decode_block(i)
                    with lock:
                        collected.extend(read_set)

            n_blocks = dataset.archive.n_blocks
            halves = [range(0, n_blocks, 2), range(1, n_blocks, 2)]
            threads = [threading.Thread(target=worker, args=(h,))
                       for h in halves]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert read_multiset(collected) == \
                read_multiset(rs3_small.read_set)


class TestLazyReadsRace:
    def test_racing_threads_all_see_a_complete_list(self, archive_path):
        """One cached block, many request threads: a block's ``Read``
        views are built lazily, and every thread that asks while the
        first is still building must get a complete list (built
        locally, assigned once) — never a partial one."""
        import sys

        with SAGeDataset.open(archive_path) as dataset:
            expected = [fastq.format_read(read, i) for i, read
                        in enumerate(dataset.decode_block(1))]
            rounds, n_threads = 40, 6
            blocks = [dataset.decode_block(1) for _ in range(rounds)]
        seen: list[list[str]] = []
        errors: list[BaseException] = []
        barrier = threading.Barrier(n_threads)

        def worker():
            try:
                for block in blocks:
                    barrier.wait(timeout=10)
                    seen.append([fastq.format_read(read, i) for i, read
                                 in enumerate(block.reads)])
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker)
                       for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert len(seen) == rounds * n_threads
        assert all(texts == expected for texts in seen)
        # The columns were never touched: the block still renders from
        # them, byte-identical.
        assert all(fastq.write(block) == "".join(expected)
                   for block in blocks)


class TestCloseContract:
    def test_close_is_idempotent(self, archive_path):
        dataset = SAGeDataset.open(archive_path)
        dataset.decode_block(0)
        dataset.close()
        dataset.close()
        dataset.close()
        assert dataset.closed

    def test_concurrent_close_from_many_threads(self, archive_path):
        dataset = SAGeDataset.open(archive_path)
        errors = []
        barrier = threading.Barrier(8)

        def closer():
            try:
                barrier.wait(timeout=10)
                dataset.close()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors

    def test_decode_after_close_raises_typed(self, archive_path):
        dataset = SAGeDataset.open(archive_path)
        dataset.close()
        with pytest.raises(ValueError, match="closed"):
            dataset.decode_block(0)

    def test_archive_access_after_archive_close(self, archive_path):
        dataset = SAGeDataset.open(archive_path)
        archive = dataset.archive
        dataset.close()
        # Unparsed blocks are gone, and say so through the taxonomy.
        with pytest.raises(ContainerError, match="no payload"):
            archive.block(1)

    def test_close_races_inflight_decodes(self, archive_path):
        """Closing mid-decode never crashes: every worker either
        finishes with correct bytes or fails with a typed error."""
        expected = _serial_blocks(archive_path, "numpy")
        dataset = SAGeDataset.open(archive_path)
        decoder = dataset.decompressor()
        n_blocks = len(expected)
        outcomes = []
        crashes = []
        start = threading.Barrier(5)

        def worker():
            try:
                start.wait(timeout=10)
                for lap in range(50):
                    i = lap % n_blocks
                    try:
                        text = fastq.write(decoder.decompress_block(i))
                    except (SAGeError, ValueError):
                        # Typed failure (ContainerError "archive
                        # closed", BlockDecodeError, or the session
                        # guard): the sanctioned race outcome.
                        outcomes.append("typed-error")
                        return
                    assert text == expected[i]
                    outcomes.append("ok")
            except BaseException as exc:  # pragma: no cover
                crashes.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        start.wait(timeout=10)
        dataset.close()
        for t in threads:
            t.join(timeout=60)
        assert not crashes
        assert outcomes              # somebody did something

    def test_close_with_live_payload_view(self, archive_path):
        """A payload view exported at close time must not break close
        (the mapping is left to the garbage collector)."""
        dataset = SAGeDataset.open(archive_path)
        archive = dataset.archive
        view = archive._checked_payload(0, archive.block_index()[0])
        assert isinstance(view, memoryview)
        sample = bytes(view[:16])
        dataset.close()              # must not raise BufferError
        dataset.close()
        # The exported view stays readable until released.
        assert bytes(view[:16]) == sample
        view.release()
