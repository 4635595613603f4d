"""Block-based streaming compression engine.

SAGe's hardware gets its throughput from striping *independent* archive
sections across SSD channels and decoding them in parallel (§5.3–5.4).
This module is the software analog: a read stream is partitioned into
blocks of ``options.block_reads`` reads (``0`` = one block; a caller's
pre-chunked stream is taken as is), each block is compressed independently
by :meth:`SAGeCompressor.compress_block
<repro.core.compressor.SAGeCompressor.compress_block>`, and the
resulting :class:`~repro.core.container.SAGeBlock` sections are
assembled into one :class:`~repro.core.container.SAGeArchive` by
:meth:`SAGeCompressor.assemble
<repro.core.compressor.SAGeCompressor.assemble>`.

Because blocks are independent, compression parallelizes across worker
processes — and because each block is a pure function of
``(consensus, config, reads)`` and results are merged in block order,
the archive produced with ``workers=N`` is byte-identical to the one
produced with ``workers=1``.

The engine never materializes the full dataset: it accepts any iterable
of reads or pre-chunked :class:`~repro.genomics.reads.ReadSet` batches
(e.g. :func:`repro.genomics.fastq.iter_read_sets`), and keeps at most a
bounded window of blocks in flight.
"""

from __future__ import annotations

import warnings
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

import numpy as np

from ..genomics.reads import ReadSet
from ..mapping.kmer_index import KmerIndex
from .compressor import SAGeCompressor, SAGeConfig
from .container import SAGeArchive, SAGeBlock
from .options import EngineOptions

__all__ = ["BlockCompressor", "imap_bounded"]


#: The worker process's compressor, built once by the pool initializer
#: from the parent's (consensus, config, k-mer index) — so per-chunk
#: submissions ship only the chunk, not the genome, and the consensus is
#: indexed once in the parent, not once per worker.
_worker_compressor: SAGeCompressor | None = None


def _init_worker(consensus: np.ndarray, config: SAGeConfig,
                 index: KmerIndex) -> None:
    """Pool initializer: receive the shared inputs once per process."""
    global _worker_compressor
    _worker_compressor = SAGeCompressor(consensus, config,
                                        shared_index=index)


def _compress_chunk_pooled(chunk: ReadSet) -> SAGeBlock:
    """Process-pool entry point; uses the initializer-built compressor."""
    if _worker_compressor is None:
        raise RuntimeError("worker initializer did not run")
    return _worker_compressor.compress_block(chunk)


def imap_bounded(executor: Executor, fn: Callable, items: Iterable,
                 window: int,
                 depth_probe: Callable[[int], None] | None = None,
                 failure: Callable[[int, BaseException], object] | None
                 = None) -> Iterator:
    """``executor.map`` with a bounded number of in-flight futures.

    Preserves submission order, so merged results are independent of
    completion order — and the input iterator is consumed lazily, so a
    streaming source is never materialized.  ``depth_probe`` (if given)
    is called with the in-flight queue depth after every submission; the
    streaming decode executor uses it to record peak queue depth.

    ``failure`` (if given) is called with ``(index, exception)`` when a
    slot raises, and its return value is yielded in place of the lost
    result, so one bad item cannot kill the whole stream.  Without it,
    the exception propagates.  There is no per-slot timeout: a process
    task that is already running cannot be cancelled, and leaving the
    pool waits for it anyway.
    """
    pending: deque = deque()
    yielded = 0

    def drain_one():
        nonlocal yielded
        future = pending.popleft()
        index = yielded
        yielded += 1
        try:
            return future.result()
        except Exception as exc:
            if failure is None:
                raise
            return failure(index, exc)

    for item in items:
        pending.append(executor.submit(fn, item))
        if depth_probe is not None:
            depth_probe(len(pending))
        if len(pending) >= window:
            yield drain_one()
    while pending:
        yield drain_one()


class BlockCompressor:
    """Compresses a read stream into an archive of one or more blocks.

    Parameters
    ----------
    consensus:
        The consensus sequence (A/C/G/T codes) all blocks map against.
    config:
        Shared :class:`SAGeConfig`; never mutated.  It ships whole to
        the worker processes (its ``mapper_kernel`` picks the mapper
        there as here), and every worker count produces a
        byte-identical archive.
    options:
        :class:`~repro.core.options.EngineOptions` supplying the block
        partition size (``block_reads``; ``0`` = one block) and
        compression ``workers``.  ``1`` worker keeps everything
        in-process (the deterministic reference path); higher values use
        a :class:`concurrent.futures.ProcessPoolExecutor` and produce a
        byte-identical archive.
    """

    def __init__(self, consensus: np.ndarray,
                 config: SAGeConfig | None = None, *,
                 options: EngineOptions | None = None):
        options = options if options is not None else EngineOptions()
        self.consensus = np.asarray(consensus, dtype=np.uint8)
        self.config = config or SAGeConfig()
        self.options = options
        self.block_reads = options.block_reads
        self.workers = options.workers
        self._compressor = SAGeCompressor(self.consensus, self.config)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def compress(self, reads: ReadSet | Iterable[ReadSet]) -> SAGeArchive:
        """Compress a read set or a stream of pre-chunked read sets.

        A :class:`ReadSet` is partitioned into ``block_reads``-sized
        blocks (one block when ``block_reads`` is ``0``); any other
        iterable is treated as already chunked — each yielded
        :class:`ReadSet` becomes one block (the contract of
        :func:`repro.genomics.fastq.iter_read_sets`).  The header
        records ``block_reads`` as given either way.
        """
        name = ""
        chunks: Iterable[ReadSet] = reads
        if isinstance(reads, ReadSet):
            name = reads.name
            n = self.block_reads or max(len(reads), 1)
            chunks = (reads.subset(range(lo, min(lo + n, len(reads))))
                      for lo in range(0, len(reads), n))
        blocks, name = self._compress_chunks(chunks, name)
        archive = self._compressor.assemble(blocks, name=name)
        archive.block_reads = self.block_reads     # header field only
        return archive

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _compress_chunks(self, chunks: Iterable[ReadSet],
                         name: str) -> tuple[list[SAGeBlock], str]:
        first_names: list[str] = []

        def named(iterable: Iterable[ReadSet]) -> Iterator[ReadSet]:
            for chunk in iterable:
                if not first_names and chunk.name:
                    first_names.append(chunk.name)
                yield chunk

        source = named(chunks)
        compress = self._compressor.compress_block
        if self.workers == 1:
            blocks = [compress(c) for c in source]
        else:
            blocks = self._compress_parallel(source)
        if not blocks:
            # An empty input still yields a well-formed one-block archive.
            blocks = [compress(ReadSet([], name=name))]
        return blocks, name or (first_names[0] if first_names else "")

    def _compress_parallel(self,
                           chunks: Iterator[ReadSet]) -> list[SAGeBlock]:
        head = list(islice(chunks, 2))
        if len(head) < 2:
            # One block: nothing to parallelise, so no pool is started.
            return [self._compressor.compress_block(c) for c in head]
        chunks = chain(head, chunks)
        try:
            executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_init_worker,
                initargs=(self.consensus, self.config,
                          self._compressor.shared_kmer_index()))
        except (OSError, PermissionError) as exc:   # pragma: no cover
            warnings.warn(f"process pool unavailable ({exc}); "
                          "falling back to serial block compression",
                          RuntimeWarning, stacklevel=3)
            return [self._compressor.compress_block(c) for c in chunks]
        with executor:
            return list(imap_bounded(executor, _compress_chunk_pooled,
                                     chunks, self.options.window))
