"""Block-based streaming compression engine.

SAGe's hardware gets its throughput from striping *independent* archive
sections across SSD channels and decoding them in parallel (§5.3–5.4).
This module is the software analog: a read stream is partitioned into
blocks of ``block_reads`` reads, each block is compressed independently
with the per-read planning/encoding machinery of
:class:`~repro.core.compressor.SAGeCompressor`, and the resulting
:class:`~repro.core.container.SAGeBlock` sections are assembled into one
``VERSION = 3`` :class:`~repro.core.container.SAGeArchive` with a
top-level block index.

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
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from ..genomics.reads import ReadSet, partition_reads
from ..mapping.kmer_index import KmerIndex
from ..mapping.mapper import MapperConfig
from .compressor import SAGeCompressor, SAGeConfig
from .container import SAGeArchive, SAGeBlock
from .formats import pack_bits
from .mismatch import SizeBreakdown
from .options import INFLIGHT_PER_WORKER, EngineOptions

__all__ = ["BlockCompressor", "BlockDescriptor", "block_from_archive",
           "compress_blocked", "imap_bounded", "partition_reads"]


class BlockDescriptor(NamedTuple):
    """Locates one block's payload inside an archive file.

    The zero-copy IPC unit of the streaming decode engine: instead of
    pickling a multi-megabyte payload to a pooled worker, the parent
    ships this ~tens-of-bytes descriptor and the worker slices the
    payload out of its own ``mmap`` of the archive (opened once in the
    pool initializer, which also carries the file path).  ``crc32`` is
    the stored payload digest (``None`` on pre-v4 archives) — the worker
    verifies it against the mapped view before decoding, so damage is
    detected with the same typed errors as the in-parent path.
    """

    index: int
    offset: int
    nbytes: int
    crc32: int | None


#: Per-process compressor memo, keyed by *identity* of the consensus and
#: config objects (cheap, and both are stable across a run: the parent
#: passes the engine's own objects; workers receive them once via the
#: pool initializer).  Reusing the compressor reuses its k-mer index
#: across blocks instead of rebuilding it per block.
_chunk_compressor: tuple[np.ndarray, SAGeConfig, SAGeCompressor] | None \
    = None

#: (consensus, config, shared k-mer index) installed in each worker by
#: the pool initializer, so per-chunk submissions ship only the chunk,
#: not the genome — and the consensus is indexed once in the parent, not
#: once per worker.
_worker_state: tuple[np.ndarray, SAGeConfig, KmerIndex | None] | None = None


def _compress_chunk(consensus: np.ndarray, config: SAGeConfig,
                    chunk: ReadSet,
                    index: KmerIndex | None = None) -> SAGeBlock:
    """Compress one block of reads.

    Pure function of its arguments; determinism here is what makes
    parallel and serial compression byte-identical.  ``index`` optionally
    injects a prebuilt consensus k-mer index (unpickling one does not
    rebuild it, so workers inherit the parent's single build).
    """
    global _chunk_compressor
    memo = _chunk_compressor
    if memo is None or memo[0] is not consensus or memo[1] is not config:
        memo = (consensus, config,
                SAGeCompressor(consensus, config, shared_index=index))
        _chunk_compressor = memo
    archive = memo[2].compress(chunk)
    return block_from_archive(archive)


def _init_worker(consensus: np.ndarray, config: SAGeConfig,
                 index: KmerIndex | None = None) -> None:
    """Pool initializer: receive the shared inputs once per process."""
    global _worker_state
    _worker_state = (consensus, config, index)


def _compress_chunk_pooled(chunk: ReadSet) -> SAGeBlock:
    """Process-pool entry point; reads the initializer-installed state."""
    assert _worker_state is not None, "worker initializer did not run"
    consensus, config, index = _worker_state
    return _compress_chunk(consensus, config, chunk, index)


def block_from_archive(archive: SAGeArchive) -> SAGeBlock:
    """Strip a flat archive down to its per-block section."""
    return archive._as_block()


def imap_bounded(executor: Executor, fn: Callable, items: Iterable,
                 window: int,
                 depth_probe: Callable[[int], None] | None = None,
                 timeout: float | None = None,
                 failure: Callable[[int, BaseException], object] | None
                 = None) -> Iterator:
    """``executor.map`` with a bounded number of in-flight futures.

    Preserves submission order, so merged results are independent of
    completion order — and the input iterator is consumed lazily, so a
    streaming source is never materialized.  ``depth_probe`` (if given)
    is called with the in-flight queue depth after every submission; the
    streaming decode executor uses it to record peak queue depth.

    ``timeout`` bounds the wait for each future (seconds); a slot that
    does not finish in time fails with
    :class:`concurrent.futures.TimeoutError`.  ``failure`` (if given)
    is called with ``(index, exception)`` when a slot fails — whether by
    raising or by timeout — and its return value is yielded in place of
    the lost result, so one bad item cannot kill the whole stream.
    Without it, the exception propagates (historical behaviour).
    """
    pending: deque = deque()
    yielded = 0

    def drain_one():
        nonlocal yielded
        future = pending.popleft()
        index = yielded
        yielded += 1
        try:
            return future.result(timeout)
        except Exception as exc:
            if failure is None:
                raise
            future.cancel()
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
    """Compresses a read stream into a blocked v3 archive.

    Parameters
    ----------
    consensus:
        The consensus sequence (A/C/G/T codes) all blocks map against.
    config:
        Shared :class:`SAGeConfig`; never mutated.  Its ``codec`` field
        selects the encode kernel (:mod:`repro.core.kernels`) and ships
        to the worker processes with the rest of the config — every
        kernel (and every worker count) produces a byte-identical
        archive.
    options:
        :class:`~repro.core.options.EngineOptions` supplying the block
        partition size (``effective_block_reads``) and compression
        ``workers``.  ``1`` worker keeps everything in-process (the
        deterministic reference path); higher values use a
        :class:`concurrent.futures.ProcessPoolExecutor` and produce a
        byte-identical archive.
    """

    def __init__(self, consensus: np.ndarray,
                 config: SAGeConfig | None = None, *,
                 options: EngineOptions | None = None):
        options = options if options is not None else EngineOptions()
        self.consensus = np.asarray(consensus, dtype=np.uint8)
        self.config = config or SAGeConfig()
        self.options = options
        self.block_reads = options.effective_block_reads
        self.workers = options.workers
        self._index: KmerIndex | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def compress(self, reads: ReadSet | Iterable[ReadSet]) -> SAGeArchive:
        """Compress a read set or a stream of pre-chunked read sets.

        A :class:`ReadSet` is partitioned into ``block_reads``-sized
        blocks; any other iterable is treated as already chunked — each
        yielded :class:`ReadSet` becomes one block (the contract of
        :func:`repro.genomics.fastq.iter_read_sets`).
        """
        if isinstance(reads, ReadSet):
            name = reads.name
            chunks: Iterable[ReadSet] = partition_reads(
                iter(reads), self.block_reads, name=name)
        else:
            name = ""
            chunks = reads
        blocks, name = self._compress_chunks(chunks, name)
        return self._assemble(blocks, name)

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
        if self.workers == 1:
            blocks = [_compress_chunk(self.consensus, self.config, c)
                      for c in source]
        else:
            blocks = self._compress_parallel(source)
        if not blocks:
            # An empty input still yields a well-formed one-block archive.
            blocks = [_compress_chunk(self.consensus, self.config,
                                      ReadSet([], name=name))]
        return blocks, name or (first_names[0] if first_names else "")

    def _shared_index(self) -> KmerIndex:
        """Consensus k-mer index, built once per archive in the parent."""
        if self._index is None:
            mapper_cfg = self.config.mapper or MapperConfig()
            self._index = KmerIndex(
                self.consensus, k=mapper_cfg.k,
                max_occurrences=mapper_cfg.max_occurrences)
        return self._index

    def _compress_parallel(self,
                           chunks: Iterator[ReadSet]) -> list[SAGeBlock]:
        window = self.workers * INFLIGHT_PER_WORKER
        try:
            executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_init_worker,
                initargs=(self.consensus, self.config,
                          self._shared_index()))
        except (OSError, PermissionError) as exc:   # pragma: no cover
            warnings.warn(f"process pool unavailable ({exc}); "
                          "falling back to serial block compression",
                          RuntimeWarning, stacklevel=3)
            return [_compress_chunk(self.consensus, self.config, c)
                    for c in chunks]
        with executor:
            return list(imap_bounded(executor, _compress_chunk_pooled,
                                     chunks, window))

    def _assemble(self, blocks: list[SAGeBlock],
                  name: str) -> SAGeArchive:
        consensus_payload = pack_bits(self.consensus, 2)
        consensus_stream = (consensus_payload, 8 * len(consensus_payload))
        fixed_lengths = {b.fixed_read_length for b in blocks
                         if b.n_reads and b.fixed_length}
        fixed_length = (all(b.fixed_length for b in blocks)
                        and len(fixed_lengths) <= 1)
        fixed_read_length = fixed_lengths.pop() \
            if (fixed_length and len(fixed_lengths) == 1) else 0
        w_cons = max(1, int(self.consensus.size).bit_length())
        archive = SAGeArchive(
            level=self.config.level,
            long_reads=any(b.long_reads for b in blocks),
            fixed_length=fixed_length,
            fixed_read_length=fixed_read_length,
            n_mapped=sum(b.n_mapped for b in blocks),
            n_unmapped=sum(b.n_unmapped for b in blocks),
            consensus_length=int(self.consensus.size),
            w_rlen=max(b.w_rlen for b in blocks),
            w_cons=w_cons, tables={},
            streams={"consensus": consensus_stream},
            preserve_order=self.config.preserve_order,
            blocks=list(blocks), block_reads=self.block_reads,
            breakdown=_merge_breakdowns(blocks), name=name)
        archive.breakdown.charge(
            "header", 8 * archive.header_bytes_estimate())
        return archive


def _merge_breakdowns(blocks: list[SAGeBlock]) -> SizeBreakdown:
    """Sum per-block Fig. 17 breakdowns into an archive-level one.

    The consensus is stored once in the container, so its bits are
    counted from the first block only; per-block header charges are
    dropped (the caller re-charges the real container header).
    """
    merged = SizeBreakdown()
    for i, block in enumerate(blocks):
        for category, bits in block.breakdown.bits.items():
            if category == "header":
                continue
            if category == "consensus" and i > 0:
                continue
            merged.charge(category, bits)
    return merged


def compress_blocked(reads: ReadSet | Iterable[ReadSet],
                     consensus: np.ndarray,
                     config: SAGeConfig | None = None, *,
                     options: EngineOptions | None = None) -> SAGeArchive:
    """One-shot convenience wrapper around :class:`BlockCompressor`.

    Always produces a blocked archive (``options.block_reads == 0``
    means :data:`~repro.core.options.DEFAULT_BLOCK_READS`).
    """
    return BlockCompressor(consensus, config, options=options) \
        .compress(reads)
