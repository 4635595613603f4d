"""Overlapped streaming execution engine: parallel block decode feeding
pipelined analysis sinks.

SAGe's central claim is that data preparation must *overlap* with
analysis instead of serializing in front of it (§7): while batch *i* is
being decompressed, the consumer analyzes batch *i−1*.  The analytical
pipeline simulator (:mod:`repro.pipeline.stages`) models that overlap;
this module executes it in software.

A :class:`StreamExecutor` decodes the independently decodable blocks of
a :class:`~repro.core.container.SAGeArchive` through a pluggable
backend (serial / process pool) with a bounded window —
the same ``EngineOptions.window`` backpressure loop as block
compression, :func:`repro.core.blocks.imap_bounded` — and delivers each
block strictly in index order, so the concatenated output is
byte-identical to a serial decode.  Consumers attach through the
:class:`Sink` protocol: while a sink processes block *i*, blocks
*i+1 … i+window* are already decoding in the workers.

A block leaves the process that decoded it in the form its sinks take
(SAGe returns reads in the consumer's format, §5.4): rendered FASTQ
bytes for a sink declaring :data:`FASTQ`, columns for any other.  The
process pool is the process's, not a pass's: one per worker count,
started by the first pooled pass, reused by every later one, replaced
when broken and forgotten by a forked child.  A task names the archive
file and one block, and a worker keeps the archive of its latest task
open; an archive with no file behind it decodes in the parent.

Memory stays bounded: at most ``workers * INFLIGHT_PER_WORKER`` blocks
are in flight, and the peak observed queue depth is recorded in
:class:`ExecutorStats` so tests and benchmarks can assert that the full
dataset is never materialized.
"""

from __future__ import annotations

import io
import os
import pickle
import threading
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, NamedTuple, Protocol, runtime_checkable

from ..core.blocks import imap_bounded
from ..core.container import SAGeArchive
from ..core.decompressor import SAGeDecompressor
from ..core.errors import BlockDecodeError, SAGeError
from ..core.kernels import available_kernels
from ..core.options import BACKENDS, EngineOptions
from ..core.selection import STREAM_GROUPS, StreamSelection, \
    decoded_stream_bits
from ..genomics import fastq
from ..genomics.reads import ReadSet

__all__ = ["BACKENDS", "BlockGap", "CollectSink", "ExecutorStats",
           "FASTQ", "FastqBlock", "FastqSink", "Sink", "StreamExecutor",
           "decode_block"]

#: A ``requires`` entry: the sink takes each block rendered, as a
#: :class:`FastqBlock`, which needs every stream group.
FASTQ = "fastq"


class FastqBlock(NamedTuple):
    """A block as a sink declaring :data:`FASTQ` receives it."""

    fastq: bytes        # the block's records, ASCII
    n_reads: int


@dataclass(frozen=True)
class BlockGap:
    """Marker for a block lost to corruption under ``on_error="skip"``.

    Ordered output stays well-defined in the presence of failures: the
    gap records which block is missing, how many reads it held (from the
    block index, so downstream naming/offsets stay stable), and the
    error that killed it.  Sinks receive gaps through their optional
    ``consume_gap`` hook.
    """

    index: int
    n_reads: int
    error: Exception

    @property
    def message(self) -> str:
        return str(self.error)


@dataclass
class ExecutorStats:
    """Accounting from one streaming pass over an archive."""

    blocks: int = 0
    reads: int = 0
    bases: int = 0
    peak_inflight: int = 0      # peak decoded-block queue depth
    blocks_failed: int = 0      # blocks lost after any retry
    blocks_retried: int = 0     # pool failures re-decoded in the parent
    blocks_skipped: int = 0     # failed blocks turned into gaps
    gaps: list = field(default_factory=list)   # BlockGap per lost block
    #: Pickled task bytes submitted to pooled workers: about
    #: ``len(path) + 45`` per block (a task names the file).
    bytes_shipped: int = 0
    #: Stream bits actually decoded, per stream group (see
    #: :data:`repro.core.selection.STREAM_GROUPS`).  What makes
    #: selective-decode savings observable rather than inferred.
    streams_decoded: dict = field(default_factory=dict)

    def note_depth(self, depth: int) -> None:
        self.peak_inflight = max(self.peak_inflight, depth)

    def note_streams(self, bits: "dict[str, int] | None") -> None:
        if bits:
            for group, n in bits.items():
                self.streams_decoded[group] = \
                    self.streams_decoded.get(group, 0) + n

    @property
    def stream_bits_total(self) -> int:
        """All stream bits decoded across groups in this pass."""
        return sum(self.streams_decoded.values())


@runtime_checkable
class Sink(Protocol):
    """A pipelined consumer of decoded blocks.

    ``consume`` is called once per block, in index order, while later
    blocks are still decoding in the executor's workers; ``finish`` is
    called after the last block and returns the sink's result.  Sinks
    may additionally define ``consume_gap(gap: BlockGap)`` to observe
    blocks lost under ``on_error="skip"``; sinks without the
    hook simply never see the lost block.

    A block *is* its columns — ``codes``, ``offsets``, ``quality`` (or
    ``None``), ``headers`` — and a sink computes from those
    (``block.read_codes()`` hands a mapper its per-read slices); the
    :class:`~repro.genomics.reads.Read` views a block also hands out
    are a convenience for user callables.

    Sinks may also declare ``requires`` — a tuple of stream group names
    (:data:`repro.core.selection.STREAM_GROUPS`) naming what they
    actually consume.  :meth:`StreamExecutor.run` decodes only the
    union of the attached sinks' declarations, so an aggregate sink
    never pays for quality or header decode it will not read.  Sinks
    without the attribute (or declaring ``None``) conservatively
    request everything.  That union is the one statement of what a
    pass decodes.  A sink declaring :data:`FASTQ` instead receives each
    block as a :class:`FastqBlock` — its FASTQ bytes, rendered where
    the block decoded, and its read count.
    """

    def consume(self, index: int, block: ReadSet) -> None:
        ...  # pragma: no cover - protocol

    def finish(self) -> object:
        ...  # pragma: no cover - protocol


def _takes_fastq(sink) -> bool:
    requires = getattr(sink, "requires", None)
    return isinstance(requires, (tuple, list)) and FASTQ in requires


class _Plan(NamedTuple):
    """What a pass decodes, and the forms each block comes back in."""

    select: StreamSelection
    render: bool        # FASTQ bytes, for the sinks declaring FASTQ
    columns: bool       # the ReadSet, for every other sink

    @classmethod
    def of(cls, sinks) -> "_Plan":
        """The union of the sinks' ``requires``; no sink asks for every
        group, as columns."""
        select = StreamSelection.none() if sinks \
            else StreamSelection.all_streams()
        for sink in sinks:
            select = select.union(StreamSelection.all_streams()
                                  if _takes_fastq(sink) else
                                  StreamSelection.from_spec(
                                      getattr(sink, "requires", None)))
        rendered = sum(map(_takes_fastq, sinks))
        return cls(select, rendered > 0, rendered < max(1, len(sinks)))


class _Decoded(NamedTuple):
    """One decoded block, in the forms its pass asked for."""

    reads: "ReadSet | None"
    fastq: "bytes | None"
    n_reads: int
    n_bases: int
    stream_bits: "dict[str, int]"


def decode_block(decoder: SAGeDecompressor, index: int,
                 select: StreamSelection, render: bool = False,
                 columns: bool = True) -> _Decoded:
    """Decode block ``index``'s ``select`` groups on ``decoder``, with
    stream-bit accounting: its reads if ``columns``, its FASTQ bytes if
    ``render`` (the fields of a :class:`_Plan`).

    The one per-block decode: what every backend runs — in the parent
    or in a pool worker — and what random access
    (``SAGeDataset.decode_block``, ``sage cat --block``, a ``sage
    serve`` miss) runs, which is what keeps every one of them
    byte-identical to the serial pass: FASTQ numbers the reads from the
    block's index entry, wherever it renders.  The block's parsed form
    is released afterwards, so a whole-archive pass keeps O(window)
    parsed blocks in memory, not O(n_blocks), and random access
    accumulates none.
    """
    archive = decoder.archive
    try:
        reads = decoder.decompress_block(index, select=select)
        body = fastq.render(reads, archive.block_index()[index].first_read) \
            if render else None
        return _Decoded(reads if columns else None, body, len(reads),
                        reads.total_bases,
                        decoded_stream_bits(archive.block(index), select))
    finally:
        archive.release_block(index)


# ----------------------------------------------------------------------
# Process-pool plumbing.  A task is a plain tuple, pickled per block:
# (path, hash of the file identity, archive name, position of the codec
# in available_kernels(), selected groups as a bit mask over
# STREAM_GROUPS, render, columns, block index).  These forms keep a task
# a few dozen bytes beyond its path, a small fraction of even a
# kilobyte block (pickled as a _Plan, the plan alone is ~150 bytes).
# ----------------------------------------------------------------------

#: The process's decode pools, by worker count.
_pools: "dict[int, ProcessPoolExecutor]" = {}
_pools_lock = threading.Lock()

#: A pool worker's open archive: the ``((path, identity, codec),
#: decoder)`` of its latest task, closed when a task names another.
_worker_decoder: "tuple[tuple, SAGeDecompressor] | None" = None


def _shared_pool(size: int, broken: "ProcessPoolExecutor | None" = None
                 ) -> ProcessPoolExecutor:
    """The process's pool of ``size`` workers, started on first use;
    ``broken`` (a pool a worker crash broke) is replaced unless another
    thread already did."""
    with _pools_lock:
        pool = _pools.get(size)
        if pool is None or pool is broken:
            pool = _pools[size] = ProcessPoolExecutor(max_workers=size)
    if broken is not None:
        broken.shutdown(wait=False, cancel_futures=True)
    return pool


def _forget_pools() -> None:
    global _pools_lock
    _pools.clear()
    _pools_lock = threading.Lock()


# A forked child does not own its parent's pools.
os.register_at_fork(after_in_child=_forget_pools)


def _decode_task(task: tuple) -> _Decoded:
    """Process-pool entry point: one block of the file ``task`` names.

    The worker keeps one archive open, its latest task's.  A worker that
    cannot open the file, or finds another file at the path (replaced
    since the parent mapped it), raises a typed error and the parent
    rescues the block from its own mapping.
    """
    global _worker_decoder
    path, identity, name, kernel, groups, render, columns, index = task
    key = (path, identity, kernel)
    if _worker_decoder is None or _worker_decoder[0] != key:
        if _worker_decoder is not None:
            _worker_decoder[1].archive.close()
            _worker_decoder = None
        try:
            archive = SAGeArchive.open(path)
        except (OSError, SAGeError) as exc:
            raise BlockDecodeError(f"worker could not open the archive "
                                   f"({exc})", block_index=index) from exc
        if hash(archive.file_identity) != identity:
            archive.close()
            raise BlockDecodeError("archive file replaced since the "
                                   "session opened it", block_index=index)
        _worker_decoder = (key, SAGeDecompressor(
            archive, codec=available_kernels()[kernel]))
    decoder = _worker_decoder[1]
    decoder.archive.name = name             # not serialized; names reads
    select = StreamSelection.of(*(group for bit, group in enumerate(
        STREAM_GROUPS) if groups >> bit & 1))
    return decode_block(decoder, index, select, render, columns)


class StreamExecutor:
    """Decodes an archive's blocks with a bounded window, in order.

    Parameters
    ----------
    archive:
        The archive to decode.  A one-block archive has nothing to
        overlap, and one with no file has nothing a worker could open:
        both decode serially.  A pooled pass runs on the process's pool
        of ``options.workers`` workers, which outlives the pass; each
        worker, idle or not, keeps the archive file of its latest task
        mapped until a task names another file.
    options:
        :class:`~repro.core.options.EngineOptions` supplying ``workers``
        (decode parallelism; ``1`` is the serial reference path),
        ``backend`` (one of :data:`BACKENDS`; ``auto`` selects
        ``serial`` for one worker and ``process`` otherwise); the
        decode window is ``options.window`` and memory is bounded by
        that many blocks.
    decompressor:
        The in-parent decoder of the pass (a session passes its cached
        one); without it one is built on ``options.codec``.
    """

    def __init__(self, archive: SAGeArchive, *,
                 options: EngineOptions | None = None,
                 decompressor: SAGeDecompressor | None = None):
        options = options if options is not None else EngineOptions()
        self.archive = archive
        self.options = options
        self._decompressor = decompressor
        self.stats = ExecutorStats()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def window(self) -> int:
        """Maximum blocks in flight (submitted but not yet consumed)."""
        return self.options.window

    @property
    def resolved_backend(self) -> str:
        """The backend this configuration actually executes with."""
        if self.archive.n_blocks == 1 or not self.archive.file_backed:
            return "serial"
        if self.options.backend != "auto":
            return self.options.backend
        return "serial" if self.options.workers == 1 else "process"

    def decompressor(self) -> SAGeDecompressor:
        """The in-parent decoder of this pass."""
        if self._decompressor is None:
            self._decompressor = SAGeDecompressor(
                self.archive, codec=self.options.codec)
        return self._decompressor

    def __iter__(self) -> Iterator[ReadSet]:
        """Yield each block's reads, every stream group decoded, in
        index order.

        Statistics of the pass accumulate in :attr:`stats` (reset at the
        start of every iteration).  Under ``on_error="skip"``
        blocks lost to corruption are omitted here; their
        :class:`BlockGap` records accumulate in ``stats.gaps`` (and are
        delivered to sinks in :meth:`run`).
        """
        for _index, item in self._iter_indexed(_Plan.of(())):
            if isinstance(item, _Decoded):
                yield item.reads

    def run(self, *sinks: Sink) -> list:
        """Drive the stream through ``sinks`` and collect their results.

        Each decoded block is handed to every sink in order (as a
        :class:`FastqBlock` to a sink declaring :data:`FASTQ`); with
        ``workers > 1`` the sinks process block *i* while blocks
        *i+1 … i+window* are still decoding — the software realization
        of the paper's prep/analysis overlap.  A block lost under
        ``on_error="skip"`` reaches each sink's optional
        ``consume_gap`` hook instead, so ordered consumers can account
        for the hole.  What is decoded: the union of the sinks'
        ``requires``.
        """
        if not sinks:
            raise ValueError("need at least one sink")
        rendered = [_takes_fastq(sink) for sink in sinks]
        for index, item in self._iter_indexed(_Plan.of(sinks)):
            if isinstance(item, BlockGap):
                for sink in sinks:
                    hook = getattr(sink, "consume_gap", None)
                    if hook is not None:
                        hook(item)
                continue
            for sink, as_fastq in zip(sinks, rendered):
                sink.consume(index, FastqBlock(item.fastq, item.n_reads)
                             if as_fastq else item.reads)
        return [sink.finish() for sink in sinks]

    # ------------------------------------------------------------------
    # Backends
    # ------------------------------------------------------------------

    def _iter_indexed(self, plan: _Plan
                      ) -> Iterator[tuple[int, "_Decoded | BlockGap"]]:
        """Yield ``(block_index, _Decoded | BlockGap)`` in index order."""
        self.stats = ExecutorStats()
        if self.resolved_backend == "serial":
            source = self._iter_serial(plan)
        else:
            source = self._iter_process(plan)
        yield from enumerate(source)

    def _account(self, item: "_Decoded | BlockGap") -> "_Decoded | BlockGap":
        if isinstance(item, _Decoded):
            self.stats.note_streams(item.stream_bits)
            self.stats.blocks += 1
            self.stats.reads += item.n_reads
            self.stats.bases += item.n_bases
        return item

    def _resolve_failure(self, index: int, exc: Exception, *,
                         pooled: bool, plan: _Plan) -> "_Decoded | BlockGap":
        """Apply the retry + ``on_error`` policy to one failed block.

        ``pooled`` marks a failure from a worker pool (a worker crash, a
        broken pool, a worker that could not open the archive file or
        found another file at its path): that block is re-decoded
        exactly once in the parent, from its own mapping, by the
        :func:`decode_block` a serial pass runs.  The retry is that
        deterministic serial decode, so a second attempt could not
        succeed where it failed, and a failure that already happened
        serially is not retried at all.  A block still lost then follows
        the policy: ``"raise"`` propagates, ``"skip"`` returns a
        :class:`BlockGap`.
        """
        if pooled:
            self.stats.blocks_retried += 1
            try:
                return decode_block(self.decompressor(), index, *plan)
            except Exception as retry_exc:
                exc = retry_exc
        self.stats.blocks_failed += 1
        if self.options.on_error == "raise":
            raise exc
        gap = BlockGap(index, self.archive.block_index()[index].n_reads,
                       exc)
        self.stats.blocks_skipped += 1
        self.stats.gaps.append(gap)
        return gap

    def _iter_serial(self, plan: _Plan) -> Iterator["_Decoded | BlockGap"]:
        decoder = self.decompressor()
        for index in range(self.archive.n_blocks):
            self.stats.note_depth(1)
            try:
                item = decode_block(decoder, index, *plan)
            except Exception as exc:
                item = self._resolve_failure(index, exc, pooled=False,
                                             plan=plan)
            yield self._account(item)

    def _iter_process(self, plan: _Plan) -> Iterator["_Decoded | BlockGap"]:
        arch = self.archive
        try:
            pool = _shared_pool(self.options.workers)
        except OSError as exc:
            warnings.warn(f"process pool unavailable ({exc}); "
                          "falling back to serial block decode",
                          RuntimeWarning, stacklevel=2)
            yield from self._iter_serial(plan)
            return
        head = (str(arch.source_path), hash(arch.file_identity), arch.name,
                available_kernels().index(self.options.codec),
                sum(1 << bit for bit, group in enumerate(STREAM_GROUPS)
                    if getattr(plan.select, group)),
                plan.render, plan.columns)
        replaced = False

        def submit(index: int) -> Future:
            nonlocal pool, replaced
            task = head + (index,)
            self.stats.bytes_shipped += len(pickle.dumps(task))
            try:
                return pool.submit(_decode_task, task)
            except BrokenProcessPool:
                if replaced:        # one fresh pool per pass, no more
                    raise
                replaced = True
                pool = _shared_pool(self.options.workers, broken=pool)
                return pool.submit(_decode_task, task)

        failure = partial(self._resolve_failure, pooled=True, plan=plan)
        for item in imap_bounded(submit, range(arch.n_blocks), self.window,
                                 depth_probe=self.stats.note_depth,
                                 failure=failure):
            yield self._account(item)


# ----------------------------------------------------------------------
# Transport sinks (analysis sinks: repro.analysis.properties)
# ----------------------------------------------------------------------


class FastqSink:
    """Streams the archive to a handle as FASTQ, block by block.

    Blocks arrive rendered (:data:`FASTQ`), reads numbered from each
    block's index entry, so the output is ``fastq.write_file`` of the
    materialized dataset and names after a block lost under
    ``on_error="skip"`` do not shift.  A binary handle (an
    :class:`io.RawIOBase` or :class:`io.BufferedIOBase`, or one whose
    ``mode`` holds ``"b"``) receives the bytes; any other handle is
    taken as text and receives ``body.decode("ascii")``, the same
    characters.  :meth:`finish` returns the number of reads written.
    """

    requires = (FASTQ,)

    def __init__(self, handle):
        self.handle = handle
        mode = getattr(handle, "mode", "")
        self._binary = isinstance(handle, (io.RawIOBase, io.BufferedIOBase)) \
            or (isinstance(mode, str) and "b" in mode)
        self.n_reads = 0

    def consume(self, index: int, block: FastqBlock) -> None:
        self.handle.write(block.fastq if self._binary
                          else block.fastq.decode("ascii"))
        self.n_reads += block.n_reads

    def finish(self) -> int:
        return self.n_reads


class CollectSink:
    """Materializes the stream into one :class:`ReadSet` (for tests and
    consumers that genuinely need the whole dataset)."""

    #: Materialization must be byte-faithful: decode everything.
    requires = STREAM_GROUPS

    def __init__(self):
        self._blocks: list[ReadSet] = []
        self.gaps: list[BlockGap] = []

    def consume(self, index: int, block: ReadSet) -> None:
        self._blocks.append(block)

    def consume_gap(self, gap: BlockGap) -> None:
        self.gaps.append(gap)

    def finish(self) -> ReadSet:
        return ReadSet.concat(self._blocks)
