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
compression, :func:`repro.core.blocks.imap_bounded` — and yields each block's
:class:`~repro.genomics.reads.ReadSet` strictly in index order, so the
concatenated output is byte-identical to a serial decode.  Consumers
attach through the :class:`Sink` protocol: while a sink processes block
*i*, blocks *i+1 … i+window* are already decoding in the workers.

Memory stays bounded: at most ``workers * INFLIGHT_PER_WORKER`` blocks
are in flight, and the peak observed queue depth is recorded in
:class:`ExecutorStats` so tests and benchmarks can assert that the full
dataset is never materialized.
"""

from __future__ import annotations

import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, Protocol, runtime_checkable

from ..core.blocks import imap_bounded
from ..core.container import SAGeArchive
from ..core.decompressor import SAGeDecompressor
from ..core.errors import BlockDecodeError, SAGeError
from ..core.options import BACKENDS, EngineOptions
from ..core.selection import STREAM_GROUPS, StreamSelection, \
    decoded_stream_bits
from ..genomics import fastq
from ..genomics.reads import ReadSet

__all__ = ["BACKENDS", "BlockGap", "CollectSink", "ExecutorStats",
           "FastqSink", "Sink", "StreamExecutor"]


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
    #: IPC bytes submitted to pooled workers: a few bytes per block (a
    #: task is a bare block index) plus, for an archive that exists
    #: only in memory, its blob once per pool.
    bytes_shipped: int = 0
    #: Stream bits actually decoded, per stream group (see
    #: :data:`repro.core.selection.STREAM_GROUPS`).  What makes
    #: selective-decode savings observable rather than inferred.
    streams_decoded: dict = field(default_factory=dict)

    def note_depth(self, depth: int) -> None:
        self.peak_inflight = max(self.peak_inflight, depth)

    def note_shipped(self, nbytes: int) -> None:
        self.bytes_shipped += nbytes

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
    pass decodes.
    """

    def consume(self, index: int, block: ReadSet) -> None:
        ...  # pragma: no cover - protocol

    def finish(self) -> object:
        ...  # pragma: no cover - protocol


def _decode_block(decoder: SAGeDecompressor, index: int,
                  select: StreamSelection
                  ) -> "tuple[ReadSet, dict[str, int]]":
    """Decode one block on ``decoder``, with stream-bit accounting.

    What every backend runs per block — in the parent or in a pool
    worker — which is what keeps the parallel decode byte-identical to
    the serial one.  The block's parsed form is released afterwards, so
    a whole-archive pass over a blob-backed archive keeps O(window)
    parsed blocks in memory, not O(n_blocks).
    """
    archive = decoder.archive
    try:
        read_set = decoder.decompress_block(index, select=select)
        return read_set, decoded_stream_bits(archive.block(index), select)
    finally:
        archive.release_block(index)


# ----------------------------------------------------------------------
# Process-pool plumbing.  Every worker opens its own SAGeArchive once,
# in the pool initializer — the archive file when there is one (zero
# copy: workers page in only the blocks they decode), else a blob
# shipped once through initargs — and a task is a bare block index.
# ----------------------------------------------------------------------

#: (decoder, selection) installed by the pool initializer; stays
#: ``None`` in a worker that could not open the archive.
_decode_state: "tuple[SAGeDecompressor, StreamSelection] | None" = None


def _init_decode_worker(source: "str | bytes", name: str,
                        options: EngineOptions,
                        select: StreamSelection) -> None:
    """Pool initializer: open the archive and unpack the consensus once.

    ``select`` is the pass's stream selection.  A failed open (file
    moved/deleted between parent open and worker start) is not fatal
    here — tasks then raise a typed error and the parent's retry
    re-decodes the block serially from its own mapping.
    """
    global _decode_state
    try:
        archive = SAGeArchive.from_bytes(source) \
            if isinstance(source, bytes) else SAGeArchive.open(source)
    except (OSError, SAGeError):
        return
    archive.name = name                 # not serialized; names reads
    _decode_state = (SAGeDecompressor(archive, codec=options.codec), select)


def _decode_task(index: int) -> "tuple[ReadSet, dict[str, int]]":
    """Process-pool entry point; reads the initializer-installed state."""
    if _decode_state is None:
        raise BlockDecodeError("worker could not open the archive",
                               block_index=index)
    decoder, select = _decode_state
    return _decode_block(decoder, index, select)


class StreamExecutor:
    """Decodes an archive's blocks with a bounded window, in order.

    Parameters
    ----------
    archive:
        The archive to decode.  A one-block archive has nothing to
        overlap and is decoded serially.
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
        self.workers = options.workers
        self.backend = options.backend
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
        if self.archive.n_blocks == 1:
            return "serial"       # a single section has nothing to overlap
        if self.backend != "auto":
            return self.backend
        return "serial" if self.workers == 1 else "process"

    def decompressor(self) -> SAGeDecompressor:
        """The in-parent decoder of this pass."""
        if self._decompressor is None:
            self._decompressor = SAGeDecompressor(
                self.archive, codec=self.options.codec)
        return self._decompressor

    @staticmethod
    def selection_for(sinks: "list[Sink] | tuple[Sink, ...]" = ()
                      ) -> StreamSelection:
        """The stream groups a pass over ``sinks`` decodes: the union of
        their ``requires`` (a sink without one, or no sink, asks for
        everything)."""
        union = StreamSelection.none() if sinks \
            else StreamSelection.all_streams()
        for sink in sinks:
            union = union.union(StreamSelection.from_spec(
                getattr(sink, "requires", None)))
        return union

    def __iter__(self) -> Iterator[ReadSet]:
        """Yield each block's reads, every stream group decoded, in
        index order.

        Statistics of the pass accumulate in :attr:`stats` (reset at the
        start of every iteration).  Under ``on_error="skip"``
        blocks lost to corruption are omitted here; their
        :class:`BlockGap` records accumulate in ``stats.gaps`` (and are
        delivered to sinks in :meth:`run`).
        """
        for _index, item in self._iter_indexed(self.selection_for()):
            if isinstance(item, ReadSet):
                yield item

    def run(self, *sinks: Sink) -> list:
        """Drive the stream through ``sinks`` and collect their results.

        Each decoded block is handed to every sink in order; with
        ``workers > 1`` the sinks process block *i* while blocks
        *i+1 … i+window* are still decoding — the software realization
        of the paper's prep/analysis overlap.  A block lost under
        ``on_error="skip"`` reaches each sink's optional
        ``consume_gap`` hook instead, so ordered consumers can account
        for the hole.  What is decoded: :meth:`selection_for`.
        """
        if not sinks:
            raise ValueError("need at least one sink")
        for index, item in self._iter_indexed(self.selection_for(sinks)):
            if isinstance(item, BlockGap):
                for sink in sinks:
                    hook = getattr(sink, "consume_gap", None)
                    if hook is not None:
                        hook(item)
                continue
            for sink in sinks:
                sink.consume(index, item)
        return [sink.finish() for sink in sinks]

    # ------------------------------------------------------------------
    # Backends
    # ------------------------------------------------------------------

    def _iter_indexed(self, select: StreamSelection
                      ) -> Iterator[tuple[int, "ReadSet | BlockGap"]]:
        """Yield ``(block_index, ReadSet | BlockGap)`` in index order."""
        self.stats = ExecutorStats()
        if self.resolved_backend == "serial":
            source = self._iter_serial(select)
        else:
            source = self._iter_process(select)
        yield from enumerate(source)

    def _account(self, item) -> "ReadSet | BlockGap":
        if isinstance(item, tuple):
            # Decodes return (reads, per-group stream bits); a lost
            # block arrives as a bare gap.
            item, stream_bits = item
            self.stats.note_streams(stream_bits)
        if isinstance(item, ReadSet):
            self.stats.blocks += 1
            self.stats.reads += len(item)
            self.stats.bases += item.total_bases
        return item

    def _resolve_failure(self, index: int, exc: Exception, *,
                         pooled: bool, select: StreamSelection
                         ) -> "tuple[ReadSet, dict[str, int]] | BlockGap":
        """Apply the retry + ``on_error`` policy to one failed block.

        ``pooled`` marks a failure from a worker pool (a worker crash, a
        broken pool, a worker that could not open the archive): that
        block is re-decoded exactly once in the parent, by the same
        :func:`_decode_block` a serial pass runs.  The retry is that
        deterministic serial decode, so a second attempt could not
        succeed where it failed, and a failure that already happened
        serially is not retried at all.  A block still lost then follows
        the policy: ``"raise"`` propagates, ``"skip"`` returns a
        :class:`BlockGap`.
        """
        if pooled:
            self.stats.blocks_retried += 1
            try:
                return _decode_block(self.decompressor(), index, select)
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

    def _iter_serial(self, select: StreamSelection
                     ) -> Iterator["ReadSet | BlockGap"]:
        decoder = self.decompressor()
        for index in range(self.archive.n_blocks):
            self.stats.note_depth(1)
            try:
                item = _decode_block(decoder, index, select)
            except Exception as exc:
                item = self._resolve_failure(index, exc, pooled=False,
                                             select=select)
            yield self._account(item)

    def _iter_process(self, select: StreamSelection
                      ) -> Iterator["ReadSet | BlockGap"]:
        arch = self.archive
        source: "str | bytes"
        if arch.file_backed:
            source = str(arch.source_path)
        else:
            source = arch.source_bytes()
            self.stats.note_shipped(len(source))

        def tasks() -> Iterator[int]:
            for index in range(arch.n_blocks):
                self.stats.note_shipped(len(pickle.dumps(index)))
                yield index

        try:
            pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_decode_worker,
                initargs=(source, arch.name, self.options, select))
        except OSError as exc:
            warnings.warn(f"process pool unavailable ({exc}); "
                          "falling back to serial block decode",
                          RuntimeWarning, stacklevel=2)
            yield from self._iter_serial(select)
            return
        failure = partial(self._resolve_failure, pooled=True,
                          select=select)
        with pool:
            for item in imap_bounded(pool, _decode_task, tasks(),
                                     self.window,
                                     depth_probe=self.stats.note_depth,
                                     failure=failure):
                yield self._account(item)


# ----------------------------------------------------------------------
# Transport sinks (analysis sinks: repro.analysis.properties)
# ----------------------------------------------------------------------


class FastqSink:
    """Streams decoded reads to a FASTQ text handle, block by block.

    Output is identical to ``fastq.write_file`` on the materialized
    dataset: the global read index keeps fallback read names stable.
    """

    #: FASTQ is the full record: every stream group must decode.
    requires = STREAM_GROUPS

    def __init__(self, handle):
        self.handle = handle
        self.n_reads = 0
        self.n_missing = 0

    def consume(self, index: int, block: ReadSet) -> None:
        self.handle.write(fastq.write(block, self.n_reads))
        self.n_reads += len(block)

    def consume_gap(self, gap: BlockGap) -> None:
        # Advance the global read counter past the hole so fallback
        # read names after a skipped block match an intact decode.
        self.n_reads += gap.n_reads
        self.n_missing += gap.n_reads

    def finish(self) -> int:
        return self.n_reads - self.n_missing


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
