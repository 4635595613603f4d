"""The :class:`SAGeDataset` facade: one session API over the system.

SAGe's value proposition is that compressed genomic data stays
*directly analyzable* — data preparation overlaps analysis instead of
preceding it (§7).  ``SAGeDataset`` is the single stable entry point
the CLI, examples, benchmarks and the server sit on:

    from repro.api import EngineOptions, SAGeDataset
    from repro.core import SAGeConfig

    options = EngineOptions(block_reads=4096, workers=4)
    dataset = SAGeDataset.from_fastq("in.fastq", reference="ref.txt",
                                     options=options,
                                     config=SAGeConfig(with_headers=True))
    dataset.save("reads.sage")

    with SAGeDataset.open("reads.sage", options=options) as ds:
        report, rate = ds.pipe("property").pipe("mapping-rate").run()
        for block in ds.blocks():        # block i while i+1 decodes
            ...

Everything executes on the engines underneath — the compressor,
the streaming executor, the reference decompressor — which take the
session's one :class:`EngineOptions` and nothing else.  What the archive
bytes are is stated once, on the :class:`SAGeConfig` given to
:meth:`SAGeDataset.from_fastq`; ``options`` only say how the session
runs (``block_reads`` alone partitions, ``workers`` never changes a
byte).  A session fixes
its options and its decode kernel when it is built: no method takes
``options=`` or ``codec=``.  A caller that wants other options over the
same archive opens a sibling session,
``SAGeDataset(ds.archive, options=..., decompressor=ds.decompressor())``
(the sibling is not closed: the archive belongs to the first session).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..core.compressor import SAGeCompressor, SAGeConfig
from ..core.container import SAGeArchive
from ..core.decompressor import SAGeDecompressor
from ..core.options import EngineOptions
from ..core.selection import StreamSelection
from ..genomics import fastq
from ..genomics import sequence as seqmod
from ..genomics.reads import ReadSet
from ..pipeline.executor import CollectSink, ExecutorStats, FastqSink, \
    Sink, StreamExecutor, decode_block
from .sinks import resolve_sink

__all__ = ["Pipeline", "SAGeDataset", "SourceTotals", "VerifyReport",
           "atomic_write_bytes"]


@dataclass(frozen=True)
class SourceTotals:
    """Input accounting gathered while compressing a source."""

    reads: int
    bases: int
    fastq_bytes: int


def atomic_write_bytes(path: str | Path, blob: bytes) -> int:
    """Write ``blob`` to ``path`` atomically; returns the byte count.

    The bytes land in a same-directory temp file, are fsynced, the temp
    file is :func:`os.replace`-d over the target, and the directory is
    fsynced so the rename itself is durable — an interrupted write or a
    power loss leaves either the old file or the new one, never a half
    archive.  The temp file is removed on failure.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return len(blob)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of :meth:`SAGeDataset.verify`.

    ``header``/``consensus`` and each ``blocks[i]`` entry are one of
    ``"ok"``, ``"failed"``, or ``"unchecked"`` (pre-v4 layouts carry no
    digests).  ``deep`` marks whether every block was additionally
    fully decoded; decode failures land in ``errors`` keyed by block
    index.
    """

    format_version: int
    header: str
    consensus: str
    blocks: tuple[str, ...]
    deep: bool = False
    errors: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        """Archive-level rollup: ``ok`` / ``failed`` / ``unchecked``."""
        statuses = {self.header, self.consensus, *self.blocks}
        if "failed" in statuses or self.errors:
            return "failed"
        if statuses == {"ok"}:
            return "ok"
        return "unchecked"

    @property
    def ok(self) -> bool:
        return self.status != "failed"

    def to_dict(self) -> dict:
        return {"format_version": self.format_version,
                "status": self.status, "header": self.header,
                "consensus": self.consensus, "blocks": list(self.blocks),
                "deep": self.deep,
                "errors": {str(k): str(v)
                           for k, v in sorted(self.errors.items())}}


def _compress_stream(source: ReadSet | Iterable[ReadSet],
                     consensus: np.ndarray, config: SAGeConfig,
                     options: EngineOptions
                     ) -> tuple[SAGeArchive, SourceTotals]:
    """Block-compress ``source`` — a read set the engine partitions, or
    chunks taken one block each — counting the input."""
    reads = bases = fastq_bytes = 0

    def counted(read_set: ReadSet) -> ReadSet:
        nonlocal reads, bases, fastq_bytes
        reads += len(read_set)
        bases += read_set.total_bases
        fastq_bytes += read_set.uncompressed_fastq_bytes()
        return read_set

    archive = SAGeCompressor(consensus, config, options=options).compress(
        counted(source) if isinstance(source, ReadSet)
        else map(counted, source))
    return archive, SourceTotals(reads=reads, bases=bases,
                                 fastq_bytes=fastq_bytes)


def _as_consensus(reference) -> np.ndarray:
    """Normalize a reference spec into consensus base codes.

    Accepts an array of A/C/G/T codes or a path to a plain-ACGT text
    file (the ``sage compress`` consensus file format).
    """
    if isinstance(reference, (str, Path)):
        text = Path(reference).read_text(encoding="ascii") \
            .strip().replace("\n", "")
        return seqmod.encode(text)
    return np.asarray(reference, dtype=np.uint8)


class SAGeDataset:
    """One session over a SAGe-compressed read set.

    Construct with :meth:`from_fastq` (compress a source) or
    :meth:`open` (load an archive; usable as a context manager).  The
    dataset owns the engine wiring: streaming iteration
    (:meth:`blocks`), FASTQ export (:meth:`to_fastq`), sink analysis
    (:meth:`pipe`), and persistence (:meth:`save`).  ``options``
    (:class:`EngineOptions`) are fixed for the session;
    ``decompressor`` hands a sibling session over the same archive an
    existing decoder (unpacked consensus and kernel).
    """

    def __init__(self, archive: SAGeArchive, *,
                 options: EngineOptions | None = None,
                 path: str | Path | None = None,
                 decompressor: SAGeDecompressor | None = None,
                 source_totals: SourceTotals | None = None):
        if not isinstance(archive, SAGeArchive):
            raise TypeError(
                f"SAGeDataset wraps a SAGeArchive, got {type(archive)!r}")
        self._archive = archive
        self.options = options if options is not None else EngineOptions()
        self.path = Path(path) if path is not None else None
        self.source_totals = source_totals
        self._decompressor = decompressor
        self._last_executor: StreamExecutor | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_fastq(cls, source, *, reference,
                   options: EngineOptions | None = None,
                   config: SAGeConfig | None = None) -> "SAGeDataset":
        """Compress ``source`` against ``reference`` into a dataset.

        ``source`` may be a FASTQ file path, a :class:`ReadSet`, or an
        iterable of pre-chunked :class:`ReadSet` blocks.  All three
        become one chunk stream — the whole input as one block when
        ``options.block_reads`` is ``0``, ``block_reads``-sized chunks
        otherwise (a path is then streamed, never materialized), a
        caller's chunks as they come — and each chunk becomes one
        independently decodable block, so the same reads under the same
        partition give the same bytes whatever the source kind or
        ``options.workers``.  ``reference`` is an array of consensus
        base codes or a path to an ACGT text file.

        ``config`` (default :class:`SAGeConfig`) states the format —
        level, quality, long-read mode, headers, order — and the mapper
        kernel.  ``options`` carry none of that.
        """
        options = options if options is not None else EngineOptions()
        consensus = _as_consensus(reference)
        n = options.block_reads
        if isinstance(source, (str, Path)):
            source = fastq.iter_read_sets(source, n) if n \
                else fastq.read_file(source)
        archive, totals = _compress_stream(
            source, consensus, options.compressor_config(config), options)
        return cls(archive, options=options, source_totals=totals)

    @classmethod
    def open(cls, path: str | Path, *,
             options: EngineOptions | None = None) -> "SAGeDataset":
        """Open an archive file as a dataset session.

        The file is memory-mapped, not read: opening touches only the
        global header, consensus, and block index, and each block's
        payload bytes are faulted in (zero-copy) the first time that
        block is accessed.  A streaming pass over the archive therefore
        peaks far below the archive size, and the process-backend
        executor's workers open the same file themselves — a task names
        the file and a block.  Usable as a context manager; :meth:`close`
        releases the mapping.
        """
        return cls(SAGeArchive.open(path), options=options, path=path)

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "SAGeDataset":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """End the session: release cached decoders, executors, and —
        for archives opened from a file — the memory mapping.  Blocks
        already parsed stay usable (they hold their own bytes); blocks
        never touched are no longer reachable after close.

        Contract: idempotent and safe to call from any thread, even
        while other threads are decoding.  An in-flight
        ``decode_block`` either completes normally (it sliced its
        payload before the close) or fails with a typed
        :class:`~repro.core.errors.ContainerError` naming the closed
        archive — it never crashes the process or corrupts output.  New
        calls after close fail fast via :meth:`_require_open` with
        ``ValueError("dataset session is closed")``.  This is what
        allows a server to close a dataset during shutdown without
        fencing its worker threads first.

        Decode pool workers are the process's, not the session's: each
        keeps the archive file of its latest task mapped, idle or not,
        until a task names another file (see
        :class:`~repro.pipeline.executor.StreamExecutor`).
        """
        self._closed = True
        self._decompressor = None
        self._last_executor = None
        self._archive.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise ValueError("dataset session is closed")

    # ------------------------------------------------------------------
    # Archive views
    # ------------------------------------------------------------------

    @property
    def archive(self) -> SAGeArchive:
        """The underlying archive."""
        return self._archive

    @property
    def n_reads(self) -> int:
        return self._archive.n_reads

    @property
    def n_blocks(self) -> int:
        return self._archive.n_blocks

    @property
    def format_version(self) -> int:
        """Container version the archive was loaded from (3, 4 or 5)."""
        return self._archive.source_version

    @property
    def consensus(self) -> np.ndarray:
        """The unpacked consensus — also the default mapping reference."""
        return self.decompressor().consensus

    def decompressor(self) -> SAGeDecompressor:
        """The session's (cached) decoder, on the session codec kernel
        (``options.codec``, resolved once when the decoder is built)."""
        self._require_open()
        if self._decompressor is None:
            self._decompressor = SAGeDecompressor(
                self._archive, codec=self.options.codec)
        return self._decompressor

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the archive in a checksummed layout (a loaded v3
        archive is upgraded to v4; see :meth:`SAGeArchive.to_bytes`)."""
        return self._archive.to_bytes()

    def save(self, path: str | Path) -> int:
        """Write the archive to ``path`` atomically; returns the byte
        count.

        The blob goes through :func:`atomic_write_bytes` — same-dir
        temp file, fsync, then :func:`os.replace` — so a crash mid-save
        never leaves a half archive behind.
        """
        self._require_open()
        blob = self.to_bytes()
        atomic_write_bytes(path, blob)
        self.path = Path(path)
        return len(blob)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def verify(self, *, deep: bool = False) -> VerifyReport:
        """Check the archive's integrity digests (and optionally decode).

        The checksum walk never raises on damage — every mismatch is
        localized in the returned :class:`VerifyReport`.  Pre-v4
        archives carry no digests and report ``"unchecked"``.
        ``deep=True`` additionally decodes every block — a streaming
        pass on the session's options (``workers``, ``backend``,
        ``codec``) under ``on_error="skip"`` — catching damage a digest
        cannot see (or that pre-v4 layouts cannot detect); decode
        failures land in ``report.errors`` keyed by block index.
        """
        self._require_open()
        digests = self._archive.verify_checksums()
        errors: dict[int, Exception] = {}
        blocks = list(digests["blocks"])
        if deep:
            executor = self._make_executor(
                self.options.replace(on_error="skip"))
            for _ in executor:
                pass
            # A successful full decode verifies a block even when the
            # layout carries no digest (pre-v4).
            blocks = ["ok"] * len(blocks)
            for gap in executor.stats.gaps:
                errors[gap.index] = gap.error
                blocks[gap.index] = "failed"
        return VerifyReport(format_version=self.format_version,
                            header=digests["header"],
                            consensus=digests["consensus"],
                            blocks=tuple(blocks), deep=deep,
                            errors=errors)

    # ------------------------------------------------------------------
    # Streaming decode
    # ------------------------------------------------------------------

    def _make_executor(self, options: EngineOptions | None = None
                       ) -> StreamExecutor:
        self._require_open()
        executor = StreamExecutor(
            self._archive, options=options or self.options,
            decompressor=self.decompressor())
        self._last_executor = executor
        return executor

    @property
    def stats(self) -> ExecutorStats | None:
        """Accounting of the most recent streaming pass (or ``None``).

        This is also the recovery report: in a session opened with
        ``EngineOptions(on_error="skip")`` any pass (:meth:`to_fastq`,
        :meth:`read_set`, :meth:`pipe`) delivers every intact block and
        leaves each lost one as a
        :class:`~repro.pipeline.executor.BlockGap` in ``stats.gaps``;
        ``stats.blocks`` / ``stats.reads`` count what was recovered.
        """
        return self._last_executor.stats if self._last_executor else None

    def blocks(self) -> Iterator[ReadSet]:
        """Yield each block's reads in index order (streaming decode).

        With ``workers > 1`` in the session options, block *i* is
        consumed while blocks *i+1 … i+window* are still decoding;
        output is identical for every configuration.
        """
        return iter(self._make_executor())

    def read_set(self) -> ReadSet:
        """Materialize the whole dataset as one :class:`ReadSet`."""
        [read_set] = self._make_executor().run(CollectSink())
        return read_set

    def decode_block(self, index: int, *, select=None) -> ReadSet:
        """Random access: decode only block ``index``.

        ``select`` (a :class:`~repro.core.selection.StreamSelection`
        spec, ``None`` = everything) limits the decode to the named
        stream groups.  The executor's per-block decode runs it, and
        releases the block's parsed form afterwards — the decoded reads
        are the caller's to keep, so random access over a blob-backed
        archive does not accumulate parsed blocks.
        """
        return decode_block(self.decompressor(), index,
                            StreamSelection.from_spec(select)).reads

    def to_fastq(self, target) -> int:
        """Stream the dataset out as FASTQ; returns the read count.

        ``target`` is a path or an open handle (binary, or text: see
        :class:`~repro.pipeline.executor.FastqSink`).  Blocks are
        written as they decode — the dataset is never materialized.
        """
        self._require_open()
        if isinstance(target, (str, Path)):
            with open(target, "wb") as handle:
                return self.to_fastq(handle)
        [n_reads] = self._make_executor().run(FastqSink(target))
        return n_reads

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def pipe(self, *sinks) -> "Pipeline":
        """Start a fluent sink pipeline: ``ds.pipe(a).pipe(b).run()``."""
        self._require_open()
        return Pipeline(self).pipe(*sinks)


class Pipeline:
    """A fluent, single-pass sink pipeline over one dataset.

    Built by :meth:`SAGeDataset.pipe`; every ``pipe`` call appends a
    sink (name, :class:`Sink`, or callable) and :meth:`run` drives one
    streaming decode through all of them, returning their results in
    order.  Executor accounting of the pass lands in :attr:`stats`.
    Its sinks accumulate, so a pipeline runs once.
    """

    def __init__(self, dataset: SAGeDataset):
        self._dataset = dataset
        self._sinks: list[Sink] = []
        self._ran = False
        self.stats: ExecutorStats | None = None

    def pipe(self, *sinks) -> "Pipeline":
        """Append sinks; an unresolvable spec is this call's error."""
        self._sinks.extend(resolve_sink(self._dataset, s) for s in sinks)
        return self

    def run(self) -> list:
        if not self._sinks:
            raise ValueError("pipeline has no sinks; call .pipe(...) "
                             "before .run()")
        if self._ran:
            raise RuntimeError("this pipeline already ran; build a new "
                               "one with dataset.pipe(...)")
        self._ran = True
        executor = self._dataset._make_executor()
        results = executor.run(*self._sinks)
        self.stats = executor.stats
        return results
