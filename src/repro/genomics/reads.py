"""Read and read-set containers.

A :class:`Read` is one sequenced fragment: DNA codes, optional quality
scores, and a header.  A :class:`ReadSet` is the unit of compression and
analysis throughout the library (the paper's "read set").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import sequence as seq

#: Phred+33 offset used for quality score characters.
PHRED_OFFSET = 33

#: Highest representable Phred score (Illumina-style cap).
MAX_PHRED = 60

#: Score printed (as ``"I"``) for a read without quality scores, as
#: accurate sequencers that skip quality reporting do (§5.1).
PLACEHOLDER_SCORE = ord("I") - PHRED_OFFSET


@dataclass
class Read:
    """A single sequencing read."""

    codes: np.ndarray
    quality: np.ndarray | None = None
    header: str = ""

    def __post_init__(self) -> None:
        self.codes = np.asarray(self.codes, dtype=np.uint8)
        if self.quality is not None:
            self.quality = np.asarray(self.quality, dtype=np.uint8)
            if self.quality.shape != self.codes.shape:
                raise ValueError("quality length must match sequence length")

    def __len__(self) -> int:
        return int(self.codes.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Read):
            return NotImplemented
        if not np.array_equal(self.codes, other.codes):
            return False
        if (self.quality is None) != (other.quality is None):
            return False
        if self.quality is not None and not np.array_equal(
                self.quality, other.quality):
            return False
        return True

    @property
    def text(self) -> str:
        """The read's bases as an upper-case string."""
        return seq.decode(self.codes)

    @property
    def quality_text(self) -> str:
        """The read's quality scores as a Phred+33 string."""
        if self.quality is None:
            raise ValueError("read has no quality scores")
        return (self.quality + PHRED_OFFSET).tobytes().decode("ascii")

    @classmethod
    def from_text(cls, bases: str, quality: str | None = None,
                  header: str = "") -> "Read":
        """Build a read from a base string and optional Phred+33 string."""
        codes = seq.encode(bases)
        qual = None
        if quality is not None:
            raw = np.frombuffer(quality.encode("ascii"), dtype=np.uint8)
            if (raw < PHRED_OFFSET).any():
                raise ValueError("quality string has characters below '!'")
            qual = (raw - PHRED_OFFSET).astype(np.uint8)
        return cls(codes=codes, quality=qual, header=header)

    def reverse_complement(self) -> "Read":
        """Reverse-complemented copy (quality reversed alongside)."""
        qual = None if self.quality is None else self.quality[::-1].copy()
        return Read(seq.reverse_complement(self.codes), qual, self.header)


def run_index(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat index of every element of the runs
    ``starts[i] : starts[i] + lengths[i]``, run after run."""
    ends = np.cumsum(lengths)
    index = np.arange(ends[-1] if ends.size else 0)
    index += np.repeat(starts - (ends - lengths), lengths)
    return index


@dataclass(eq=False)
class ReadBatch:
    """A block of reads as columns, in final read order.

    Read ``i`` owns ``codes[offsets[i]:offsets[i + 1]]`` and the same
    slice of ``quality`` (``None`` when the block has no scores) and is
    named ``headers[i]``.  This is what a block decode produces, what
    crosses the process boundary, what the decoded-block cache holds and
    what the FASTQ renderer reads; :class:`Read` objects are views of it.
    """

    codes: np.ndarray                 # flat uint8, offsets[-1] long
    offsets: np.ndarray               # int64, len + 1, offsets[0] == 0
    quality: np.ndarray | None        # flat uint8, aligned with codes
    headers: list[str]

    def __len__(self) -> int:
        return self.offsets.size - 1

    @property
    def lengths(self) -> np.ndarray:
        """Per-read lengths."""
        return np.diff(self.offsets)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the columns, header text included."""
        quality = 0 if self.quality is None else self.quality.nbytes
        return (self.codes.nbytes + self.offsets.nbytes + quality
                + sum(map(len, self.headers)))

    @classmethod
    def _joined(cls, codes: list, quality: list, lengths,
                headers: "list[str]") -> "ReadBatch":
        """Concatenate column parts.  Scores are kept when any part has
        them; a part without takes the FASTQ placeholder score, which
        is what the renderer prints for it."""
        offsets = np.zeros(len(headers) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum(np.asarray(lengths, dtype=np.int64))
        scores = None
        if any(part is not None for part in quality):
            scores = np.concatenate([
                np.full(bases.size, PLACEHOLDER_SCORE, dtype=np.uint8)
                if part is None else part
                for bases, part in zip(codes, quality)])
        flat = np.concatenate(codes) if codes \
            else np.empty(0, dtype=np.uint8)
        return cls(flat, offsets, scores, headers)

    @classmethod
    def pack(cls, reads: "list[Read]") -> "ReadBatch":
        """The columnar form of a list of reads."""
        return cls._joined([r.codes for r in reads],
                           [r.quality for r in reads],
                           [r.codes.size for r in reads],
                           [r.header for r in reads])

    @classmethod
    def concat(cls, batches: "list[ReadBatch]") -> "ReadBatch":
        """One batch holding the reads of ``batches`` in order."""
        return cls._joined([b.codes for b in batches],
                           [b.quality for b in batches],
                           np.concatenate([b.lengths for b in batches]
                                          or [[]]),
                           [h for b in batches for h in b.headers])

    def slice(self, lo: int, hi: int) -> "ReadBatch":
        """Reads ``lo .. hi - 1`` as views of this batch's columns."""
        start, stop = int(self.offsets[lo]), int(self.offsets[hi])
        quality = None if self.quality is None else self.quality[start:stop]
        return ReadBatch(self.codes[start:stop],
                         self.offsets[lo:hi + 1] - start, quality,
                         self.headers[lo:hi])

    def take(self, indices) -> "ReadBatch":
        """The reads at ``indices``, gathered into new columns."""
        indices = np.asarray(indices, dtype=np.int64)
        lengths = self.lengths[indices]
        offsets = np.zeros(indices.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        source = run_index(self.offsets[indices], lengths)
        quality = None if self.quality is None else self.quality[source]
        return ReadBatch(self.codes[source], offsets, quality,
                         [self.headers[i] for i in indices.tolist()])

    def reads(self) -> "list[Read]":
        """One :class:`Read` per row; arrays are views of the columns."""
        bounds = self.offsets.tolist()
        spans = list(zip(bounds, bounds[1:]))
        codes, quality = self.codes, self.quality
        qualities = [None] * len(spans) if quality is None \
            else [quality[s:e] for s, e in spans]
        return [Read(codes[s:e], q, h)
                for (s, e), q, h in zip(spans, qualities, self.headers)]


class ReadSet:
    """An ordered collection of reads — the unit of (de)compression.

    Built from a list of :class:`Read` (the encode side) or backed by a
    :class:`ReadBatch` (what a block decode returns).  A batch-backed
    set answers ``len``, ``total_bases``, ``read_lengths``,
    ``is_fixed_length``, ``has_quality`` and a contiguous ``subset``
    from the columns and builds its ``reads`` list only when asked; the
    list is then a view of the batch, which stays what renders, pickles
    and is charged.  ``append``/``extend`` detach the set from its batch.
    """

    def __init__(self, reads: "list[Read] | None" = None, name: str = "",
                 batch: ReadBatch | None = None) -> None:
        if reads is None and batch is None:
            reads = []
        self._reads, self._batch, self.name = reads, batch, name

    def __reduce__(self):
        if self._batch is not None:
            return ReadSet, (None, self.name, self._batch)
        return ReadSet, (self._reads, self.name)

    def __repr__(self) -> str:
        return f"ReadSet(name={self.name!r}, n_reads={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReadSet):
            return NotImplemented
        return self.name == other.name and self.reads == other.reads

    @property
    def reads(self) -> "list[Read]":
        reads = self._reads
        if reads is None:
            # Built locally and assigned once: a thread racing this one
            # on a cached block sees None or a complete list.
            reads = self._reads = self._batch.reads()
        return reads

    @reads.setter
    def reads(self, reads: "list[Read]") -> None:
        self._reads, self._batch = reads, None

    @property
    def batch(self) -> ReadBatch:
        """The columnar form (packed on the fly for a list-backed set)."""
        if self._batch is not None:
            return self._batch
        return ReadBatch.pack(self._reads)

    def __len__(self) -> int:
        return len(self._reads if self._batch is None else self._batch)

    def __iter__(self) -> Iterator[Read]:
        return iter(self.reads)

    def __getitem__(self, idx: int) -> Read:
        return self.reads[idx]

    def append(self, read: Read) -> None:
        self.reads = self.reads           # materialize, drop the batch
        self._reads.append(read)

    def extend(self, reads: Iterable[Read]) -> None:
        self.reads = self.reads
        self._reads.extend(reads)

    @property
    def has_quality(self) -> bool:
        """True when every read carries quality scores."""
        if self._batch is not None:
            return bool(len(self)) and self._batch.quality is not None
        return bool(self._reads) and all(
            r.quality is not None for r in self._reads)

    @property
    def total_bases(self) -> int:
        """Total number of bases across all reads."""
        return int(self.read_lengths().sum())

    @property
    def is_fixed_length(self) -> bool:
        """True when all reads share one length (typical short-read sets)."""
        lengths = self.read_lengths()
        return bool((lengths == lengths[:1]).all())

    def read_lengths(self) -> np.ndarray:
        """Array of per-read lengths."""
        if self._batch is not None:
            return self._batch.lengths
        return np.array([len(r) for r in self._reads], dtype=np.int64)

    def uncompressed_dna_bytes(self) -> int:
        """Size of the DNA payload stored as 1 ASCII byte per base."""
        return self.total_bases

    def uncompressed_fastq_bytes(self) -> int:
        """Approximate FASTQ size: header + bases + separator + qualities."""
        total = 0
        for read in self.reads:
            header_len = len(read.header) + 1 if read.header else 2
            total += header_len + 1  # '@' + header + newline
            total += len(read) + 1
            total += 2  # '+' line
            total += len(read) + 1
        return total

    def subset(self, indices: Iterable[int]) -> "ReadSet":
        """New read set containing the selected reads (shared arrays);
        a contiguous range of a batch-backed set stays columnar."""
        if self._batch is not None and isinstance(indices, range) \
                and indices.step == 1 \
                and 0 <= indices.start <= indices.stop <= len(self):
            return ReadSet(name=self.name, batch=self._batch.slice(
                indices.start, indices.stop))
        return ReadSet([self.reads[i] for i in indices], name=self.name)


def iter_reads(reads: ReadSet | Iterable[ReadSet]) -> Iterator[Read]:
    """Flatten a materialized read set or a stream of read-set blocks.

    The shared dispatch rule of the streaming analysis entry points
    (:func:`repro.analysis.properties.analyze`,
    :func:`repro.analysis.variants.pileup`): a :class:`ReadSet` yields
    its own reads; any other iterable is treated as blocks of reads —
    the shape produced by ``SAGeDataset.blocks()``.
    """
    if isinstance(reads, ReadSet):
        yield from reads
    else:
        for block in reads:
            yield from block


# sage-lint: disable-next=SGL003 - block_reads is the partitioner's batching unit, not an engine knob here
def partition_reads(reads: Iterable[Read], block_reads: int,
                    name: str = "") -> Iterator[ReadSet]:
    """Chunk a read stream into :class:`ReadSet` blocks in input order.

    The shared chunker behind streaming FASTQ input
    (:func:`repro.genomics.fastq.iter_read_sets`) and the block-based
    compression engine (:class:`repro.core.blocks.BlockCompressor`):
    at most one ``block_reads``-sized chunk is held in memory.
    """
    if block_reads < 1:
        raise ValueError("block_reads must be >= 1")
    chunk: list[Read] = []
    for read in reads:
        chunk.append(read)
        if len(chunk) == block_reads:
            yield ReadSet(chunk, name=name)
            chunk = []
    if chunk:
        yield ReadSet(chunk, name=name)
