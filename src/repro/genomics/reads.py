"""Read and read-set containers.

A :class:`Read` is one sequenced fragment: DNA codes, optional quality
scores, and a header.  A :class:`ReadSet` is the unit of compression and
analysis throughout the library (the paper's "read set").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from . import sequence as seq

#: Phred+33 offset used for quality score characters.
PHRED_OFFSET = 33

#: Highest representable Phred score (Illumina-style cap).
MAX_PHRED = 60


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


@dataclass
class ReadSet:
    """An ordered collection of reads — the unit of (de)compression."""

    reads: list[Read] = field(default_factory=list)
    name: str = ""

    def __len__(self) -> int:
        return len(self.reads)

    def __iter__(self) -> Iterator[Read]:
        return iter(self.reads)

    def __getitem__(self, idx: int) -> Read:
        return self.reads[idx]

    def append(self, read: Read) -> None:
        self.reads.append(read)

    def extend(self, reads: Iterable[Read]) -> None:
        self.reads.extend(reads)

    @property
    def has_quality(self) -> bool:
        """True when every read carries quality scores."""
        return bool(self.reads) and all(
            r.quality is not None for r in self.reads)

    @property
    def total_bases(self) -> int:
        """Total number of bases across all reads."""
        return sum(len(r) for r in self.reads)

    @property
    def is_fixed_length(self) -> bool:
        """True when all reads share one length (typical short-read sets)."""
        if not self.reads:
            return True
        first = len(self.reads[0])
        return all(len(r) == first for r in self.reads)

    def read_lengths(self) -> np.ndarray:
        """Array of per-read lengths."""
        return np.array([len(r) for r in self.reads], dtype=np.int64)

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
        """New read set containing the selected reads (shared arrays)."""
        picked = [self.reads[i] for i in indices]
        return ReadSet(picked, name=self.name)


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
