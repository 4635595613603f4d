"""pigz-analog interface over the DEFLATE-like coder.

pigz compresses FASTQ text block-parallel; ratios are general-purpose
class (~2-6× on genomic data, §2.2) because 32 KiB windows cannot exploit
genome-scale redundancy.  Table 2 reports DNA and quality ratios
separately, so helpers are provided per stream as well as whole-FASTQ.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import deflate
from ..genomics import fastq
from ..genomics.reads import PHRED_OFFSET, ReadSet


@dataclass
class PigzArchive:
    """A pigz-analog compressed read set (FASTQ text blob)."""

    blob: deflate.DeflateBlob

    def byte_size(self) -> int:
        return self.blob.byte_size


def compress_read_set(read_set: ReadSet) -> PigzArchive:
    """Compress the full FASTQ rendering of a read set."""
    text = fastq.write(read_set).encode("ascii")
    return PigzArchive(deflate.compress(text))


def decompress_read_set(archive: PigzArchive) -> ReadSet:
    """Recover the read set from a pigz-analog archive."""
    text = deflate.decompress(archive.blob).decode("ascii")
    return fastq.parse(text)


def dna_stream(read_set: ReadSet) -> bytes:
    """The DNA payload as newline-separated ASCII (per-stream ratios)."""
    return "\n".join(r.text for r in read_set).encode("ascii")


def quality_stream(read_set: ReadSet) -> bytes:
    """The quality payload as newline-separated Phred+33 ASCII."""
    parts = []
    for read in read_set:
        if read.quality is None:
            raise ValueError("read set has no quality scores")
        parts.append((read.quality + PHRED_OFFSET).tobytes())
    return b"\n".join(parts)


def compress_dna(read_set: ReadSet) -> deflate.DeflateBlob:
    """Compress only the DNA stream (Table 2 'DNA' column)."""
    return deflate.compress(dna_stream(read_set))


def compress_quality(read_set: ReadSet) -> deflate.DeflateBlob:
    """Compress only the quality stream (Table 2 'Qual.' column)."""
    return deflate.compress(quality_stream(read_set))
