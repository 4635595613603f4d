"""pigz-analog interface over the DEFLATE-like coder.

pigz compresses FASTQ text block-parallel; ratios are general-purpose
class (~2-6× on genomic data, §2.2) because 32 KiB windows cannot exploit
genome-scale redundancy.  Table 2 reports DNA and quality ratios
separately, so the helpers compress one stream each.
"""

from __future__ import annotations

from ..core import deflate
from ..genomics.reads import PHRED_OFFSET, ReadSet


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
