"""pigz-analog interface over the DEFLATE-like coder.

pigz compresses FASTQ text block-parallel; ratios are general-purpose
class (~2-6× on genomic data, §2.2) because 32 KiB windows cannot exploit
genome-scale redundancy.  Table 2 reports DNA and quality ratios
separately, so the helpers compress one stream each, rendered straight
from the read set's ``codes`` / ``quality`` / ``offsets`` columns.
"""

from __future__ import annotations

import numpy as np

from ..core import deflate
from ..genomics import sequence as seq
from ..genomics.reads import PHRED_OFFSET, ReadSet, run_index


def _lines(values: np.ndarray, offsets: np.ndarray) -> bytes:
    """Row ``i``, ``values[offsets[i]:offsets[i + 1]]``, as line ``i``."""
    out = np.full(max(0, values.size + offsets.size - 2), ord("\n"),
                  dtype=np.uint8)
    out[run_index(offsets[:-1] + np.arange(offsets.size - 1),
                  np.diff(offsets))] = values
    return out.tobytes()


def dna_stream(read_set: ReadSet) -> bytes:
    """The DNA payload as newline-separated ASCII (per-stream ratios)."""
    return _lines(seq.to_ascii(read_set.codes), read_set.offsets)


def quality_stream(read_set: ReadSet) -> bytes:
    """The quality payload as newline-separated Phred+33 ASCII."""
    if read_set.quality is None:
        if len(read_set):
            raise ValueError("read set has no quality scores")
        return b""
    return _lines(read_set.quality + PHRED_OFFSET, read_set.offsets)


def compress_dna(read_set: ReadSet) -> deflate.DeflateBlob:
    """Compress only the DNA stream (Table 2 'DNA' column)."""
    return deflate.compress(dna_stream(read_set))


def compress_quality(read_set: ReadSet) -> deflate.DeflateBlob:
    """Compress only the quality stream (Table 2 'Qual.' column)."""
    return deflate.compress(quality_stream(read_set))
