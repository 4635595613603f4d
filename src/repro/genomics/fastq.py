"""FASTQ reading and writing.

FASTQ is the paper's input format (§2.1): four lines per read — ``@header``,
bases, ``+``, Phred+33 quality string.  The writer emits exactly that; the
parser is tolerant of a repeated header on the ``+`` line, of CRLF line
endings, and of missing trailing newlines.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from . import sequence as seq
from .reads import (PHRED_OFFSET, PLACEHOLDER_SCORE, Read, ReadSet,
                    partition_reads, run_index)


#: Bases :func:`write` renders in one vectorized pass (a 1024 x 100 bp
#: block is one pass); its index arrays are 8 bytes per base.
RENDER_BASES = 1 << 18


class FastqError(ValueError):
    """Raised on malformed FASTQ input."""


def parse_stream(stream: TextIO) -> Iterator[Read]:
    """Yield reads from an open FASTQ text stream."""
    while True:
        header = stream.readline()
        if not header:
            return
        header = header.rstrip("\r\n")
        if not header:
            continue
        if not header.startswith("@"):
            raise FastqError(f"expected '@' header line, got {header[:20]!r}")
        bases = stream.readline().rstrip("\r\n")
        plus = stream.readline().rstrip("\r\n")
        quality = stream.readline().rstrip("\r\n")
        if not plus.startswith("+"):
            raise FastqError(f"expected '+' separator, got {plus[:20]!r}")
        if len(quality) != len(bases):
            raise FastqError(
                f"quality length {len(quality)} != sequence length "
                f"{len(bases)} for read {header[1:]!r}")
        yield Read.from_text(bases, quality, header=header[1:])


def parse(text: str) -> ReadSet:
    """Parse a FASTQ string into a :class:`ReadSet`."""
    return ReadSet(list(parse_stream(io.StringIO(text))))


def read_file(path: str | Path) -> ReadSet:
    """Read a FASTQ file from disk."""
    with open(path, "r", encoding="ascii") as handle:
        reads = list(parse_stream(handle))
    return ReadSet(reads, name=Path(path).stem)


def iter_read_sets(path: str | Path,
                   block_reads: int) -> Iterator[ReadSet]:
    """Stream a FASTQ file as :class:`ReadSet` chunks of ``block_reads``.

    Never materializes the full dataset: at most one chunk of reads is
    held in memory.  This is the input contract of the block-based
    compression engine (:class:`repro.core.blocks.BlockCompressor`) —
    each yielded chunk becomes one independently decodable block.
    """
    with open(path, "r", encoding="ascii") as handle:
        yield from partition_reads(parse_stream(handle), block_reads,
                                   name=Path(path).stem)


def format_read(read: Read, index: int = 0) -> str:
    """Render one read as a FASTQ record (:func:`write` renders blocks)."""
    header = read.header or f"read{index}"
    qual = read.quality_text if read.quality is not None \
        else chr(PLACEHOLDER_SCORE + PHRED_OFFSET) * len(read)
    return f"@{header}\n{read.text}\n+\n{qual}\n"


def write(read_set: ReadSet, first_index: int = 0) -> str:
    """Render a read set as FASTQ text — the one block renderer.

    ``first_index`` is the global position of the first read: a read
    without a header is named ``read{first_index + i}``, so a block
    rendered alone matches its slice of the whole-archive output.
    Reads without scores print the placeholder ``"I"``.

    One vectorized pass over the set's columns: record offsets by
    ``cumsum``, then headers, bases, ``+`` and scores are
    scattered into one newline-filled byte buffer.  FASTQ is ASCII: a
    header or score outside it raises ``UnicodeError``.
    """
    n_reads = len(read_set)
    if not n_reads:
        return ""
    if read_set.total_bases > RENDER_BASES and n_reads > 1:
        # A scatter index costs 8 bytes per base: a large set renders
        # in halves so the working set stays bounded.
        mid = n_reads // 2
        return write(read_set.subset(range(mid)), first_index) \
            + write(read_set.subset(range(mid, n_reads)),
                    first_index + mid)
    headers = [header or f"read{i}"
               for i, header in enumerate(read_set.headers, first_index)]
    header_len = np.fromiter(map(len, headers), np.int64, len(headers))
    lengths = read_set.read_lengths()
    # '@' header '\n' bases '\n' '+' '\n' scores '\n'
    record_len = header_len + 2 * lengths + 6
    ends = np.cumsum(record_len)
    at = ends - record_len
    out = np.full(ends[-1], ord("\n"), dtype=np.uint8)
    out[at] = ord("@")
    out[run_index(at + 1, header_len)] = np.frombuffer(
        "".join(headers).encode("ascii"), dtype=np.uint8)
    bases = run_index(at + header_len + 2, lengths)
    out[bases] = seq.to_ascii(read_set.codes)
    out[at + header_len + lengths + 3] = ord("+")
    bases += np.repeat(lengths + 3, lengths)      # now the score slots
    out[bases] = PLACEHOLDER_SCORE + PHRED_OFFSET \
        if read_set.quality is None else read_set.quality + PHRED_OFFSET
    return out.tobytes().decode("ascii")


def write_file(read_set: ReadSet, path: str | Path) -> None:
    """Write a read set to a FASTQ file."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(write(read_set))
