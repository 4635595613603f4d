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

from .reads import Read, ReadSet, partition_reads


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
        yield Read.from_text(bases, quality or None, header=header[1:])


def parse(text: str) -> ReadSet:
    """Parse a FASTQ string into a :class:`ReadSet`."""
    return ReadSet(list(parse_stream(io.StringIO(text))))


def read_file(path: str | Path) -> ReadSet:
    """Read a FASTQ file from disk."""
    with open(path, "r", encoding="ascii") as handle:
        reads = list(parse_stream(handle))
    return ReadSet(reads, name=Path(path).stem)


# sage-lint: disable-next=SGL003 - block_reads is the parser's batching unit, not an engine knob here
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
    """Render one read as a FASTQ record."""
    header = read.header or f"read{index}"
    if read.quality is not None:
        qual = read.quality_text
    else:
        # Placeholder qualities for quality-less reads, as accurate
        # sequencers that skip quality reporting do (§5.1).
        qual = "I" * len(read)
    return f"@{header}\n{read.text}\n+\n{qual}\n"


def write(read_set: ReadSet, first_index: int = 0) -> str:
    """Render a read set as FASTQ text — the one block renderer.

    ``first_index`` is the global position of the first read: a read
    without a header is named ``read{first_index + i}``, so a block
    rendered alone matches its slice of the whole-archive output.
    """
    return "".join([format_read(read, i)
                    for i, read in enumerate(read_set, first_index)])


def write_file(read_set: ReadSet, path: str | Path) -> None:
    """Write a read set to a FASTQ file."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(write(read_set))
