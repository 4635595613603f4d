"""FASTQ reading and writing.

FASTQ is the paper's input format (§2.1): four lines per read — ``@header``,
bases, ``+``, Phred+33 quality string.  The writer emits exactly that; the
parser is tolerant of a repeated header on the ``+`` line, of CRLF line
endings, of blank lines between records and of a missing trailing newline.

The parser is the renderer's mirror: one vectorized pass per block.
:func:`write` scatters a :class:`ReadSet`'s columns into one text
buffer; :func:`iter_read_sets` walks the lines of ``block_reads``
records, then encodes the block's joined bases once and subtracts the
Phred offset from its joined scores once, and hands the result to
:meth:`ReadSet.from_columns` — no per-read object is built on the way
in either.  Everything the parser can find wrong with the text raises
:class:`FastqError` naming the record.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from . import sequence as seq
from .reads import PHRED_OFFSET, PLACEHOLDER_SCORE, ReadSet, run_index


#: Bases :func:`write` renders in one vectorized pass (a 1024 x 100 bp
#: block is one pass); its index arrays are 8 bytes per base.
RENDER_BASES = 1 << 18

#: The bytes :func:`repro.genomics.sequence.encode` accepts.
_BASE_BYTES = np.frombuffer(
    (seq.ALPHABET + seq.ALPHABET.lower()).encode("ascii"), dtype=np.uint8)


class FastqError(ValueError):
    """Raised on malformed FASTQ input; the message names the 1-based
    record number and its header."""


def _malformed(number: int, header: bytes, message: str) -> FastqError:
    return FastqError(
        f"record {number} ({_shown(header.removeprefix(b'@'))}): {message}")


def _shown(line: bytes) -> str:
    return repr(line.rstrip(b"\r\n").decode("ascii", "replace"))


def _read_sets(handle: BinaryIO, per_set: int,
               name: str) -> Iterator[ReadSet]:
    """The one parser: the records of ``handle``, ``per_set`` to a
    :class:`ReadSet` (``0``: all of them in one)."""
    first = 1               # 1-based number of the block's first record
    while True:
        headers: list[bytes] = []
        bases: list[bytes] = []
        scores: list[bytes] = []
        for line in handle:
            header = line.rstrip(b"\r\n")
            if not header:
                continue
            read = handle.readline().rstrip(b"\r\n")
            plus = handle.readline()
            quality = handle.readline().rstrip(b"\r\n")
            if not header.startswith(b"@"):
                problem = ("expected '@' header line, got "
                           + _shown(header[:20]))
            elif not plus:
                problem = "truncated record"
            elif not plus.startswith(b"+"):
                problem = ("expected '+' separator, got "
                           + _shown(plus[:20]))
            elif not (header.isascii() and read.isascii()
                      and plus.isascii() and quality.isascii()):
                problem = "non-ASCII byte"
            elif len(quality) != len(read):
                problem = (f"quality length {len(quality)} != sequence "
                           f"length {len(read)}")
            else:
                headers.append(header)
                bases.append(read)
                scores.append(quality)
                if len(headers) == per_set:
                    break
                continue
            raise _malformed(first + len(headers), header, problem)
        if not headers:
            return

        offsets = np.zeros(len(bases) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, bases), np.int64, len(bases)),
                  out=offsets[1:])

        def owner(mask: np.ndarray, message: str) -> FastqError:
            # The record of a vectorized check's first offending byte.
            index = int(np.searchsorted(offsets, mask.argmax(), "right")) - 1
            return _malformed(first + index, headers[index], message)

        text = b"".join(bases)
        try:
            codes = seq.encode(text)
        except seq.SequenceError as exc:
            raise owner(np.isin(np.frombuffer(text, dtype=np.uint8),
                                _BASE_BYTES, invert=True),
                        str(exc)) from None
        quality = np.frombuffer(b"".join(scores), dtype=np.uint8)
        if quality.min(initial=PHRED_OFFSET) < PHRED_OFFSET:
            raise owner(quality < PHRED_OFFSET,
                        "quality character below '!'")
        quality = quality - np.uint8(PHRED_OFFSET)
        # "@a\n@b\n@c" -> ["a", "b", "c"]: one decode, one split.
        names = b"\n".join(headers).decode("ascii")[1:].split("\n@")
        yield ReadSet.from_columns(codes, offsets, quality, names, name)
        first += len(headers)


def _whole(handle: BinaryIO, name: str = "") -> ReadSet:
    return next(_read_sets(handle, 0, name), ReadSet(name=name))


def parse(text: str) -> ReadSet:
    """Parse a FASTQ string into a :class:`ReadSet`."""
    return _whole(io.BytesIO(text.encode("utf-8", "surrogatepass")))


def read_file(path: str | Path) -> ReadSet:
    """Read a FASTQ file from disk."""
    with open(path, "rb") as handle:
        return _whole(handle, Path(path).stem)


def iter_read_sets(path: str | Path,
                   block_reads: int) -> Iterator[ReadSet]:
    """Stream a FASTQ file as :class:`ReadSet` chunks of ``block_reads``.

    Never materializes the full dataset: at most one chunk of reads is
    held in memory.  :meth:`SAGeCompressor.compress
    <repro.core.compressor.SAGeCompressor.compress>` takes the stream
    as it comes: each yielded chunk becomes one independently decodable
    block.
    """
    if block_reads < 1:
        raise ValueError("block_reads must be >= 1")
    with open(path, "rb") as handle:
        yield from _read_sets(handle, block_reads, Path(path).stem)


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
