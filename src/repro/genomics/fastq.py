"""FASTQ reading and writing.

FASTQ is the paper's input format (§2.1): four lines per read — ``@header``,
bases, ``+``, Phred+33 quality string.  The writer emits exactly that; the
parser is tolerant of a repeated header on the ``+`` line, of CRLF line
endings, of blank lines between records and of a missing trailing newline.

Both directions work a block at a time, on a :class:`ReadSet`'s columns.
:func:`render` turns the set's codes and scores into ASCII once each,
encodes each header once, and joins the records' pieces with one
``bytes.join``: a fixed-length block's record tails are the rows of
one ``uint8`` array, a variable-length block's are slices of the two
ASCII buffers.  :func:`iter_read_sets` walks the lines of
``block_reads`` records, then encodes the block's joined bases once
and subtracts the Phred offset from its joined scores once, and hands
the result to :meth:`ReadSet.from_columns` — no per-read object is
built on the way in either.  Everything the parser can find wrong with
the text raises :class:`FastqError` naming the record.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from . import sequence as seq
from .reads import PHRED_OFFSET, PLACEHOLDER_SCORE, ReadSet

#: Reads :func:`write_file` renders at a time: a render holds about
#: four times its output, so a whole data set is written in pieces.
WRITE_READS = 1024

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


def render(read_set: ReadSet, first_index: int = 0) -> bytes:
    """Render a read set as FASTQ bytes — the one block renderer.

    ``first_index`` is the global position of the first read: a read
    without a header is named ``read{first_index + i}``, so a block
    rendered alone matches its slice of the whole-archive output.
    Reads without scores print the placeholder ``"I"``.

    Bases go through one :func:`~repro.genomics.sequence.to_ascii`
    and scores through one Phred offset, and each header is encoded
    once; a record is then the piece ``@header`` and its tail, and one
    ``bytes.join`` assembles them.  When every read has the same
    length ``L``, the tails (``\n`` bases ``\n+\n`` scores ``\n``) are
    the rows of one ``(reads, 2L + 5)`` array filled column by column;
    otherwise each record slices its bases and scores from the two
    ASCII buffers.  FASTQ is ASCII: a header or score outside it raises
    ``UnicodeError``.
    """
    n_reads = len(read_set)
    if not n_reads:
        return b""
    heads = [("@" + (header or f"read{i}")).encode("ascii")
             for i, header in enumerate(read_set.headers, first_index)]
    bases = seq.to_ascii(read_set.codes)
    if read_set.quality is None:
        scores = np.full(bases.size, PLACEHOLDER_SCORE + PHRED_OFFSET,
                         dtype=np.uint8)
    else:
        scores = read_set.quality + np.uint8(PHRED_OFFSET)
        if scores.max(initial=0) >= 0x80:
            raise UnicodeError("quality score outside ASCII")
    lengths = read_set.read_lengths()
    size = int(lengths[0])
    if (lengths == size).all():
        tails = np.empty((n_reads, 2 * size + 5), dtype=np.uint8)
        tails[:, 0] = tails[:, size + 1] = tails[:, size + 3] = \
            tails[:, -1] = ord("\n")
        tails[:, size + 2] = ord("+")
        tails[:, 1:size + 1] = bases.reshape(n_reads, size)
        tails[:, size + 4:-1] = scores.reshape(n_reads, size)
        pieces = [b""] * (2 * n_reads)
        pieces[0::2] = heads
        # A row as one fixed-width bytes item: it ends in "\n", so the
        # trim of trailing NULs never shortens it.
        pieces[1::2] = tails.view(f"S{tails.shape[1]}").ravel().tolist()
        # The join then holds two copies of the records, not four.
        del bases, scores, tails
        return b"".join(pieces)
    ends = read_set.offsets[1:].tolist()
    views: list[bytes | memoryview] = [b"\n"] * (6 * n_reads)
    views[0::6] = heads
    views[2::6] = _cut(memoryview(bases), ends)
    views[3::6] = [b"\n+\n"] * n_reads
    views[4::6] = _cut(memoryview(scores), ends)
    return b"".join(views)


def _cut(buffer: memoryview, ends: list[int]) -> list[memoryview]:
    """``buffer`` cut at ``ends`` (the first piece starts at 0), as
    views: the join copies each byte once."""
    return [buffer[start:end] for start, end in zip([0, *ends], ends)]


def write(read_set: ReadSet, first_index: int = 0) -> str:
    """:func:`render` as text."""
    return render(read_set, first_index).decode("ascii")


def write_file(read_set: ReadSet, path: str | Path) -> None:
    """Write a read set to a FASTQ file, :data:`WRITE_READS` reads at
    a time."""
    with open(path, "wb") as handle:
        for lo in range(0, len(read_set), WRITE_READS):
            hi = min(lo + WRITE_READS, len(read_set))
            handle.write(render(read_set.subset(range(lo, hi)), lo))
