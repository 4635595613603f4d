"""Optional read-header compression.

FASTQ headers are highly templated (instrument/run/tile prefixes plus
counters), so front coding — shared prefix length with the previous
header, then the differing suffix — followed by the general-purpose
back end compresses them well.  This is an *extension* beyond the paper
(Spring keeps headers, NanoSpring discards them); SAGe's evaluation
treats headers as out of scope, so the stream is optional and charged
separately from the mismatch-information categories.
"""

from __future__ import annotations

from . import deflate
from .errors import CompressionError, CorruptArchiveError


def compress_headers(headers: list[str]) -> bytes:
    """Front-code then DEFLATE a list of headers (emission order).

    One header per line as ``{shared prefix length}|{suffix}``; the
    decoder splits at the *first* ``|`` and the prefix length is digits,
    so a suffix may itself contain ``|`` (NCBI-style ``gi|123|ref|…``).
    Only a newline cannot be stored.
    """
    parts: list[str] = [str(len(headers))]
    prev = ""
    for header in headers:
        if "\n" in header:
            raise CompressionError(
                f"header {header!r} contains a newline and cannot be "
                "stored")
        shared = 0
        limit = min(len(prev), len(header))
        while shared < limit and prev[shared] == header[shared]:
            shared += 1
        parts.append(f"{shared}|{header[shared:]}")
        prev = header
    text = "\n".join(parts).encode("utf-8")
    blob = deflate.compress(text)
    return blob.payload


def decompress_headers(payload: bytes) -> list[str]:
    """Invert :func:`compress_headers`."""
    # Block count and original size live inside the payload stream, so
    # the blob wrapper fields are not needed for decoding.
    try:
        text = deflate.decompress(
            deflate.DeflateBlob(payload, 0, 0)).decode("utf-8")
        lines = text.split("\n")
        count = int(lines[0])
    except (ValueError, UnicodeDecodeError) as exc:
        raise CorruptArchiveError(
            f"malformed header stream: {exc}", stream="headers") from exc
    headers: list[str] = []
    prev = ""
    for line in lines[1:count + 1]:
        shared_text, _, suffix = line.partition("|")
        try:
            shared = int(shared_text)
        except ValueError as exc:
            raise CorruptArchiveError(
                f"malformed front-coded header entry {line!r}",
                stream="headers") from exc
        header = prev[:shared] + suffix
        headers.append(header)
        prev = header
    return headers
