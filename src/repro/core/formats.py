"""Output formats for decompressed reads (§5.4).

``SAGe_Read`` lets the analysis system choose the output encoding so the
accelerator receives data it can consume directly: ASCII text, 2-bit
packed (A/C/G/T), 3-bit packed (with N), or one-hot vectors.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ..genomics import sequence as seq


class OutputFormat(Enum):
    """Formats supported by the Read Construction Unit's format encoder."""

    ASCII = "ascii"
    TWO_BIT = "2bit"
    THREE_BIT = "3bit"
    ONE_HOT = "onehot"


class FormatError(ValueError):
    """Raised when a sequence cannot be represented in a format."""


def encode_output(codes: np.ndarray, fmt: OutputFormat):
    """Encode base codes into the requested output format."""
    codes = np.asarray(codes, dtype=np.uint8)
    if fmt is OutputFormat.ASCII:
        return seq.decode(codes)
    if fmt is OutputFormat.TWO_BIT:
        if (codes >= 4).any():
            raise FormatError("2-bit format cannot represent N bases")
        return pack_bits(codes, 2)
    if fmt is OutputFormat.THREE_BIT:
        return pack_bits(codes, 3)
    if fmt is OutputFormat.ONE_HOT:
        eye = np.eye(5, dtype=np.uint8)
        return eye[codes]
    raise FormatError(f"unknown format {fmt!r}")


def decode_output(data, fmt: OutputFormat, length: int) -> np.ndarray:
    """Invert :func:`encode_output` back to base codes."""
    if fmt is OutputFormat.ASCII:
        return seq.encode(data)
    if fmt is OutputFormat.TWO_BIT:
        return unpack_bits(data, 2, length)
    if fmt is OutputFormat.THREE_BIT:
        return unpack_bits(data, 3, length)
    if fmt is OutputFormat.ONE_HOT:
        return np.argmax(np.asarray(data), axis=1).astype(np.uint8)
    raise FormatError(f"unknown format {fmt!r}")


def bits_per_base(fmt: OutputFormat) -> float:
    """Output width per base, used by the hardware throughput model."""
    return {OutputFormat.ASCII: 8.0, OutputFormat.TWO_BIT: 2.0,
            OutputFormat.THREE_BIT: 3.0, OutputFormat.ONE_HOT: 40.0}[fmt]


def pack_bits(values: np.ndarray, width: int) -> bytes:
    """Pack small unsigned ints into a dense MSB-first bit array."""
    values = np.asarray(values, dtype=np.uint8)
    if values.size and int(values.max()) >= (1 << width):
        raise FormatError(f"value does not fit {width} bits")
    bits = ((values[:, None] >> np.arange(width - 1, -1, -1)) & 1)
    return np.packbits(bits.reshape(-1).astype(np.uint8)).tobytes()


def unpack_bits(data: bytes, width: int, count: int) -> np.ndarray:
    """Invert :func:`pack_bits` for ``count`` values."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                         count=width * count)
    weights = (1 << np.arange(width - 1, -1, -1)).astype(np.uint8)
    return (bits.reshape(-1, width) * weights).sum(axis=1).astype(np.uint8)


# ----------------------------------------------------------------------
# 3-bit packed payloads inside the block streams.  One parser each, for
# the reference walk and the numpy kernel alike: ``reader`` is the
# stream's ``BitReader``.
# ----------------------------------------------------------------------


def read_corner_payload(reader, w_rlen: int):
    """One corner-case payload off the ``corner`` stream:
    ``(n_runs, clip_start, clip_end)`` — ``(position, run length)`` N
    runs and the soft-clipped bases of either end."""
    has_n = reader.read(1)
    has_clip = reader.read(1)
    n_runs: list[tuple[int, int]] = []
    clip_s = clip_e = np.empty(0, dtype=np.uint8)
    if has_n:
        for _ in range(reader.read(8)):
            pos = reader.read(w_rlen)
            run = reader.read(8)
            n_runs.append((pos, run))
    if has_clip:
        len_s = reader.read(w_rlen)
        len_e = reader.read(w_rlen)
        total = len_s + len_e
        clip = unpack_bits(reader.read_bytes((3 * total + 7) // 8), 3,
                           total)
        clip_s, clip_e = clip[:len_s], clip[len_s:]
    return n_runs, clip_s, clip_e


def read_unmapped(reader, w_rlen: int, fixed_length: bool,
                  fixed_read_length: int) -> np.ndarray:
    """One raw-stored read off the ``unmapped`` stream."""
    length = fixed_read_length if fixed_length else reader.read(w_rlen)
    return unpack_bits(reader.read_bytes((3 * length + 7) // 8), 3, length)
