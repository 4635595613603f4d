"""DNA sequence primitives: alphabet, numeric encoding, reverse complement.

Sequences are represented throughout the library as ``numpy`` arrays of
``uint8`` codes (``A=0, C=1, G=2, T=3, N=4``).  This keeps the hot paths
(alignment, array encoding, bit packing) vectorizable while still allowing
cheap conversion to and from Python strings at the API boundary.
"""

from __future__ import annotations

import numpy as np

#: Canonical DNA alphabet, in code order.
ALPHABET = "ACGTN"

#: Number of unambiguous bases (A, C, G, T).
N_BASES = 4

#: Numeric code of the ambiguous base ``N``.
N_CODE = 4

# Lookups go through ``ndarray.take``: on a small table it is ~2.5x
# faster than fancy indexing, with the same bounds check.

# Code table: ASCII byte -> code.  Lowercase is accepted and normalized.
_ENCODE_TABLE = np.full(256, 255, dtype=np.uint8)
for _i, _ch in enumerate(ALPHABET):
    _ENCODE_TABLE[ord(_ch)] = _i
    _ENCODE_TABLE[ord(_ch.lower())] = _i

_DECODE_TABLE = np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8).copy()

# Complement of each code; N maps to itself.
COMPLEMENT = np.array([3, 2, 1, 0, 4], dtype=np.uint8)


class SequenceError(ValueError):
    """Raised when text cannot be interpreted as a DNA sequence."""


def encode(text: str | bytes) -> np.ndarray:
    """Encode a DNA string into a ``uint8`` code array.

    >>> encode("ACGTN").tolist()
    [0, 1, 2, 3, 4]
    """
    if isinstance(text, str):
        text = text.encode("ascii")
    raw = np.frombuffer(text, dtype=np.uint8)
    codes = _ENCODE_TABLE.take(raw)
    if codes.max(initial=0) == 255:
        bad = chr(int(raw[codes == 255][0]))
        raise SequenceError(f"invalid DNA character {bad!r}")
    return codes


def to_ascii(codes: np.ndarray) -> np.ndarray:
    """The upper-case ASCII byte of every code, as a ``uint8`` array."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size and codes.max() >= len(ALPHABET):
        raise SequenceError(f"invalid DNA code {int(codes.max())}")
    return _DECODE_TABLE.take(codes)


def decode(codes: np.ndarray) -> str:
    """Decode a code array back into an upper-case DNA string."""
    return to_ascii(codes).tobytes().decode("ascii")


def reverse_complement(codes: np.ndarray) -> np.ndarray:
    """Return the reverse complement of a code array (N stays N)."""
    codes = np.asarray(codes, dtype=np.uint8)
    return COMPLEMENT.take(codes[::-1])


def contains_n(codes: np.ndarray) -> bool:
    """True if the sequence contains at least one ambiguous (N) base."""
    codes = np.asarray(codes, dtype=np.uint8)
    return bool((codes == N_CODE).any())


def random_sequence(length: int, rng: np.random.Generator,
                    gc_content: float = 0.5) -> np.ndarray:
    """Generate a random DNA sequence of A/C/G/T codes.

    ``gc_content`` sets the combined probability of G and C, split evenly;
    A and T share the remainder.
    """
    if not 0.0 <= gc_content <= 1.0:
        raise ValueError("gc_content must be within [0, 1]")
    at = (1.0 - gc_content) / 2.0
    gc = gc_content / 2.0
    probs = [at, gc, gc, at]  # A, C, G, T
    return rng.choice(N_BASES, size=length, p=probs).astype(np.uint8)


def kmer_codes(codes: np.ndarray, k: int) -> np.ndarray:
    """Pack every k-mer of an A/C/G/T sequence into a ``uint64`` value.

    K-mers overlapping an N base are reported as ``2**(2k)`` (an
    out-of-range sentinel) so callers can mask them out.  ``k`` must be
    at most 31 so the packed value fits a ``uint64``.

    Built by doubling: windows of ``w`` bases pack into windows of
    ``2w`` with one shift, and the k-mer joins the windows of ``k``'s
    binary digits — ⌈log₂ k⌉ doublings and at most as many joins instead
    of ``k`` passes.  Over a concatenation of reads, the windows that
    cross a read boundary hold garbage; callers never sample them.
    """
    if not 1 <= k <= 31:
        raise ValueError("k must be in [1, 31]")
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.size - k + 1
    if n <= 0:
        return np.empty(0, dtype=np.uint64)
    # Packed in 32 bits while the sentinel fits: half the bytes moved.
    word = np.uint32 if 2 * k < 32 else np.uint64
    windows = np.bitwise_and(codes, 3, dtype=word)  # every width-1 window
    has_n = codes == N_CODE                         # ... and its N test
    vals, bad = np.zeros(n, dtype=word), np.zeros(n, dtype=bool)
    width, filled = 1, 0
    while True:
        if k & width:
            vals <<= word(2 * width)
            vals |= windows[filled:filled + n]
            bad |= has_n[filled:filled + n]
            filled += width
        if 2 * width > k:
            break
        windows = (windows[:-width] << word(2 * width)) | windows[width:]
        has_n = has_n[:-width] | has_n[width:]
        width *= 2
    vals[bad] = word(1) << word(2 * k)
    return vals.astype(np.uint64, copy=False)
