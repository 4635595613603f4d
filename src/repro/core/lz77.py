"""LZ77 matching with a hash-chain matcher.

The token stream — (literal run, match length, match distance) — is the
front half of the DEFLATE-like general-purpose baseline.  The matcher is a
greedy hash-head design with LZ4-style skip acceleration so multi-megabyte
FASTQ blobs stay tractable in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_MATCH = 4
MAX_MATCH = 258
WINDOW = 1 << 15          # 32 KiB DEFLATE window
_HASH_BITS = 17
_HASH_MASK = (1 << _HASH_BITS) - 1


@dataclass
class Token:
    """One LZ77 token: ``literals`` then a back-reference (or end)."""

    literals: bytes
    match_length: int = 0   # 0 => stream end (no match)
    distance: int = 0


def _words(data: bytes) -> np.ndarray:
    """The little-endian 4-byte word at each position (``n - 3`` of
    them)."""
    b = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    return b[:-3] | (b[1:-2] << 8) | (b[2:-1] << 16) | (b[3:] << 24)


def tokenize(data: bytes, max_chain: int = 8) -> list[Token]:
    """Greedy LZ77 factorization of ``data``.

    Each position's 4-byte word and its hash (the word times a Knuth
    multiplier; the product fits 64 bits) are computed up front; a
    candidate is checked and its match extended a word at a time, then
    byte by byte to the first difference.
    """
    n = len(data)
    tokens: list[Token] = []
    if n < MIN_MATCH + 1:
        tokens.append(Token(bytes(data), 0, 0))
        return tokens

    value = _words(data)
    hashes = ((value * 2654435761 >> 15) & _HASH_MASK).tolist()
    words = value.tolist()
    head: dict[int, int] = {}
    i = 0
    literal_start = 0
    search_limit = n - MIN_MATCH
    step_trigger = 64          # literals before skip acceleration kicks in
    while i <= search_limit:
        h = hashes[i]
        candidate = head.get(h, -1)
        head[h] = i
        if candidate >= 0 and i - candidate <= WINDOW \
                and words[candidate] == words[i]:
            limit = n - i if n - i < MAX_MATCH else MAX_MATCH
            match_len = MIN_MATCH
            while match_len + 4 <= limit \
                    and words[candidate + match_len] == words[i + match_len]:
                match_len += 4
            while match_len < limit \
                    and data[candidate + match_len] == data[i + match_len]:
                match_len += 1
            tokens.append(Token(bytes(data[literal_start:i]), match_len,
                                i - candidate))
            # Index a few positions inside the match to keep chains fresh.
            end = i + match_len
            for j in range(i + 1, end if end < search_limit
                           else search_limit, 7):
                head[hashes[j]] = j
            i = end
            literal_start = i
        else:
            run = i - literal_start
            i += 1 + (run >> 6 if run > step_trigger else 0)
    tokens.append(Token(bytes(data[literal_start:n]), 0, 0))
    return tokens
