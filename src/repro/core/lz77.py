"""LZ77 matching with a hash-chain matcher.

The token stream — (literal run, match length, match distance) — is the
front half of the DEFLATE-like general-purpose baseline.  The matcher is a
greedy hash-head design with LZ4-style skip acceleration so multi-megabyte
FASTQ blobs stay tractable in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _hash4(data: bytes, i: int) -> int:
    value = (data[i] | (data[i + 1] << 8) | (data[i + 2] << 16)
             | (data[i + 3] << 24))
    return ((value * 2654435761) >> 15) & _HASH_MASK


def tokenize(data: bytes, max_chain: int = 8) -> list[Token]:
    """Greedy LZ77 factorization of ``data``."""
    n = len(data)
    tokens: list[Token] = []
    if n < MIN_MATCH + 1:
        tokens.append(Token(bytes(data), 0, 0))
        return tokens

    head: dict[int, int] = {}
    i = 0
    literal_start = 0
    search_limit = n - MIN_MATCH
    step_trigger = 64          # literals before skip acceleration kicks in
    while i <= search_limit:
        h = _hash4(data, i)
        candidate = head.get(h, -1)
        head[h] = i
        match_len = 0
        if candidate >= 0 and i - candidate <= WINDOW \
                and data[candidate:candidate + MIN_MATCH] \
                == data[i:i + MIN_MATCH]:
            limit = min(MAX_MATCH, n - i)
            match_len = MIN_MATCH
            while match_len < limit \
                    and data[candidate + match_len] == data[i + match_len]:
                match_len += 1
        if match_len >= MIN_MATCH:
            tokens.append(Token(bytes(data[literal_start:i]), match_len,
                                i - candidate))
            # Index a few positions inside the match to keep chains fresh.
            end = i + match_len
            for j in range(i + 1, min(end, search_limit), 7):
                head[_hash4(data, j)] = j
            i = end
            literal_start = i
        else:
            run = i - literal_start
            i += 1 + (run >> 6 if run > step_trigger else 0)
    tokens.append(Token(bytes(data[literal_start:n]), 0, 0))
    return tokens
