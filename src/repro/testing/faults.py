"""Deterministic archive fault injectors.

The robustness contract of the checksummed (v4/v5) container is a
*property*: for any archive and any byte-level damage, decoding either
fails with a typed :class:`~repro.core.errors.SAGeError` or produces
output identical to the undamaged decode — never silent wrong FASTQ.
Properties need adversaries; this module is the adversary.

Each injector takes the archive blob and a seeded :class:`random.Random`
and returns a :class:`FaultReport` carrying the damaged blob plus where
and how it was damaged, so a failing test case reproduces from its seed
alone.  ``region`` restricts damage to a byte range — e.g. one block's
payload span from the archive index, which is how the skip-recovery
tests know exactly which blocks an injection could have touched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["FAULT_KINDS", "FaultReport", "bit_flip", "byte_swap",
           "inject", "random_fault", "truncate", "zero_region"]


@dataclass(frozen=True)
class FaultReport:
    """One injected fault: the damaged blob and what was done to it."""

    kind: str
    offset: int        # first damaged byte
    length: int        # damaged span in bytes (0 for pure truncation)
    blob: bytes        # the damaged archive
    changed: bool      # False when the injection was a byte-level no-op

    def __repr__(self) -> str:  # compact: blobs are noise in test output
        return (f"FaultReport(kind={self.kind!r}, offset={self.offset}, "
                f"length={self.length}, changed={self.changed}, "
                f"nbytes={len(self.blob)})")


def _resolve_region(blob: bytes, region: tuple[int, int] | None
                    ) -> tuple[int, int]:
    """Clamp ``region`` to the blob; default to everything past the
    5-byte magic+version prologue (damaging those is a separate,
    already-deterministic test: bad magic / unknown version)."""
    start, end = region if region is not None else (5, len(blob))
    start = max(0, min(start, len(blob)))
    end = max(start, min(end, len(blob)))
    if start >= end:
        raise ValueError(f"empty fault region {start}:{end} "
                         f"for a {len(blob)}-byte blob")
    return start, end


def bit_flip(blob: bytes, rng: random.Random, *,
             region: tuple[int, int] | None = None) -> FaultReport:
    """Flip one random bit — the canonical single-event upset."""
    start, end = _resolve_region(blob, region)
    offset = rng.randrange(start, end)
    bit = rng.randrange(8)
    damaged = bytearray(blob)
    damaged[offset] ^= 1 << bit
    return FaultReport("bit_flip", offset, 1, bytes(damaged), True)


def zero_region(blob: bytes, rng: random.Random, *,
                region: tuple[int, int] | None = None,
                max_len: int = 16) -> FaultReport:
    """Zero a short random run of bytes (a dropped/blank sector)."""
    start, end = _resolve_region(blob, region)
    offset = rng.randrange(start, end)
    length = min(rng.randint(1, max_len), end - offset)
    damaged = bytearray(blob)
    changed = any(damaged[offset:offset + length])
    damaged[offset:offset + length] = bytes(length)
    return FaultReport("zero_region", offset, length, bytes(damaged),
                       changed)


def byte_swap(blob: bytes, rng: random.Random, *,
              region: tuple[int, int] | None = None) -> FaultReport:
    """Swap two random bytes inside the region (scrambled transfer)."""
    start, end = _resolve_region(blob, region)
    a = rng.randrange(start, end)
    b = rng.randrange(start, end)
    damaged = bytearray(blob)
    damaged[a], damaged[b] = damaged[b], damaged[a]
    return FaultReport("byte_swap", min(a, b), abs(a - b) + 1,
                       bytes(damaged), damaged[a] != blob[a])


def truncate(blob: bytes, rng: random.Random, *,
             region: tuple[int, int] | None = None) -> FaultReport:
    """Cut the blob short at a random point (interrupted write/read)."""
    start, end = _resolve_region(blob, region)
    cut = rng.randrange(start, end)
    return FaultReport("truncate", cut, 0, blob[:cut],
                       cut < len(blob))


#: Injector registry, in a stable order for seed matrices.
FAULT_KINDS = ("bit_flip", "zero_region", "byte_swap", "truncate")

_INJECTORS = {"bit_flip": bit_flip, "zero_region": zero_region,
              "byte_swap": byte_swap, "truncate": truncate}


def inject(blob: bytes, kind: str, rng: random.Random, *,
           region: tuple[int, int] | None = None) -> FaultReport:
    """Run the named injector (one of :data:`FAULT_KINDS`)."""
    try:
        injector = _INJECTORS[kind]
    except KeyError:
        raise ValueError(f"unknown fault kind {kind!r}; "
                         f"expected one of {FAULT_KINDS}") from None
    return injector(blob, rng, region=region)


def random_fault(blob: bytes, rng: random.Random, *,
                 region: tuple[int, int] | None = None,
                 kinds: tuple[str, ...] = FAULT_KINDS) -> FaultReport:
    """Inject one fault of a randomly chosen kind."""
    return inject(blob, rng.choice(kinds), rng, region=region)
