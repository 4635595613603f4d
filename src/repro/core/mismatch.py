"""Shared codec types: optimization levels, size breakdown, stream names.

The compressor charges every bit it writes to one of the categories of the
paper's Fig. 17 so the ablation (NO, O1..O4) is a first-class output of
compression rather than a separate estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

#: Explicit 2-bit mismatch type codes (used below optimization level O3).
TYPE_SUB = 0
TYPE_INS = 1
TYPE_DEL = 2

#: 1-bit indel type codes (used with O3 type inference).
INDEL_INS = 0
INDEL_DEL = 1


class OptLevel(IntEnum):
    """The paper's cumulative optimization levels (Fig. 17)."""

    NO = 0   # raw mismatch info, fixed-width fields, input order
    O1 = 1   # + matching-position reorder/delta/tuning (§5.1.3)
    O2 = 2   # + mismatch position & count tuning, indel blocks (§5.1.1)
    O3 = 3   # + chimeric top-N and substitution type inference (§5.1.2)
    O4 = 4   # + corner-case marker via position-0 pseudo-mismatch (§5.1.4)

    @property
    def reorder(self) -> bool:
        """Reads reordered by matching position (delta-encodable)."""
        return self >= OptLevel.O1

    @property
    def tuned_mismatch(self) -> bool:
        """Mismatch positions/counts use tuned bit-width classes."""
        return self >= OptLevel.O2

    @property
    def indel_blocks(self) -> bool:
        """Indel runs stored as (first position, block length)."""
        return self >= OptLevel.O2

    @property
    def type_inference(self) -> bool:
        """Substitution types inferred from base-vs-consensus comparison."""
        return self >= OptLevel.O3

    @property
    def chimeric(self) -> bool:
        """Chimeric reads stored as up to top-N segments."""
        return self >= OptLevel.O3

    @property
    def corner_marker(self) -> bool:
        """Corner cases flagged by a position-0 pseudo-mismatch."""
        return self >= OptLevel.O4


#: Fig. 17 size-breakdown categories (bits charged per category).
CATEGORIES = (
    "matching_pos",     # MPA + MPGA + extra chimeric segment placements
    "mismatch_counts",  # per-read mismatch count fields
    "mismatch_pos",     # MMPA + MMPGA position/indel-length fields
    "mismatch_types",   # explicit types, indel bits, corner flag bits
    "mismatch_bases",   # substituted/marker/inserted base fields
    "contains_n",       # corner-case payloads: N runs and clips
    "read_length",      # per-read length fields (long reads)
    "rev",              # reverse-complement flags
    "unmapped",         # raw-stored unmapped reads
)

#: Categories that are not mismatch information (shown separately).
EXTRA_CATEGORIES = ("consensus", "header", "quality")


@dataclass
class SizeBreakdown:
    """Bits charged per category during compression."""

    bits: dict[str, int] = field(default_factory=dict)

    def charge(self, category: str, nbits: int) -> None:
        if category not in CATEGORIES and category not in EXTRA_CATEGORIES:
            raise KeyError(f"unknown size category {category!r}")
        self.bits[category] = self.bits.get(category, 0) + nbits

    def get(self, category: str) -> int:
        return self.bits.get(category, 0)

    @property
    def mismatch_info_bits(self) -> int:
        """Total over the Fig. 17 mismatch-information categories."""
        return sum(self.bits.get(c, 0) for c in CATEGORIES)
