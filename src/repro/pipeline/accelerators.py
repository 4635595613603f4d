"""Genome-analysis accelerator models: GEM and the GenStore ISF (§7).

GEM [150] is the read-mapping accelerator whose reported throughput the
paper feeds into its simulator; GenStore [145] is the in-storage filter
(ISF) that discards reads not needing expensive mapping before they leave
the SSD.  The ISF here is both a *timing model* (filter fraction + rate)
and a *functional model* (exact-match filtering against the reference,
usable on real read sets in tests and examples).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..genomics import sequence as seq
from ..genomics.reads import ReadSet
from ..hardware.energy import ANALYSIS_ACC, PowerSpec
from ..mapping.kmer_index import KmerIndex

#: GEM short-read mapping throughput (Fig. 1: 69,200 KReads/s at ~100 bp).
GEM_SHORT_READS_PER_S = 69_200e3
GEM_SHORT_READ_LENGTH = 100

#: Long-read mapping is chaining/alignment heavy; GEM-class reconfigurable
#: arrays sustain a lower per-base rate on long reads.
GEM_LONG_BASES_PER_S = 2.6e9

#: Software baseline (minimap2 class, Fig. 1: 446 KReads/s).
SOFTWARE_MAPPER_READS_PER_S = 446e3


@dataclass(frozen=True)
class AnalysisAccelerator:
    """Throughput/power model of a mapping accelerator."""

    name: str
    short_bases_per_s: float
    long_bases_per_s: float
    power: PowerSpec = ANALYSIS_ACC

    def bases_per_s(self, long_reads: bool) -> float:
        return self.long_bases_per_s if long_reads \
            else self.short_bases_per_s


def gem() -> AnalysisAccelerator:
    """GEM read-mapping accelerator (throughput from its paper)."""
    return AnalysisAccelerator(
        "GEM", GEM_SHORT_READS_PER_S * GEM_SHORT_READ_LENGTH,
        GEM_LONG_BASES_PER_S)


def software_mapper() -> AnalysisAccelerator:
    """State-of-the-art software mapper (Fig. 1 baseline)."""
    rate = SOFTWARE_MAPPER_READS_PER_S * GEM_SHORT_READ_LENGTH
    return AnalysisAccelerator("minimap2-class", rate, rate * 0.5,
                               PowerSpec("host-cpu-mapper", 225.0, 90.0))


# ----------------------------------------------------------------------
# GenStore in-storage filter
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ISFModel:
    """Timing model of the GenStore in-storage filter.

    ``filter_fraction`` is the share of reads fully handled inside the
    SSD; only the remainder crosses the host link for full mapping.
    Short reads use GenStore-EM (hash-based exact matching, near line
    rate); long reads use GenStore-NM (in-SSD chaining, slower) — which
    is why more SSDs help the long-read datasets in Fig. 15.
    """

    filter_fraction: float
    short_bases_per_s: float = 11.0e9   # GenStore-EM scan rate per SSD
    long_bases_per_s: float = 4.0e9     # GenStore-NM chaining rate per SSD

    def __post_init__(self) -> None:
        if not 0.0 <= self.filter_fraction < 1.0:
            raise ValueError("filter fraction must be in [0, 1)")

    def bases_per_s(self, long_reads: bool) -> float:
        return self.long_bases_per_s if long_reads \
            else self.short_bases_per_s

    def surviving_fraction(self) -> float:
        return 1.0 - self.filter_fraction


def measure_filter_fraction(read_set: ReadSet, reference: np.ndarray,
                            k: int = 31) -> float:
    """Functional GenStore-EM filter: exact full-length matches.

    A read is filtered when it (or its reverse complement) occurs verbatim
    in the reference.  Seeding uses one k-mer lookup followed by direct
    verification, mirroring GenStore's in-flash exact-match scan.
    """
    if len(read_set) == 0:
        return 0.0
    reference = np.asarray(reference, dtype=np.uint8)
    index = KmerIndex(reference, k=k, max_occurrences=64)
    filtered = 0
    for codes in read_set.read_codes():
        if _matches_exactly(codes, reference, index, k) or \
                _matches_exactly(seq.reverse_complement(codes),
                                 reference, index, k):
            filtered += 1
    return filtered / len(read_set)


def _matches_exactly(codes: np.ndarray, reference: np.ndarray,
                     index: KmerIndex, k: int) -> bool:
    if codes.size < k or seq.contains_n(codes):
        return False
    hits = index.lookup(codes[:k], stride=1)
    for cons_pos in hits.cons_pos:
        start = int(cons_pos)
        end = start + codes.size
        if end <= reference.size and \
                np.array_equal(reference[start:end], codes):
            return True
    return False
