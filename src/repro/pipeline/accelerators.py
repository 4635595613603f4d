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
from ..genomics.reads import ReadSet, run_index
from ..hardware.energy import ANALYSIS_ACC, PowerSpec
from ..mapping.kmer_index import KmerIndex
from ..mapping.mapper import MapperConfig

#: GenStore-EM's k: a read shorter than this is never filtered.
EXACT_MATCH_MIN_LENGTH = 31

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


def measure_filter_fraction(read_set: ReadSet,
                            reference: np.ndarray) -> float:
    """Functional GenStore-EM filter: exact full-length matches.

    A read is filtered when it (or its reverse complement) occurs verbatim
    in the reference; a read shorter than :data:`EXACT_MATCH_MIN_LENGTH`
    or holding an ``N`` never is.  Over the block's columns in one pass:
    the first k-mer of every read and of its reverse complement is
    resolved in one query of the mapper's k-mer index, every occurrence
    is a candidate, and every candidate window is verified base for base
    with one gather.
    """
    n = len(read_set)
    if n == 0:
        return 0.0
    reference = np.asarray(reference, dtype=np.uint8)
    k = MapperConfig().k
    index = KmerIndex(reference, k=k)
    codes, offsets = read_set.codes, read_set.offsets
    lengths = read_set.read_lengths()
    has_n = np.bincount(np.searchsorted(offsets, np.flatnonzero(
        codes == seq.N_CODE), "right") - 1, minlength=n) > 0
    rows = np.flatnonzero((lengths >= EXACT_MATCH_MIN_LENGTH) & ~has_n)
    # Both strands as one column: behind the forward bases, their
    # reverse complement holds read i's from 2 * total - offsets[i + 1].
    strands = np.concatenate([codes, seq.reverse_complement(codes)])
    starts = np.concatenate([offsets[rows],
                             2 * codes.size - offsets[rows + 1]])
    span = np.tile(lengths[rows], 2)
    lo, counts = index.query_ranges(seq.kmer_codes(strands, k)[starts])
    query = np.repeat(np.arange(starts.size), counts)
    at = index.hit_positions(lo, counts)
    fits = at + span[query] <= reference.size
    query, at = query[fits], at[fits]
    mismatched = reference[run_index(at, span[query])] \
        != strands[run_index(starts[query], span[query])]
    exact = np.bincount(np.repeat(np.arange(query.size), span[query]),
                        weights=mismatched, minlength=query.size) == 0
    filtered = np.unique(rows[query[exact] % rows.size])
    return filtered.size / n
