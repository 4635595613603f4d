"""Variant calling substrate + the §5.1.5 quality-access analysis.

The paper's argument for host-side quality-score decompression rests on
how downstream analysis uses quality scores: variant callers only read
the scores of bases *around candidate variant sites* identified during
mapping, which touches a tiny fraction of quality blocks (measured 0.03%
on average, ≤10.7% max), and host decode keeps up until ~17% of blocks
are accessed.  This module reproduces that pipeline functionally:

1. :func:`pileup` — per-consensus-position depth and alternate counts
   from lossless mappings;
2. :func:`call_variants` — a pileup variant caller (the downstream task
   of Fig. 2);
3. :func:`quality_block_access` — the fraction of the emission-ordered
   quality stream's blocks that calls actually touch;
4. :func:`host_quality_headroom` — the access fraction at which host
   quality decode would start to bottleneck the analysis pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..genomics.reads import ReadSet, run_index
from ..mapping import DEFAULT_MAPPER, MapperConfig, make_mapper
from ..mapping.alignment import DEL, SUB

#: Quality block size in scores.  The paper cites 25 MB blocks on real
#: data; the default here scales to synthetic analog sizes.
DEFAULT_QUALITY_BLOCK = 4096

#: Window of quality scores consulted around each variant site.
SITE_WINDOW = 10


@dataclass
class VariantCall:
    """One called variant against the consensus."""

    position: int            # consensus coordinate
    kind: str                # 'sub' | 'ins' | 'del'
    ref_base: int
    alt_base: int            # substituted/first inserted base (-1 for del)
    depth: int
    alt_count: int


@dataclass
class Pileup:
    """Per-position evidence accumulated from mappings, and where the
    reads were placed (columns in stream order)."""

    depth: np.ndarray                 # coverage per consensus position
    alt_counts: np.ndarray            # (4, L) substitution evidence
    indel_counts: dict[tuple[int, str], int]
    unmapped: np.ndarray              # per read
    #: Per segment of a mapped read, read after read (a read's in the
    #: mapper's order): the read's stream index, the consensus start and
    #: the length in read bases.
    seg_row: np.ndarray
    cons_start: np.ndarray
    seg_length: np.ndarray


def pileup(read_set: ReadSet | Iterable[ReadSet], reference: np.ndarray,
           mapper_config: MapperConfig | None = None) -> Pileup:
    """Map every read and accumulate per-position evidence.

    ``read_set`` may be a stream of :class:`ReadSet` blocks (e.g. from
    ``SAGeDataset.blocks()``); evidence accumulates block by block and
    the placement columns keep stream order, so downstream consumers see
    the same result as a whole-dataset pass.
    """
    reference = np.asarray(reference, dtype=np.uint8)
    size = reference.size
    mapper = make_mapper(DEFAULT_MAPPER, reference, mapper_config)
    edges = np.zeros(size + 1, dtype=np.int64)      # depth, differenced
    alt_counts = np.zeros((4, size), dtype=np.int32)
    none = np.empty(0, dtype=np.int64)
    indels = [none]                                 # 2 * offset + is_del
    columns = [(np.empty(0, dtype=bool), none, none, none)]
    n_reads = 0

    blocks = [read_set] if isinstance(read_set, ReadSet) else read_set
    for block in blocks:
        mapped = mapper.map_batch(block.codes, block.offsets)
        # A segment covers its consensus span, clipped to the reference.
        start = mapped.cons_start
        stop = np.minimum(size, np.maximum(start, mapped.cons_end()))
        live = start < stop
        edges += np.bincount(start[live], minlength=size + 1) \
            - np.bincount(stop[live], minlength=size + 1)
        # A substitution counts its read base (not N) where it sits.
        cons_at, read_at = mapped.placements()
        sub = mapped.kind == SUB
        at = cons_at[sub]
        base = mapped.oriented(mapped.seg_row[mapped.op_seg[sub]],
                               read_at[sub])
        seen = (at < size) & (base < 4)
        np.add.at(alt_counts, (base[seen], at[seen]), 1)
        indels.append(2 * cons_at[~sub]
                      + (mapped.kind[~sub] == DEL))
        columns.append((mapped.unmapped, n_reads + mapped.seg_row, start,
                        mapped.read_end - mapped.read_start))
        n_reads += len(mapped)

    keys, counts = np.unique(np.concatenate(indels), return_counts=True)
    return Pileup(
        np.cumsum(edges[:-1]).astype(np.int32), alt_counts,
        {(key >> 1, "del" if key & 1 else "ins"): count
         for key, count in zip(keys.tolist(), counts.tolist())},
        *map(np.concatenate, zip(*columns)))


def call_variants(read_set: ReadSet | Iterable[ReadSet],
                  reference: np.ndarray,
                  min_depth: int = 4, min_alt_fraction: float = 0.5,
                  mapper_config: MapperConfig | None = None,
                  evidence: Pileup | None = None) -> list[VariantCall]:
    """Call variants from pileup evidence (downstream analysis of Fig. 2)."""
    reference = np.asarray(reference, dtype=np.uint8)
    if evidence is None:
        evidence = pileup(read_set, reference, mapper_config)
    calls: list[VariantCall] = []

    total_alt = evidence.alt_counts.sum(axis=0)
    candidates = np.nonzero(total_alt >= 2)[0]
    for pos in candidates:
        depth = int(evidence.depth[pos])
        if depth < min_depth:
            continue
        best_base = int(np.argmax(evidence.alt_counts[:, pos]))
        alt = int(evidence.alt_counts[best_base, pos])
        if alt / depth >= min_alt_fraction:
            calls.append(VariantCall(
                position=int(pos), kind="sub",
                ref_base=int(reference[pos]), alt_base=best_base,
                depth=depth, alt_count=alt))

    for (pos, kind), count in sorted(evidence.indel_counts.items()):
        if pos >= reference.size:
            continue
        depth = int(evidence.depth[pos])
        if depth >= min_depth and count / depth >= min_alt_fraction:
            calls.append(VariantCall(
                position=int(pos), kind=kind,
                ref_base=int(reference[pos]), alt_base=-1,
                depth=depth, alt_count=count))
    calls.sort(key=lambda c: c.position)
    return calls


# ----------------------------------------------------------------------
# §5.1.5 — quality-score access analysis
# ----------------------------------------------------------------------


@dataclass
class QualityAccessReport:
    """Which quality blocks downstream analysis actually reads."""

    n_blocks: int
    accessed_blocks: int
    n_sites: int

    @property
    def fraction(self) -> float:
        return self.accessed_blocks / max(1, self.n_blocks)


def quality_block_access(read_set: ReadSet, evidence: Pileup,
                         calls: list[VariantCall],
                         block_size: int = DEFAULT_QUALITY_BLOCK,
                         window: int = SITE_WINDOW,
                         emission_order: bool = True) -> QualityAccessReport:
    """Fraction of quality blocks holding scores near variant sites.

    The quality stream concatenates per-read scores; a block is accessed
    if any contained score belongs to a read overlapping (within
    ``window``) a called variant site (§5.1.5: subsequent steps "only
    need quality scores from the positions surrounding mismatches").

    ``emission_order=True`` lays the stream out the way SAGe and Spring
    store it — reads sorted by matching position (§5.1.3) — which packs
    the reads covering one site into few, contiguous blocks.  Passing
    ``False`` models an input-ordered stream for comparison.
    ``evidence`` is the pileup of ``read_set``: one covering a different
    number of reads is a ``ValueError``.
    """
    lengths = read_set.read_lengths()
    if lengths.size != evidence.unmapped.size:
        raise ValueError(f"the pileup covers {evidence.unmapped.size} "
                         f"reads, the read set holds {lengths.size}")
    total = max(1, -(-read_set.total_bases // block_size))
    if not calls:
        return QualityAccessReport(total, 0, 0)

    order = np.arange(lengths.size)
    if emission_order:
        # Mapped reads by their first segment's consensus start, then the
        # unmapped ones, each in stream order among equals.
        heads = np.diff(evidence.seg_row, prepend=-1) != 0
        first = np.zeros(lengths.size, dtype=np.int64)
        first[evidence.seg_row[heads]] = evidence.cons_start[heads]
        order = np.lexsort((first, evidence.unmapped))
    offset = np.empty_like(lengths)
    offset[order] = np.cumsum(lengths[order]) - lengths[order]

    # A read overlapping (within ``window``) a site has its scores read.
    sites = np.sort(np.array([c.position for c in calls], dtype=np.int64))
    near = np.searchsorted(sites, evidence.cons_start
                           + evidence.seg_length + window) \
        > np.searchsorted(sites, evidence.cons_start - window)
    hit = np.unique(evidence.seg_row[near])
    first_block = offset[hit] // block_size
    n_blocks = (offset[hit] + lengths[hit] - 1) // block_size \
        - first_block + 1
    accessed = np.unique(run_index(first_block, np.maximum(0, n_blocks)))
    return QualityAccessReport(total, accessed.size, len(calls))


def host_quality_headroom(host_decode_bytes_per_s: float = 1.2e9,
                          analysis_bases_per_s: float = 6.92e9,
                          qual_bytes_per_base: float = 1.0) -> float:
    """Maximum accessed-fraction before host quality decode bottlenecks.

    Quality decode runs on the host, pipelined with mapping (§5.1.5);
    it stays off the critical path while
    ``fraction × total_bases × qual_bytes_per_base / host_rate <=
    total_bases / analysis_rate``.  With Spring-class quality decode
    (1.2 GB/s) against GEM (6.92 Gbase/s) this gives the paper's ~17%
    safety margin.
    """
    if host_decode_bytes_per_s <= 0 or analysis_bases_per_s <= 0:
        raise ValueError("rates must be positive")
    return host_decode_bytes_per_s / (analysis_bases_per_s
                                      * qual_bytes_per_base)
