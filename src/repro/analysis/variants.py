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

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

import numpy as np

from ..genomics.reads import ReadSet
from ..mapping import MapperConfig, MappingResult, make_mapper
from ..mapping.alignment import INS, SUB

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
    """Per-position evidence accumulated from mappings."""

    depth: np.ndarray                 # coverage per consensus position
    alt_counts: np.ndarray            # (4, L) substitution evidence
    indel_counts: dict[tuple[int, str], int] = field(default_factory=dict)
    mappings: list[MappingResult | None] = field(default_factory=list)


def pileup(read_set: ReadSet | Iterable[ReadSet], reference: np.ndarray,
           mapper_config: MapperConfig | None = None) -> Pileup:
    """Map every read and accumulate per-position evidence.

    ``read_set`` may be a stream of :class:`ReadSet` blocks (e.g. from
    ``SAGeDataset.blocks()``); evidence accumulates block by block and
    ``mappings`` keeps stream order, so downstream consumers see the
    same result as a whole-dataset pass.
    """
    reference = np.asarray(reference, dtype=np.uint8)
    mapper = make_mapper("auto", reference, mapper_config)
    depth = np.zeros(reference.size, dtype=np.int32)
    alt_counts = np.zeros((4, reference.size), dtype=np.int32)
    result = Pileup(depth=depth, alt_counts=alt_counts)

    blocks = [read_set] if isinstance(read_set, ReadSet) else read_set
    for mapping in chain.from_iterable(
            mapper.map_batch(block.codes, block.offsets) for block in blocks):
        result.mappings.append(None if mapping.unmapped else mapping)
        if mapping.unmapped:
            continue
        for segment in mapping.segments:
            start = segment.cons_start
            consumed = segment.length
            shift = 0
            for op in segment.ops:
                cons_pos = start + op.read_pos + shift
                if op.kind == SUB:
                    if cons_pos < reference.size and op.bases.size:
                        base = int(op.bases[0])
                        if base < 4:
                            alt_counts[base, cons_pos] += 1
                else:
                    # An insertion consumes read bases only, a deletion
                    # consensus bases only.
                    kind, step = ("ins", -op.length) if op.kind == INS \
                        else ("del", op.length)
                    key = (cons_pos, kind)
                    result.indel_counts[key] = \
                        result.indel_counts.get(key, 0) + 1
                    shift += step
                    consumed += step
            stop = min(reference.size, start + max(0, consumed))
            depth[start:stop] += 1
    return result


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
    """
    if not calls:
        total = max(1, -(-read_set.total_bases // block_size))
        return QualityAccessReport(total, 0, 0)

    pairs = list(zip(read_set.read_lengths().tolist(), evidence.mappings))
    if emission_order:
        def sort_key(pair):
            mapping = pair[1]
            if mapping is None:
                return (1, 0)
            return (0, mapping.segments[0].cons_start)
        pairs.sort(key=sort_key)

    site_positions = np.array(sorted(c.position for c in calls),
                              dtype=np.int64)
    accessed: set[int] = set()
    offset = 0
    for length, mapping in pairs:
        if mapping is not None:
            for segment in mapping.segments:
                lo = segment.cons_start - window
                hi = segment.cons_start + segment.length + window
                i = np.searchsorted(site_positions, lo)
                if i < site_positions.size and site_positions[i] < hi:
                    # Read overlaps a site: its quality bytes are read.
                    first_block = offset // block_size
                    last_block = (offset + length - 1) // block_size
                    accessed.update(range(first_block, last_block + 1))
                    break
        offset += length
    total_blocks = max(1, -(-offset // block_size))
    return QualityAccessReport(total_blocks, len(accessed),
                               len(calls))


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
