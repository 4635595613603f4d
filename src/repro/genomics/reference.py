"""Reference and donor genome generation.

Compression-relevant genomic structure comes from two layers (§5.1 of the
paper): a *reference* genome (the consensus the compressor aligns against)
and a *donor* genome (the organism actually sequenced), which differs from
the reference by genetic variants.  Variants cluster spatially (Property 1:
"genetic mutations tend to cluster in some regions of the genome"), which
is what makes delta-encoded mismatch positions small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sequence as seq


@dataclass
class Variant:
    """A single germline variant applied to the reference."""

    position: int           # reference coordinate
    kind: str               # 'sub' | 'ins' | 'del'
    bases: np.ndarray       # substituted/inserted bases (empty for del)
    length: int = 1         # deleted length for 'del'


@dataclass
class DonorGenome:
    """A donor genome plus the variants that produced it."""

    reference: np.ndarray
    sequence: np.ndarray
    variants: list[Variant] = field(default_factory=list)


def make_reference(length: int, rng: np.random.Generator,
                   gc_content: float = 0.42) -> np.ndarray:
    """Generate a reference genome of A/C/G/T codes.

    The default GC content matches the human-genome ballpark (~41%).
    """
    return seq.random_sequence(length, rng, gc_content=gc_content)


def _clustered_positions(genome_len: int, count: int,
                         rng: np.random.Generator,
                         cluster_fraction: float = 0.6,
                         n_clusters: int | None = None,
                         cluster_span: int = 400) -> np.ndarray:
    """Draw variant positions from a uniform + clustered mixture.

    A fraction of positions land inside a small number of hotspot windows
    (transposable-element / hypermutable regions); the rest are uniform.
    """
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    if n_clusters is None:
        n_clusters = max(1, genome_len // 5000)
    n_clustered = int(round(count * cluster_fraction))
    n_uniform = count - n_clustered
    uniform = rng.integers(0, genome_len, size=n_uniform)
    centers = rng.integers(0, genome_len, size=n_clusters)
    chosen = rng.choice(centers, size=n_clustered)
    offsets = rng.integers(-cluster_span // 2, cluster_span // 2 + 1,
                           size=n_clustered)
    clustered = np.clip(chosen + offsets, 0, genome_len - 1)
    positions = np.concatenate([uniform, clustered])
    return np.unique(positions)


def make_donor(reference: np.ndarray, rng: np.random.Generator,
               snp_rate: float = 0.001, indel_rate: float = 0.0001,
               max_indel: int = 8,
               cluster_fraction: float = 0.6) -> DonorGenome:
    """Derive a donor genome from a reference by applying variants.

    ``snp_rate`` / ``indel_rate`` are per-base probabilities; variant
    positions follow the clustered spatial model (Property 1).
    """
    glen = int(reference.size)
    n_snps = rng.binomial(glen, snp_rate) if glen else 0
    n_indels = rng.binomial(glen, indel_rate) if glen else 0

    snp_pos = _clustered_positions(glen, n_snps, rng, cluster_fraction)
    indel_pos = _clustered_positions(glen, n_indels, rng, cluster_fraction)
    indel_pos = np.setdiff1d(indel_pos, snp_pos)

    variants: list[Variant] = []
    for pos in snp_pos:
        old = reference[pos]
        new = (old + rng.integers(1, 4)) % 4
        variants.append(Variant(int(pos), "sub",
                                np.array([new], dtype=np.uint8)))
    for pos in indel_pos:
        length = int(rng.integers(1, max_indel + 1))
        if rng.random() < 0.5:
            bases = seq.random_sequence(length, rng)
            variants.append(Variant(int(pos), "ins", bases))
        else:
            length = min(length, glen - int(pos))
            if length > 0:
                variants.append(Variant(int(pos), "del",
                                        np.empty(0, dtype=np.uint8), length))

    variants.sort(key=lambda v: v.position)
    donor = apply_variants(reference, variants)
    return DonorGenome(reference=reference, sequence=donor, variants=variants)


def apply_variants(reference: np.ndarray,
                   variants: list[Variant]) -> np.ndarray:
    """Materialize a donor sequence by applying sorted variants."""
    pieces: list[np.ndarray] = []
    cursor = 0
    for var in variants:
        if var.position < cursor:
            continue  # overlapping a previous deletion; skip
        pieces.append(reference[cursor:var.position])
        if var.kind == "sub":
            pieces.append(var.bases)
            cursor = var.position + 1
        elif var.kind == "ins":
            pieces.append(var.bases)
            pieces.append(reference[var.position:var.position + 1])
            cursor = var.position + 1
        elif var.kind == "del":
            cursor = var.position + var.length
        else:
            raise ValueError(f"unknown variant kind {var.kind!r}")
    pieces.append(reference[cursor:])
    if not pieces:
        return reference.copy()
    return np.concatenate(pieces).astype(np.uint8)
