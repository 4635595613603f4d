"""Read simulator.

Generates synthetic read sets whose *compression-relevant statistics* match
the properties the paper measures on real data (§5.1):

- **Property 1** — mismatches cluster: variants cluster in the donor
  (``reference.make_donor``) and sequencing errors burst in regionally
  degraded windows.
- **Property 2** — most short reads have zero or few mismatches: short-read
  error rates are ~0.1%.
- **Property 3** — indel blocks are mostly length 1, but long blocks hold
  most indel bases: block lengths follow a 1-heavy mixture with a heavy tail.
- **Property 4** — chimeric reads join segments from distant loci.
- **Property 5** — substitutions dominate short-read errors.
- **Property 6** — reads redundantly sample the genome (sequencing depth),
  so sorted matching positions have tiny deltas.

Each simulated read records its ground truth (:class:`ReadTruth`) so mapper
and compressor tests can check against the generative model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import sequence as seq
from .reads import MAX_PHRED, Read, ReadSet
from .reference import DonorGenome, make_donor, make_reference


@dataclass
class SegmentTruth:
    """Ground truth for one mapped segment of a read."""

    donor_start: int
    length: int


@dataclass
class ReadTruth:
    """Ground truth for one simulated read."""

    segments: list[SegmentTruth]
    reverse: bool
    is_chimeric: bool
    n_errors: int
    has_n: bool = False
    clip_start: int = 0
    clip_end: int = 0


@dataclass
class QualityModel:
    """Distribution of quality scores and their coupling to errors.

    ``levels``/``weights`` give the marginal distribution for correct
    bases; erroneous bases draw from the lowest levels.  Short-read
    platforms bin qualities into few levels (RTA3-style); long-read
    platforms emit a wide, noisy range.
    """

    levels: np.ndarray
    weights: np.ndarray
    error_levels: np.ndarray

    @classmethod
    def illumina_binned(cls) -> "QualityModel":
        return cls(levels=np.array([37, 23, 12, 2], dtype=np.uint8),
                   weights=np.array([0.70, 0.17, 0.09, 0.04]),
                   error_levels=np.array([2, 12], dtype=np.uint8))

    @classmethod
    def illumina_legacy(cls) -> "QualityModel":
        """Older instrument: ~40 distinct values, mild skew (low CR)."""
        levels = np.arange(2, 42, dtype=np.uint8)
        raw = np.exp(0.06 * np.arange(40.0))
        return cls(levels=levels, weights=raw / raw.sum(),
                   error_levels=np.array([2, 3, 4], dtype=np.uint8))

    @classmethod
    def nanopore(cls) -> "QualityModel":
        """Long-read model: wide alphabet, near-flat (CR ~1.8-2.2)."""
        levels = np.arange(3, 31, dtype=np.uint8)
        raw = np.exp(-0.5 * ((np.arange(28.0) - 14.0) / 8.0) ** 2)
        return cls(levels=levels, weights=raw / raw.sum(),
                   error_levels=np.arange(3, 8, dtype=np.uint8))

    def sample(self, length: int, error_mask: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
        qual = rng.choice(self.levels, size=length, p=self.weights)
        n_err = int(error_mask.sum())
        if n_err:
            qual[error_mask] = rng.choice(self.error_levels, size=n_err)
        return np.minimum(qual, MAX_PHRED).astype(np.uint8)


@dataclass
class SimulationProfile:
    """Knobs describing a sequencing technology + experiment."""

    name: str = "short"
    # Read geometry
    read_length: int = 100          # fixed length (short reads)
    length_sigma: float = 0.0       # >0 => variable (log-normal) lengths
    min_length: int = 50
    max_length: int = 100_000
    # Error model
    sub_rate: float = 0.001
    ins_rate: float = 0.0001
    del_rate: float = 0.0001
    burst_rate: float = 0.0         # probability a read has a degraded window
    burst_error_rate: float = 0.05  # error rate inside the degraded window
    burst_span: int = 40
    # Indel block length mixture (Property 3)
    indel_block_single: float = 0.75   # P(block length == 1)
    indel_block_geom_p: float = 0.45   # geometric tail for short blocks
    indel_block_long_frac: float = 0.04  # heavy tail of long blocks
    indel_block_long_max: int = 120
    # Structural effects
    chimera_rate: float = 0.0
    chimera_segments: tuple[int, int] = (2, 3)
    n_rate: float = 0.0005          # per-read probability of containing Ns
    n_run_max: int = 3
    clip_rate: float = 0.0          # per-read probability of soft clips
    clip_max: int = 30
    reverse_fraction: float = 0.5
    # Donor variation
    snp_rate: float = 0.001
    indel_variant_rate: float = 0.0001
    # Quality
    quality: QualityModel = field(default_factory=QualityModel.illumina_binned)
    with_quality: bool = True

    @property
    def is_long_read(self) -> bool:
        return self.length_sigma > 0.0


def short_read_profile(**overrides) -> SimulationProfile:
    """Illumina-class profile: fixed length, ~0.1% substitution errors."""
    profile = SimulationProfile(
        name="short", read_length=100, sub_rate=0.001,
        ins_rate=0.00005, del_rate=0.00005,
        chimera_rate=0.0, clip_rate=0.002,
        quality=QualityModel.illumina_binned())
    for key, value in overrides.items():
        setattr(profile, key, value)
    return profile


def long_read_profile(**overrides) -> SimulationProfile:
    """Nanopore-class profile: variable length, ~1-5% indel-heavy errors."""
    profile = SimulationProfile(
        name="long", read_length=3000, length_sigma=0.45,
        min_length=500, max_length=25_000,
        sub_rate=0.010, ins_rate=0.006, del_rate=0.006,
        burst_rate=0.15, burst_error_rate=0.08, burst_span=120,
        chimera_rate=0.10, n_rate=0.002, clip_rate=0.01,
        quality=QualityModel.nanopore())
    for key, value in overrides.items():
        setattr(profile, key, value)
    return profile


@dataclass
class SimulationResult:
    """A simulated read set plus its generative ground truth."""

    read_set: ReadSet
    truth: list[ReadTruth]
    donor: DonorGenome

    @property
    def reference(self) -> np.ndarray:
        return self.donor.reference


class ReadSimulator:
    """Samples reads from a donor genome under a :class:`SimulationProfile`."""

    def __init__(self, profile: SimulationProfile,
                 rng: np.random.Generator | None = None):
        self.profile = profile
        self.rng = rng or np.random.default_rng()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def simulate(self, genome_length: int, n_reads: int,
                 name: str = "") -> SimulationResult:
        """Generate a fresh reference + donor and sample reads from it."""
        reference = make_reference(genome_length, self.rng)
        donor = make_donor(reference, self.rng,
                           snp_rate=self.profile.snp_rate,
                           indel_rate=self.profile.indel_variant_rate)
        return self.simulate_from_donor(donor, n_reads, name=name)

    def simulate_from_donor(self, donor: DonorGenome, n_reads: int,
                            name: str = "") -> SimulationResult:
        """Sample ``n_reads`` reads from an existing donor genome."""
        reads: list[Read] = []
        truths: list[ReadTruth] = []
        for i in range(n_reads):
            read, truth = self._one_read(donor.sequence, i)
            reads.append(read)
            truths.append(truth)
        read_set = ReadSet(reads, name=name or self.profile.name)
        return SimulationResult(read_set=read_set, truth=truths, donor=donor)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _draw_length(self) -> int:
        p = self.profile
        if not p.is_long_read:
            return p.read_length
        length = int(self.rng.lognormal(np.log(p.read_length), p.length_sigma))
        return int(np.clip(length, p.min_length, p.max_length))

    def _draw_fragment(self, donor: np.ndarray,
                       length: int) -> tuple[np.ndarray, int]:
        max_start = max(1, donor.size - length)
        start = int(self.rng.integers(0, max_start))
        frag = donor[start:start + length]
        return frag.copy(), start

    def _indel_block_length(self) -> int:
        p = self.profile
        roll = self.rng.random()
        if roll < p.indel_block_single:
            return 1
        if roll < p.indel_block_single + p.indel_block_long_frac:
            return int(self.rng.integers(10, p.indel_block_long_max + 1))
        return 2 + int(self.rng.geometric(p.indel_block_geom_p))

    def _apply_errors(self, frag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Introduce sequencing errors; returns (read codes, error mask)."""
        p = self.profile
        rng = self.rng
        length = frag.size

        sub_rate = np.full(length, p.sub_rate)
        indel_rate = np.full(length, p.ins_rate + p.del_rate)
        if p.burst_rate > 0 and rng.random() < p.burst_rate and length > 10:
            start = int(rng.integers(0, max(1, length - p.burst_span)))
            stop = min(length, start + p.burst_span)
            sub_rate[start:stop] += p.burst_error_rate * 0.6
            indel_rate[start:stop] += p.burst_error_rate * 0.4

        out: list[np.ndarray] = []
        err: list[np.ndarray] = []
        cursor = 0
        while cursor < length:
            base = frag[cursor]
            roll = rng.random()
            if roll < sub_rate[cursor]:
                new = (base + rng.integers(1, 4)) % 4
                out.append(np.array([new], dtype=np.uint8))
                err.append(np.array([True]))
                cursor += 1
            elif roll < sub_rate[cursor] + indel_rate[cursor]:
                block = self._indel_block_length()
                if rng.random() < p.ins_rate / max(p.ins_rate + p.del_rate,
                                                   1e-12):
                    ins = seq.random_sequence(block, rng)
                    out.append(ins)
                    err.append(np.ones(block, dtype=bool))
                    out.append(np.array([base], dtype=np.uint8))
                    err.append(np.array([False]))
                    cursor += 1
                else:
                    cursor += block  # deletion: skip donor bases
            else:
                out.append(np.array([base], dtype=np.uint8))
                err.append(np.array([False]))
                cursor += 1
        if not out:
            return np.empty(0, dtype=np.uint8), np.empty(0, dtype=bool)
        return np.concatenate(out), np.concatenate(err)

    def _fixed_length_read(self, donor: np.ndarray) -> tuple[
            np.ndarray, np.ndarray, np.ndarray, np.ndarray, SegmentTruth]:
        """Short-read path: the instrument emits exactly ``read_length``
        cycles, so clips and indel errors never change the total length."""
        p = self.profile
        rng = self.rng
        total = p.read_length
        clip_s_len = clip_e_len = 0
        if p.clip_rate > 0 and rng.random() < p.clip_rate:
            clip_s_len = int(rng.integers(5, min(p.clip_max, total // 3) + 1))
            if rng.random() < 0.5:
                clip_e_len = int(rng.integers(
                    5, min(p.clip_max, total // 3) + 1))
        core_target = total - clip_s_len - clip_e_len

        margin = 0 if (p.sub_rate + p.ins_rate + p.del_rate) == 0 else 16
        while True:
            frag, start = self._draw_fragment(donor, core_target + margin)
            codes, error_mask = self._apply_errors(frag)
            if codes.size >= core_target:
                break
            margin += 32  # heavy deletions; retry with a longer fragment
        codes = codes[:core_target]
        error_mask = error_mask[:core_target]
        clip_s = seq.random_sequence(clip_s_len, rng)
        clip_e = seq.random_sequence(clip_e_len, rng)
        return codes, error_mask, clip_s, clip_e, \
            SegmentTruth(start, core_target)

    def _draw_clips(self) -> tuple[np.ndarray, np.ndarray]:
        """Long-read soft clips: adapter-like random sequence at the
        start, and at the end of half the clipped reads."""
        p = self.profile
        rng = self.rng
        head = tail = np.empty(0, dtype=np.uint8)
        if p.clip_rate > 0 and rng.random() < p.clip_rate:
            head = seq.random_sequence(int(rng.integers(5, p.clip_max + 1)),
                                       rng)
            if rng.random() < 0.5:
                tail = seq.random_sequence(
                    int(rng.integers(5, p.clip_max + 1)), rng)
        return head, tail

    def _finish_read(self, index: int, codes: np.ndarray,
                     error_mask: np.ndarray,
                     clips: Callable[[], tuple[np.ndarray, np.ndarray]],
                     segments: list[SegmentTruth],
                     is_chimeric: bool) -> tuple[Read, ReadTruth]:
        """The tail every read shares: a short ``N`` run of ambiguity,
        the soft clips ``clips()`` returns, the strand, the scores.
        ``clips`` is called after the ``N`` draw because long reads draw
        their clips there, and the draw order fixes every simulated read."""
        p = self.profile
        rng = self.rng
        has_n = False
        if p.n_rate > 0 and rng.random() < p.n_rate and codes.size > 4:
            run = int(rng.integers(1, p.n_run_max + 1))
            pos = int(rng.integers(0, codes.size - run))
            codes[pos:pos + run] = seq.N_CODE
            error_mask[pos:pos + run] = True
            has_n = True

        head, tail = clips()
        codes = np.concatenate([head, codes, tail])
        error_mask = np.concatenate([np.zeros(head.size, dtype=bool),
                                     error_mask,
                                     np.zeros(tail.size, dtype=bool)])

        reverse = rng.random() < p.reverse_fraction
        if reverse:
            codes = seq.reverse_complement(codes)
            error_mask = error_mask[::-1].copy()

        quality = None
        if p.with_quality:
            quality = p.quality.sample(codes.size, error_mask, rng)

        read = Read(codes=codes, quality=quality, header=f"sim.{index}")
        truth = ReadTruth(segments=segments, reverse=reverse,
                          is_chimeric=is_chimeric,
                          n_errors=int(error_mask.sum()), has_n=has_n,
                          clip_start=head.size, clip_end=tail.size)
        return read, truth

    def _one_read(self, donor: np.ndarray, index: int) -> tuple[Read, ReadTruth]:
        p = self.profile
        rng = self.rng
        if not p.is_long_read:
            codes, error_mask, clip_s, clip_e, segment = \
                self._fixed_length_read(donor)
            return self._finish_read(index, codes, error_mask,
                                     lambda: (clip_s, clip_e), [segment],
                                     False)
        length = self._draw_length()

        segments: list[SegmentTruth] = []
        is_chimeric = (p.chimera_rate > 0 and rng.random() < p.chimera_rate
                       and length >= 4 * p.min_length)
        if is_chimeric:
            n_seg = int(rng.integers(p.chimera_segments[0],
                                     p.chimera_segments[1] + 1))
            cuts = np.sort(rng.choice(
                np.arange(1, max(2, length)), size=n_seg - 1, replace=False))
            seg_lens = np.diff(np.concatenate([[0], cuts, [length]]))
            parts = []
            for seg_len in seg_lens:
                frag, start = self._draw_fragment(donor, int(seg_len))
                parts.append(frag)
                segments.append(SegmentTruth(start, int(frag.size)))
            fragment = np.concatenate(parts)
        else:
            fragment, start = self._draw_fragment(donor, length)
            segments.append(SegmentTruth(start, int(fragment.size)))

        codes, error_mask = self._apply_errors(fragment)
        return self._finish_read(index, codes, error_mask, self._draw_clips,
                                 segments, is_chimeric)
