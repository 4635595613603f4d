"""Tests for the variant caller and the §5.1.5 quality-access analysis."""

import numpy as np
import pytest

from repro.analysis.variants import (call_variants,
                                     host_quality_headroom, pileup,
                                     quality_block_access)
from repro.genomics.reads import Read, ReadSet
from repro.genomics.reference import make_reference


@pytest.fixture(scope="module")
def snp_scenario():
    """Reads from a donor that differs from the reference by known SNPs."""
    rng = np.random.default_rng(21)
    reference = make_reference(8_000, rng)
    donor = reference.copy()
    true_sites = {}
    for pos in range(400, 7600, 800):
        alt = (int(donor[pos]) + 1) % 4
        donor[pos] = alt
        true_sites[pos] = alt
    reads = []
    for _ in range(700):
        start = int(rng.integers(0, donor.size - 100))
        reads.append(Read(donor[start:start + 100].copy()))
    return reference, ReadSet(reads), true_sites


class TestPileup:
    def test_depth_covers_genome(self, snp_scenario):
        reference, reads, _ = snp_scenario
        evidence = pileup(reads, reference)
        # ~8.75x expected coverage; interior positions must be covered.
        assert evidence.depth[1000:7000].min() >= 1
        assert 4 < evidence.depth.mean() < 14

    def test_alt_counts_at_true_sites(self, snp_scenario):
        reference, reads, true_sites = snp_scenario
        evidence = pileup(reads, reference)
        for pos, alt in true_sites.items():
            assert evidence.alt_counts[alt, pos] \
                >= 0.8 * evidence.depth[pos]


class TestCallVariants:
    def test_recovers_true_snps(self, snp_scenario):
        reference, reads, true_sites = snp_scenario
        calls = call_variants(reads, reference)
        called = {c.position: c.alt_base for c in calls
                  if c.kind == "sub"}
        found = sum(1 for pos, alt in true_sites.items()
                    if called.get(pos) == alt)
        assert found >= 0.9 * len(true_sites)

    def test_no_false_positives_on_clean_data(self):
        rng = np.random.default_rng(3)
        reference = make_reference(5_000, rng)
        reads = ReadSet([
            Read(reference[int(rng.integers(0, 4_900)):][:100].copy())
            for _ in range(300)])
        calls = call_variants(reads, reference)
        assert calls == []

    def test_detects_indel_variants(self):
        rng = np.random.default_rng(9)
        reference = make_reference(4_000, rng)
        donor = np.concatenate([reference[:2000],
                                reference[2004:]])  # 4-base deletion
        reads = ReadSet([
            Read(donor[int(rng.integers(0, donor.size - 100)):][:100]
                 .copy()) for _ in range(400)])
        calls = call_variants(reads, reference)
        del_calls = [c for c in calls if c.kind == "del"]
        assert any(abs(c.position - 2000) <= 4 for c in del_calls)

    def test_depth_threshold_respected(self, snp_scenario):
        reference, reads, _ = snp_scenario
        calls = call_variants(reads, reference, min_depth=10**6)
        assert calls == []


class TestQualityAccess:
    def test_sparse_variants_touch_few_blocks(self, snp_scenario):
        """§5.1.5: only blocks near variant sites are accessed."""
        reference, reads, _ = snp_scenario
        evidence = pileup(reads, reference)
        calls = call_variants(reads, reference)
        report = quality_block_access(reads, evidence, calls,
                                      block_size=1024)
        assert 0.0 < report.fraction < 0.9
        # With fewer, denser blocks the fraction rises monotonically.
        coarse = quality_block_access(reads, evidence, calls,
                                      block_size=16_384)
        assert coarse.fraction >= report.fraction - 1e-9

    def test_no_variants_no_access(self):
        rng = np.random.default_rng(5)
        reference = make_reference(3_000, rng)
        reads = ReadSet([Read(reference[100:200].copy())])
        evidence = pileup(reads, reference)
        report = quality_block_access(reads, evidence, [])
        assert report.accessed_blocks == 0
        assert report.fraction == 0.0

    def test_realistic_analog_fraction_small(self, rs2_small):
        """Low-diversity deep data: a small share of blocks accessed."""
        sim = rs2_small
        evidence = pileup(sim.read_set, sim.reference)
        calls = call_variants(sim.read_set, sim.reference,
                              min_alt_fraction=0.7)
        report = quality_block_access(sim.read_set, evidence, calls,
                                      block_size=1_024)
        assert report.fraction < 0.6

    def test_position_ordering_localizes_access(self, snp_scenario):
        """SAGe/Spring's read reordering (§5.1.3) is what makes the
        access pattern block-sparse: an input-ordered stream touches at
        least as many blocks."""
        reference, reads, _ = snp_scenario
        evidence = pileup(reads, reference)
        calls = call_variants(reads, reference)
        ordered = quality_block_access(reads, evidence, calls,
                                       block_size=1_024)
        unordered = quality_block_access(reads, evidence, calls,
                                         block_size=1_024,
                                         emission_order=False)
        assert ordered.accessed_blocks <= unordered.accessed_blocks
        assert ordered.fraction < 1.0


    def test_rejects_a_pileup_of_other_reads(self, snp_scenario):
        """A pileup of a subset does not describe the full set: its
        reads past the subset must not be dropped without a word."""
        reference, reads, _ = snp_scenario
        evidence = pileup(reads.subset(range(len(reads) // 2)), reference)
        calls = call_variants(reads, reference)
        assert calls
        with pytest.raises(ValueError, match="pileup covers 350 reads"):
            quality_block_access(reads, evidence, calls)


class TestHeadroom:
    def test_paper_17_percent(self):
        """Spring-class quality decode vs GEM gives the paper's ~17%."""
        headroom = host_quality_headroom()
        assert headroom == pytest.approx(0.173, abs=0.01)

    def test_scales_with_rates(self):
        assert host_quality_headroom(host_decode_bytes_per_s=2.4e9) \
            == pytest.approx(2 * host_quality_headroom())

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            host_quality_headroom(host_decode_bytes_per_s=0)
