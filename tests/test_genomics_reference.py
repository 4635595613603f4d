"""Unit tests for repro.genomics.reference."""

import numpy as np
import pytest

from repro.genomics import sequence as seq
from repro.genomics.reference import (Variant, apply_variants, make_donor,
                                      make_reference)


class TestMakeReference:
    def test_length_and_alphabet(self):
        ref = make_reference(10_000, np.random.default_rng(0))
        assert ref.size == 10_000
        assert ref.max() < 4

    def test_deterministic_with_seed(self):
        a = make_reference(500, np.random.default_rng(42))
        b = make_reference(500, np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestApplyVariants:
    def test_substitution(self):
        ref = seq.encode("AAAA")
        donor = apply_variants(ref, [Variant(1, "sub", seq.encode("C"))])
        assert seq.decode(donor) == "ACAA"

    def test_insertion_before_position(self):
        ref = seq.encode("AAAA")
        donor = apply_variants(ref, [Variant(2, "ins", seq.encode("GG"))])
        assert seq.decode(donor) == "AAGGAA"

    def test_deletion(self):
        ref = seq.encode("ACGTACGT")
        donor = apply_variants(
            ref, [Variant(2, "del", np.empty(0, dtype=np.uint8), 3)])
        assert seq.decode(donor) == "ACCGT"

    def test_overlapping_variant_skipped(self):
        ref = seq.encode("ACGTACGT")
        variants = [
            Variant(1, "del", np.empty(0, dtype=np.uint8), 4),
            Variant(3, "sub", seq.encode("T")),  # inside the deletion
        ]
        # Deleting positions 1-4 leaves "A" + "CGT"; the substitution
        # overlapping the deletion is dropped.
        assert seq.decode(apply_variants(ref, variants)) == "ACGT"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            apply_variants(seq.encode("AAAA"),
                           [Variant(0, "dup", seq.encode("A"))])

    def test_no_variants_is_copy(self):
        ref = seq.encode("ACGT")
        donor = apply_variants(ref, [])
        assert np.array_equal(donor, ref)
        assert donor is not ref


class TestMakeDonor:
    def test_variant_density_tracks_rates(self):
        rng = np.random.default_rng(1)
        ref = make_reference(60_000, rng)
        donor = make_donor(ref, rng, snp_rate=0.002, indel_rate=0.0002)
        density = len(donor.variants) / ref.size
        assert 0.0010 < density < 0.0040

    def test_donor_differs_but_is_similar(self):
        rng = np.random.default_rng(2)
        ref = make_reference(20_000, rng)
        donor = make_donor(ref, rng, snp_rate=0.002)
        assert donor.sequence.size != 0
        assert not np.array_equal(donor.sequence, ref)
        # Length should stay within the indel budget.
        assert abs(int(donor.sequence.size) - 20_000) < 400

    def test_variants_sorted(self):
        rng = np.random.default_rng(3)
        donor = make_donor(make_reference(30_000, rng), rng)
        positions = [v.position for v in donor.variants]
        assert positions == sorted(positions)

    def test_zero_rates_identity(self):
        rng = np.random.default_rng(4)
        ref = make_reference(5_000, rng)
        donor = make_donor(ref, rng, snp_rate=0.0, indel_rate=0.0)
        assert np.array_equal(donor.sequence, ref)
        assert donor.variants == []

    def test_clustering_concentrates_variants(self):
        rng = np.random.default_rng(5)
        ref = make_reference(100_000, rng)
        donor = make_donor(ref, rng, snp_rate=0.003,
                           cluster_fraction=0.9)
        positions = np.array([v.position for v in donor.variants])
        # With 90% clustering, variance of gaps is much higher than
        # uniform: many tiny gaps inside clusters, huge gaps between.
        gaps = np.diff(np.sort(positions))
        assert (gaps <= 8).mean() > 0.15
