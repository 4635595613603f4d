"""Unit tests for de-novo consensus construction."""

import numpy as np

from repro.core import SAGeCompressor, SAGeConfig, SAGeDecompressor
from repro.genomics import sequence as seq
from repro.mapping import ReadMapper
from repro.mapping.consensus import denovo_consensus


class TestReferenceMode:
    def test_passthrough(self, rs3_small):
        # Reference mode: the archive's consensus is the supplied
        # reference, base for base.
        ref = rs3_small.reference
        archive = SAGeCompressor(ref, SAGeConfig(with_quality=False)) \
            .compress(rs3_small.read_set)
        assert np.array_equal(SAGeDecompressor(archive).consensus, ref)


class TestDenovo:
    def test_recovers_donor_from_clean_reads(self, clean_short_sim):
        sim = clean_short_sim
        consensus = denovo_consensus(sim.read_set, k=21)
        donor = sim.donor.sequence
        # The greedy walk should recover a contig covering most of the
        # donor; mapping the donor against it validates content.
        assert consensus.size > 0.5 * donor.size
        table = ReadMapper(consensus).map_batch(
            [read.codes for read in sim.read_set.reads[:60]])
        # Most reads should map with zero mismatches against the contig.
        total = int((~table.unmapped).sum())
        zero_cost = int((~table.unmapped & (table.cost == 0)).sum())
        assert total > 30
        assert zero_cost / total > 0.8

    def test_empty_read_set(self):
        from repro.genomics.reads import ReadSet
        assert denovo_consensus(ReadSet(), k=15).size == 0

    def test_max_length_respected(self):
        sim_consensus = None
        from repro.genomics.reads import Read, ReadSet
        rng = np.random.default_rng(0)
        genome = seq.random_sequence(2_000, rng)
        reads = [Read(genome[i:i + 100].copy())
                 for i in range(0, 1900, 10)]
        consensus = denovo_consensus(ReadSet(reads), k=21, max_length=300)
        assert consensus.size <= 300 + 2 * 21
