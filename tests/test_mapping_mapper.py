"""Integration tests for the read mapper (seed-chain-extend)."""

import numpy as np
import pytest

from repro.genomics import sequence as seq
from repro.genomics.reference import make_reference
from repro.mapping import MapperConfig, ReadMapper, alignment, reconstruct
from repro.mapping.kmer_index import KmerIndex


class TestKmerIndex:
    def test_lookup_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        cons = make_reference(2_000, rng)
        index = KmerIndex(cons, k=11)
        read = cons[500:560]
        hits = index.lookup(read, stride=1)
        for r, c in zip(hits.read_pos, hits.cons_pos):
            assert np.array_equal(read[r:r + 11], cons[c:c + 11])
        # The diagonal hit must be present for every queried k-mer.
        diag_hits = set(zip(hits.read_pos.tolist(), hits.cons_pos.tolist()))
        for r in range(60 - 11 + 1):
            assert (r, 500 + r) in diag_hits

    def test_stride_reduces_queries(self):
        rng = np.random.default_rng(1)
        cons = make_reference(2_000, rng)
        index = KmerIndex(cons, k=11)
        read = cons[100:200]
        full = index.lookup(read, stride=1)
        strided = index.lookup(read, stride=4)
        assert len(strided) < len(full)

    def test_n_kmers_skipped(self):
        rng = np.random.default_rng(2)
        cons = make_reference(1_000, rng)
        index = KmerIndex(cons, k=11)
        read = cons[100:150].copy()
        read[:] = seq.N_CODE
        assert len(index.lookup(read)) == 0

    def test_repeat_cap(self):
        cons = np.tile(seq.encode("ACGTACGTACGTACGT"), 100)
        index = KmerIndex(cons, k=8, max_occurrences=16)
        hits = index.lookup(cons[:8], stride=1)
        assert len(hits) <= 16


def _crowded_consensus(rng):
    """Random sequence with a poly-A stretch (one k-mer, hundreds of
    slots) and a stretch of ``A``-runs ending in two random bases
    (many distinct k-mers sharing their leading bits: one crowded
    bucket)."""
    tails = [np.concatenate([np.zeros(14, dtype=np.uint8),
                             seq.random_sequence(2, rng)])
             for _ in range(60)]
    return np.concatenate([make_reference(1_500, rng),
                           np.zeros(600, dtype=np.uint8), *tails,
                           make_reference(1_500, rng)])


def _lookup_oracle(index, read, stride):
    """``KmerIndex.lookup`` as two binary searches over the sorted
    values: the rule the bucket table replaced."""
    kmers = seq.kmer_codes(read, index.k)
    read_pos = np.arange(kmers.size)[::stride]
    kmers = kmers[::stride]
    keep = kmers != np.uint64(1) << np.uint64(2 * index.k)
    kmers, read_pos = kmers[keep], read_pos[keep]
    lo = np.searchsorted(index.values, kmers, "left")
    hi = np.searchsorted(index.values, kmers, "right")
    counts = np.minimum(hi - lo, index.max_occurrences)
    slots = [np.arange(a, a + c) for a, c in zip(lo, counts)]
    cons_pos = index.positions[np.concatenate(slots)] if slots \
        else np.empty(0, dtype=np.int64)
    return np.repeat(read_pos, counts), cons_pos


class TestBucketTable:
    """K-mer resolution is a table lookup plus a bounded advance; its
    oracle is ``np.searchsorted`` on the same sorted values."""

    @pytest.mark.parametrize("k", [8, 15, 31])
    @pytest.mark.parametrize("crowded", [False, True],
                             ids=["random", "poly-a"])
    def test_query_ranges_equals_searchsorted(self, k, crowded):
        rng = np.random.default_rng(k)
        cons = _crowded_consensus(rng) if crowded \
            else make_reference(3_000, rng)
        index = KmerIndex(cons, k=k, max_occurrences=16)
        values = index.values
        sentinel = np.uint64(1) << np.uint64(2 * k)
        present = values[rng.integers(0, values.size, 600)]
        queries = np.concatenate([
            present, present + np.uint64(1), present - np.uint64(1),
            rng.integers(0, 1 << (2 * k), 600, dtype=np.uint64),
            np.array([0, sentinel - 1, sentinel, sentinel + 1, 2 ** 64 - 1],
                     dtype=np.uint64)])
        lo, counts = index.query_ranges(queries)
        left = np.searchsorted(values, queries, "left")
        right = np.searchsorted(values, queries, "right")
        assert np.array_equal(counts, right - left)
        assert not counts[queries >= sentinel].any()
        assert np.array_equal(lo[counts > 0], left[counts > 0])
        if crowded and k <= 15:
            assert counts.max() > index.max_occurrences

    def test_advance_falls_back_to_binary_search(self):
        """More distinct values ahead of a query in its bucket than the
        advance has rounds: still exact."""
        from repro.mapping import kmer_index
        rng = np.random.default_rng(5)
        index = KmerIndex(_crowded_consensus(rng), k=15)
        values = np.unique(index.values)
        crowd = values[values < 64]     # the A-run tails, one bucket
        assert crowd.size > 2 * kmer_index._ADVANCE_ROUNDS
        lo, counts = index.query_ranges(crowd)
        assert np.array_equal(
            lo, np.searchsorted(index.values, crowd, "left"))
        assert (counts > 0).all()

    @pytest.mark.parametrize("k", [8, 15, 31])
    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_lookup_is_unchanged_anchor_for_anchor(self, k, stride):
        rng = np.random.default_rng(stride)
        cons = _crowded_consensus(rng)
        index = KmerIndex(cons, k=k, max_occurrences=16)
        reads = [cons[1_400:1_560], cons[2_050:2_200].copy(),
                 seq.random_sequence(90, rng), cons[:k - 1],
                 np.empty(0, dtype=np.uint8)]
        reads[1][[7, 60]] = seq.N_CODE
        for read in reads:
            hits = index.lookup(read, stride)
            read_pos, cons_pos = _lookup_oracle(index, read, stride)
            assert np.array_equal(hits.read_pos, read_pos)
            assert np.array_equal(hits.cons_pos, cons_pos)

    def test_empty_index(self):
        index = KmerIndex(np.full(40, seq.N_CODE, dtype=np.uint8), k=11)
        assert len(index) == 0 and index.values.size == 0
        assert len(index.lookup(seq.encode("ACGTACGTACGTACGT"))) == 0
        _, counts = index.query_ranges(np.array([0, 5], dtype=np.uint64))
        assert not counts.any()

    def test_no_dead_state(self):
        assert not hasattr(KmerIndex(seq.encode("ACGTACGTACGT"), k=4),
                           "_starts")


class TestMapperExactness:
    """The mapper's edit scripts must be lossless, by construction."""

    @pytest.mark.parametrize("fixture", ["rs2_small", "rs4_small"])
    def test_lossless_on_datasets(self, fixture, request):
        sim = request.getfixturevalue(fixture)
        mapper = ReadMapper(sim.reference)
        for read in sim.read_set.reads[:150]:
            mapping = mapper.map_read(read.codes)
            if mapping.unmapped:
                continue
            rebuilt = reconstruct(sim.reference, mapping, len(read))
            assert np.array_equal(rebuilt, read.codes)

    def test_perfect_read_zero_cost(self):
        rng = np.random.default_rng(3)
        cons = make_reference(5_000, rng)
        mapper = ReadMapper(cons)
        mapping = mapper.map_read(cons[1000:1100])
        assert not mapping.unmapped
        assert mapping.cost == 0
        assert mapping.segments[0].cons_start == 1000

    def test_reverse_complement_detected(self):
        rng = np.random.default_rng(4)
        cons = make_reference(5_000, rng)
        mapper = ReadMapper(cons)
        mapping = mapper.map_read(
            seq.reverse_complement(cons[2000:2100]))
        assert not mapping.unmapped
        assert mapping.reverse

    def test_random_read_unmapped(self):
        rng = np.random.default_rng(5)
        cons = make_reference(5_000, rng)
        mapper = ReadMapper(cons)
        mapping = mapper.map_read(seq.random_sequence(100, rng))
        assert mapping.unmapped

    def test_too_short_read_unmapped(self):
        rng = np.random.default_rng(6)
        cons = make_reference(1_000, rng)
        mapper = ReadMapper(cons)
        assert mapper.map_read(cons[10:20]).unmapped


class TestChimericReads:
    def test_two_segment_chimera_detected(self):
        rng = np.random.default_rng(7)
        cons = make_reference(20_000, rng)
        read = np.concatenate([cons[1000:2200], cons[15000:16300]])
        mapper = ReadMapper(cons, MapperConfig(max_segments=3))
        mapping = mapper.map_read(read)
        assert not mapping.unmapped
        assert mapping.is_chimeric
        rebuilt = reconstruct(cons, mapping, read.size)
        assert np.array_equal(rebuilt, read)
        # Far fewer mismatches than the single-position encoding would pay.
        assert mapping.n_mismatches < 100

    def test_single_segment_mode_absorbs_chimera(self):
        rng = np.random.default_rng(8)
        cons = make_reference(20_000, rng)
        read = np.concatenate([cons[1000:1600], cons[15000:15600]])
        config = MapperConfig(max_segments=1,
                              unmapped_cost_fraction=0.90)
        mapping = ReadMapper(cons, config).map_read(read)
        assert not mapping.unmapped
        assert not mapping.is_chimeric
        rebuilt = reconstruct(cons, mapping, read.size)
        assert np.array_equal(rebuilt, read)
        assert mapping.n_mismatches > 50


class TestClips:
    def test_adapter_clip_detected(self):
        rng = np.random.default_rng(9)
        cons = make_reference(8_000, rng)
        adapter = seq.random_sequence(20, rng)
        read = np.concatenate([adapter, cons[3000:3100]])
        mapper = ReadMapper(cons)
        mapping = mapper.map_read(read)
        assert not mapping.unmapped
        assert mapping.clip_start.size >= 10
        rebuilt = reconstruct(cons, mapping, read.size)
        assert np.array_equal(rebuilt, read)

    def test_tail_clip_detected(self):
        rng = np.random.default_rng(10)
        cons = make_reference(8_000, rng)
        adapter = seq.random_sequence(18, rng)
        read = np.concatenate([cons[4000:4100], adapter])
        mapping = ReadMapper(cons).map_read(read)
        assert not mapping.unmapped
        rebuilt = reconstruct(cons, mapping, read.size)
        assert np.array_equal(rebuilt, read)

    def test_long_flank_not_clipped(self):
        # Flanks beyond clip_max_length stay as mismatches (Fig 17 O3).
        rng = np.random.default_rng(11)
        cons = make_reference(8_000, rng)
        junk = seq.random_sequence(200, rng)
        read = np.concatenate([cons[4000:4400], junk])
        config = MapperConfig(max_segments=1,
                              unmapped_cost_fraction=0.90)
        mapping = ReadMapper(cons, config).map_read(read)
        assert not mapping.unmapped
        assert mapping.clip_end.size == 0
        rebuilt = reconstruct(cons, mapping, read.size)
        assert np.array_equal(rebuilt, read)


class TestSegmentAssembly:
    """Plan -> solve -> assemble on hand-built chains."""

    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(12)
        cons = make_reference(400, rng)
        # cons[130] deleted between the anchors; a substitution in the head.
        read = np.concatenate([cons[100:130], cons[131:161]])
        read[3] = (read[3] + 1) % 4
        chain = [(10, 110), (40, 141)]          # k = 15 anchors
        return ReadMapper(cons), cons, read, chain

    @staticmethod
    def _build(mapper, read, chain, seg_lo, seg_hi):
        jobs = []
        plan = mapper._plan_segment(read, chain, seg_lo, seg_hi,
                                    True, True, jobs)
        return plan, jobs, mapper._solve_jobs(jobs)

    @pytest.mark.parametrize("seg_lo", [0, 2])
    def test_ops_in_segment_local_coordinates(self, case, seg_lo):
        mapper, cons, read, chain = case
        plan, jobs, solved = self._build(mapper, read, chain, seg_lo, 60)
        assert [job.flavour for job in jobs] \
            == ["global", "prefix_free", "suffix_free"]
        segment, clip_s, clip_e, cost = mapper._assemble_segment(plan, solved)
        assert (segment.read_start, segment.read_end) == (seg_lo, 60)
        assert segment.cons_start == 100 + seg_lo
        assert clip_s.size == clip_e.size == 0 and cost == 2
        assert [(op.kind, op.read_pos) for op in segment.ops] \
            == [("sub", 3 - seg_lo), ("del", 30 - seg_lo)]
        window = cons[segment.cons_start:segment.cons_start + 61]
        assert np.array_equal(
            alignment.apply_ops(window, segment.ops, segment.length),
            read[seg_lo:])

    def test_edit_left_of_segment_start_rejects_the_read(self, case):
        mapper, _, read, chain = case
        # seg_lo past the gap's deletion: its local position is negative.
        plan, _, solved = self._build(mapper, read, chain, 35, 60)
        assert mapper._assemble_segment(plan, solved) is None
        assert mapper._assemble_read([plan], solved) is None

    def test_placement_left_of_consensus_rejects_the_read(self, case):
        mapper, _, read, _ = case
        for cons_pos, placed in ((4, True), (-4, False)):
            plan, jobs, solved = self._build(mapper, read, [(10, cons_pos)],
                                             10, 25)
            assert jobs == []
            built = mapper._assemble_segment(plan, solved)
            assert (built is not None) == placed
            assert (mapper._assemble_read([plan], solved) is not None) \
                == placed
        assert built is None
