"""Integration tests for the read mapper (seed-chain-extend)."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genomics import sequence as seq
from repro.genomics.reference import make_reference
from repro.mapping import MapperConfig, ReadMapper
from repro.mapping import mapper as mapper_module
from repro.mapping.alignment import DEL, SUB
from repro.mapping.kmer_index import AnchorHits, KmerIndex
from repro.mapping.mapper import (AlignmentJob, MappedBlock, _SegmentPlan,
                                  block_columns)

from tests.conftest import apply_ops, map_one, mapping_results, reconstruct


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
            mapping = map_one(mapper, read.codes)
            if mapping.unmapped:
                continue
            rebuilt = reconstruct(sim.reference, mapping, len(read))
            assert np.array_equal(rebuilt, read.codes)

    def test_perfect_read_zero_cost(self):
        rng = np.random.default_rng(3)
        cons = make_reference(5_000, rng)
        mapper = ReadMapper(cons)
        mapping = map_one(mapper, cons[1000:1100])
        assert not mapping.unmapped
        assert mapping.cost == 0
        assert mapping.segments[0].cons_start == 1000

    def test_reverse_complement_detected(self):
        rng = np.random.default_rng(4)
        cons = make_reference(5_000, rng)
        mapper = ReadMapper(cons)
        mapping = map_one(mapper, seq.reverse_complement(cons[2000:2100]))
        assert not mapping.unmapped
        assert mapping.reverse

    def test_random_read_unmapped(self):
        rng = np.random.default_rng(5)
        cons = make_reference(5_000, rng)
        mapper = ReadMapper(cons)
        mapping = map_one(mapper, seq.random_sequence(100, rng))
        assert mapping.unmapped

    def test_too_short_read_unmapped(self):
        rng = np.random.default_rng(6)
        cons = make_reference(1_000, rng)
        mapper = ReadMapper(cons)
        assert map_one(mapper, cons[10:20]).unmapped


class TestChimericReads:
    def test_two_segment_chimera_detected(self):
        rng = np.random.default_rng(7)
        cons = make_reference(20_000, rng)
        read = np.concatenate([cons[1000:2200], cons[15000:16300]])
        mapper = ReadMapper(cons, MapperConfig(max_segments=3))
        mapping = map_one(mapper, read)
        assert not mapping.unmapped
        assert len(mapping.segments) > 1
        rebuilt = reconstruct(cons, mapping, read.size)
        assert np.array_equal(rebuilt, read)
        # Far fewer mismatches than the single-position encoding would pay.
        assert sum(len(s.ops) for s in mapping.segments) < 100

    def test_single_segment_mode_absorbs_chimera(self):
        rng = np.random.default_rng(8)
        cons = make_reference(20_000, rng)
        read = np.concatenate([cons[1000:1600], cons[15000:15600]])
        config = MapperConfig(max_segments=1,
                              unmapped_cost_fraction=0.90)
        mapping = map_one(ReadMapper(cons, config), read)
        assert not mapping.unmapped
        assert len(mapping.segments) == 1
        rebuilt = reconstruct(cons, mapping, read.size)
        assert np.array_equal(rebuilt, read)
        assert sum(len(s.ops) for s in mapping.segments) > 50


class TestClips:
    def test_adapter_clip_detected(self):
        rng = np.random.default_rng(9)
        cons = make_reference(8_000, rng)
        adapter = seq.random_sequence(20, rng)
        read = np.concatenate([adapter, cons[3000:3100]])
        mapper = ReadMapper(cons)
        mapping = map_one(mapper, read)
        assert not mapping.unmapped
        assert mapping.clip_start.size >= 10
        rebuilt = reconstruct(cons, mapping, read.size)
        assert np.array_equal(rebuilt, read)

    def test_tail_clip_detected(self):
        rng = np.random.default_rng(10)
        cons = make_reference(8_000, rng)
        adapter = seq.random_sequence(18, rng)
        read = np.concatenate([cons[4000:4100], adapter])
        mapping = map_one(ReadMapper(cons), read)
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
        mapping = map_one(ReadMapper(cons, config), read)
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
        plan = oracle_plan_segment(mapper, read, chain, seg_lo, seg_hi,
                                   True, True, jobs)
        return plan, jobs, mapper._solve_jobs(jobs)

    @staticmethod
    def _assembled(mapper, read, plan, solved):
        """The one-segment row ``plan`` plans, as ``_assemble`` writes
        it, as a record (``None`` when the row is left out); the solved
        jobs are not changed by it."""
        before = copy.deepcopy(solved)
        part = mapper._assemble([[plan]], solved, np.array([read.size]),
                                np.array([False]))
        assert all(map(np.array_equal, solved, before))
        if part.rows.size == 0:
            return None
        return mapping_results(MappedBlock.assemble(
            read, np.array([0, read.size]), [part]))[0]

    @pytest.mark.parametrize("seg_lo", [0, 2])
    def test_ops_in_segment_local_coordinates(self, case, seg_lo):
        mapper, cons, read, chain = case
        plan, jobs, solved = self._build(mapper, read, chain, seg_lo, 60)
        assert [job.flavour for job in jobs] \
            == ["global", "prefix_free", "suffix_free"]
        mapping = self._assembled(mapper, read, plan, solved)
        [segment] = mapping.segments
        assert (segment.read_start, segment.read_end) == (seg_lo, 60)
        assert segment.cons_start == 100 + seg_lo
        assert mapping.clip_start.size == mapping.clip_end.size == 0
        assert mapping.cost == 2
        assert [(op.kind, op.read_pos) for op in segment.ops] \
            == [(SUB, 3 - seg_lo), (DEL, 30 - seg_lo)]
        window = cons[segment.cons_start:segment.cons_start + 61]
        assert np.array_equal(
            apply_ops(window, segment.ops, segment.length),
            read[seg_lo:])

    @settings(max_examples=100, deadline=None)
    @given(block=st.deferred(lambda: anchored_block()))
    def test_planned_pieces_start_inside_their_segment(self, block):
        """No planned piece starts left of its segment, and no segment
        left of the consensus, so ``_assemble`` checks neither: a
        segment starts at or before its first anchor (at the previous
        chain's span end or later, which it does not overlap), its gaps
        and tail start past that anchor's k-mer, and it is placed at an
        anchor or in a head window clamped at 0.  (A hand-built plan
        with the start past the first anchor, or an anchor left of the
        consensus, is no plan the planner makes.)"""
        cfg, cons, reads, hits = block
        mapper = ReadMapper(cons, cfg)
        jobs = []
        codes, offsets, plans = _plan_block_of(mapper, reads, hits, jobs)
        for plan in plans:
            for seg in plan or ():
                assert 0 <= seg.seg_lo <= seg.a0_read
                assert seg.a0_cons >= 0 and seg.head_win_lo >= 0
                assert all(at >= seg.a0_read + cfg.k for at, _ in seg.gaps)
                assert seg.tail_read >= seg.a0_read + cfg.k
        part = mapper._assemble(plans, mapper._solve_jobs(jobs),
                                np.diff(offsets), np.zeros(len(reads), bool))
        table = MappedBlock.assemble(codes, offsets, [part])
        assert (table.read_pos >= 0).all()
        assert (table.read_pos
                <= (table.read_end - table.read_start)[table.op_seg]).all()
        assert (table.cons_start >= 0).all()

    def test_head_window_clamped_at_the_consensus_start(self, case):
        """A chain whose first anchor sits 4 bases into the consensus,
        under a 10-base head: the head aligns in ``consensus[0:4]``
        (where it costs enough to be a soft clip) and the read is placed
        at its anchor, inside the consensus."""
        mapper, _, read, _ = case
        plan, jobs, solved = self._build(mapper, read, [(10, 4)], 0, 25)
        assert [(job.flavour, job.cons_seg.size) for job in jobs] \
            == [("prefix_free", 4)]
        assert plan.head_win_lo == 0
        mapping = self._assembled(mapper, read, plan, solved)
        assert mapping.clip_start.size == 10
        assert mapping.segments[0].cons_start == 4


# ----------------------------------------------------------------------
# Planner oracle: the per-read, per-anchor loops the block planner
# (``ReadMapper._plan_block``) replaced.
# ----------------------------------------------------------------------

def oracle_cluster_anchors(mapper, hits):
    """Anchor indices grouped into diagonal clusters, largest first."""
    diag = hits.cons_pos - hits.read_pos
    order = np.argsort(diag, kind="stable")
    splits = np.nonzero(np.diff(diag[order])
                        > mapper.config.diag_cluster_gap)[0] + 1
    groups = np.split(order, splits)
    groups.sort(key=len, reverse=True)
    return groups


def oracle_monotone_chain(mapper, hits, idx):
    """Greedy monotone chain of (read_pos, cons_pos) anchors."""
    read_pos, cons_pos = hits.read_pos[idx], hits.cons_pos[idx]
    chain = []
    prev_read = prev_cons = -1
    prev_diag = None
    for i in np.argsort(read_pos, kind="stable"):
        r, c = int(read_pos[i]), int(cons_pos[i])
        if chain:
            if r <= prev_read or c <= prev_cons:
                continue
            if abs((c - r) - prev_diag) > mapper.config.diag_cluster_gap:
                continue
        chain.append((r, c))
        prev_read, prev_cons, prev_diag = r, c, c - r
    return chain


def oracle_plan_segment(mapper, oriented, chain, seg_lo, seg_hi, is_first,
                        is_last, jobs):
    """One chain's segment plan, anchor by anchor."""
    k, cons = mapper.config.k, mapper.consensus
    gaps = []
    a0_read, a0_cons = chain[0]
    prev_read, prev_cons = a0_read + k, a0_cons + k
    for r, c in chain[1:]:
        if r < prev_read or c < prev_cons:
            if c - r == prev_cons - prev_read:
                prev_read, prev_cons = r + k, c + k
            continue
        read_gap, cons_gap = oriented[prev_read:r], cons[prev_cons:c]
        if read_gap.size == cons_gap.size:
            diff = np.nonzero(read_gap != cons_gap)[0]
            if diff.size:
                gaps.append((prev_read, diff.tolist()))
        else:
            gaps.append((prev_read, len(jobs)))
            jobs.append(AlignmentJob(read_gap, cons_gap, "global"))
        prev_read, prev_cons = r + k, c + k
    head = oriented[seg_lo:a0_read]
    head_job, win_lo = None, 0
    if head.size:
        win_lo = max(0, a0_cons - head.size - mapper.config.end_slack)
        head_job = len(jobs)
        jobs.append(AlignmentJob(head, cons[win_lo:a0_cons], "prefix_free"))
    tail = oriented[prev_read:seg_hi]
    tail_job = None
    if tail.size:
        win_hi = min(cons.size,
                     prev_cons + tail.size + mapper.config.end_slack)
        tail_job = len(jobs)
        jobs.append(AlignmentJob(tail, cons[prev_cons:win_hi],
                                 "suffix_free"))
    return _SegmentPlan(seg_lo, seg_hi, is_first, is_last, a0_read, a0_cons,
                        prev_read, head, tail, head_job, win_lo, tail_job,
                        gaps)


def oracle_plan_read(mapper, oriented, hits, jobs):
    """One read's segment plans (or ``None``), chain by chain."""
    cfg, k = mapper.config, mapper.config.k
    clusters = oracle_cluster_anchors(mapper, hits)
    if not clusters:
        return None
    chains, covered = [], []
    for cluster in clusters:
        if len(chains) >= cfg.max_segments:
            break
        if chains and len(cluster) < cfg.min_segment_anchors:
            break
        chain = oracle_monotone_chain(mapper, hits, cluster)
        span = (chain[0][0], chain[-1][0] + k)
        if any(not (span[1] <= lo or span[0] >= hi) for lo, hi in covered):
            continue
        if chains and (mapper._uncovered_length(oriented.size, covered)
                       < cfg.min_segment_length
                       or span[1] - span[0] < cfg.min_segment_length // 2):
            continue
        chains.append(chain)
        covered.append(span)
    chains.sort(key=lambda ch: ch[0][0])
    bounds = [0]
    for left, right in zip(chains, chains[1:]):
        left_end, right_start = left[-1][0] + k, right[0][0]
        bounds.append(max(left_end,
                          min(right_start, (left_end + right_start) // 2)))
    bounds.append(oriented.size)
    return [oracle_plan_segment(mapper, oriented, chain, bounds[w],
                                bounds[w + 1], w == 0, w == len(chains) - 1,
                                jobs)
            for w, chain in enumerate(chains)]


def _plan_key(plan):
    """Segment plans by value."""
    if plan is None:
        return None
    fields = [tuple(vars(p).values()) for p in plan]
    return [(*f[:7], f[7].tobytes(), f[8].tobytes(), *f[9:])
            for f in fields]


def _jobs_key(jobs):
    return [(job.read_seg.tobytes(), job.cons_seg.tobytes(), job.flavour)
            for job in jobs]


def _plan_block_of(mapper, reads, hits, jobs):
    """``(codes, offsets, plans)``: a block of reads, with anchors
    ``hits``, as the block planner plans it (appending to ``jobs``)."""
    codes, offsets = block_columns(reads)
    rows = np.repeat(np.arange(len(reads)), [len(h) for h in hits])
    cat = (np.concatenate([getattr(h, f) for h in hits])
           if hits else np.empty(0, dtype=np.int64)
           for f in ("read_pos", "cons_pos"))
    return codes, offsets, mapper._plan_block(
        codes, offsets[:-1], np.diff(offsets), rows, *cat, jobs)


def _plan_both(mapper, reads, hits):
    """Plans and jobs of a block of reads: the block planner's, and the
    oracle's read after read."""
    jobs = []
    _, _, got = _plan_block_of(mapper, reads, hits, jobs)
    want_jobs = []
    want = [oracle_plan_read(mapper, read, h, want_jobs) if len(h) else None
            for read, h in zip(reads, hits)]
    return ([_plan_key(p) for p in got], _jobs_key(jobs),
            [_plan_key(p) for p in want], _jobs_key(want_jobs))


@st.composite
def anchored_block(draw):
    """A mapper config and a block of reads with synthetic anchors:
    repeat hits (one read position, several diagonals), diagonals that
    drift by exactly the cluster tolerance or one more, overlapping
    k-mers on one diagonal and across two, gaps of equal and unequal
    lengths, reads with more clusters than ``max_segments`` and small
    secondaries."""
    k = draw(st.sampled_from([4, 6]))
    gap = draw(st.sampled_from([0, 2, 5]))
    cfg = MapperConfig(k=k, diag_cluster_gap=gap,
                       max_segments=draw(st.integers(1, 4)),
                       min_segment_anchors=draw(st.integers(1, 3)),
                       min_segment_length=draw(st.sampled_from([8, 24, 100])),
                       end_slack=draw(st.sampled_from([0, 3])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cons = rng.integers(0, 4, 300).astype(np.uint8)
    drifts = [0, 0, 0, 1, -1, gap, -gap, gap + 1, -gap - 1, k, 40, -60]
    reads, hits = [], []
    for _ in range(draw(st.integers(1, 4))):
        length = int(rng.integers(k, 120))
        base = int(rng.integers(-10, cons.size - length + 10))
        read = rng.integers(0, 4, length).astype(np.uint8)
        # A read wholly before the consensus start overlaps none of it.
        lo = max(0, base)
        hi = max(lo, min(cons.size, base + length))
        read[lo - base:hi - base] = cons[lo:hi]
        flip = rng.random(length) < 0.08
        read[flip] = (read[flip] + 1) % 4
        n = int(rng.integers(0, 40))
        read_pos = rng.integers(0, length - k + 1, n)
        diag = base + np.cumsum(rng.choice(drifts, n))
        repeat = rng.random(n) < 0.15        # a second hit of a k-mer
        read_pos[1:][repeat[1:]] = read_pos[:-1][repeat[1:]]
        cons_pos = np.clip(read_pos + diag, 0, cons.size - k)
        order = (rng.permutation(n) if rng.random() < 0.2
                 else np.argsort(read_pos, kind="stable"))
        reads.append(read)
        hits.append(AnchorHits(read_pos[order].astype(np.int64),
                               cons_pos[order].astype(np.int64)))
    return cfg, cons, reads, hits


class TestBlockPlanner:
    """``ReadMapper._plan_block`` equals the per-anchor loops it
    replaced: the same plans, the same jobs, in the same order."""

    @settings(max_examples=150, deadline=None)
    @given(anchored_block(), st.sampled_from([None, 1, 30]))
    def test_plans_equal_oracle(self, block, pass_anchors):
        """Also with passes cut small: a pass takes whole rows."""
        cfg, cons, reads, hits = block
        with pytest.MonkeyPatch.context() as patch:
            if pass_anchors:
                patch.setattr(mapper_module, "_PLAN_ANCHORS", pass_anchors)
            got, got_jobs, want, want_jobs = _plan_both(
                ReadMapper(cons, cfg), reads, hits)
        assert got == want
        assert got_jobs == want_jobs

    @pytest.mark.parametrize("max_segments", [1, 3])
    def test_real_anchors_equal_oracle(self, rs4_small, max_segments):
        """Lookup anchors of whole long reads, both orientations."""
        sim = rs4_small
        mapper = ReadMapper(sim.reference,
                            MapperConfig(max_segments=max_segments))
        reads = [read.codes for read in sim.read_set.reads[:40]]
        reads += [seq.reverse_complement(codes) for codes in reads[:10]]
        hits = [mapper.index.lookup(codes, mapper.config.stride)
                for codes in reads]
        got, got_jobs, want, want_jobs = _plan_both(mapper, reads, hits)
        assert got == want and got_jobs == want_jobs
        assert got_jobs
        assert any(p and len(p) > 1 for p in got) == (max_segments > 1)
