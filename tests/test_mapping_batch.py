"""Cross-mapper tests for the batched mapper kernel layer.

The contract under test (:mod:`repro.mapping.batch`): the vectorized
:class:`BatchReadMapper` produces a ``MappedBlock`` table equal column
for column to the scalar :class:`ReadMapper` reference's — and therefore
per-read mappings and archives byte-identical — for every read shape
(short/long, indels, Ns, reverse-complement, chimeric, unmapped junk),
and at the boundaries of the rules both kernels share (a flank of
exactly the shortest / longest clip length, a read costing exactly the
unmapped fraction, flank windows clamped at either consensus end).
Also covered: the analysis consumers' column passes against their
per-read oracles, the batched extension solver against the three scalar
aligners (its oracle), the mapper registry, the ``EngineOptions.mapper``
knob, the shared k-mer index (built once per archive, not once per
worker), and the reverse-complement k-mer primitive.
"""

import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze, pileup
from repro.analysis.variants import (VariantCall, call_variants,
                                     quality_block_access)
from repro.api import EngineOptions, SAGeDataset
from repro.core import SAGeCompressor, SAGeConfig
from repro.core import compressor as compressor_mod
from repro.core.mismatch import OptLevel
from repro.genomics import sequence as seqmod
from repro.genomics.reads import Read, ReadSet
from repro.mapping import alignment, batch
from repro.mapping.batch import (BatchReadMapper, MapperStats,
                                 available_mappers, make_mapper,
                                 resolve_mapper, solve_extension_jobs)
from repro.mapping.kmer_index import KmerIndex
from repro.mapping.mapper import (AlignmentJob, MapperConfig, ReadMapper,
                                  block_columns)

from tests.conftest import (assert_same_report, chunked, map_one,
                            mapping_results, pileup_oracle, property_oracle,
                            quality_access_oracle, solved_results)


# ----------------------------------------------------------------------
# Fuzz material
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def reference():
    rng = np.random.default_rng(42)
    return rng.integers(0, 4, 5_000).astype(np.uint8)


def _fuzz_reads(rng, reference, n_reads, read_len, *, junk_rate=0.08,
                n_rate=0.08, indel_rate=0.25, chimera_rate=0.1,
                tiny_rate=0.05, clip_rate=0.0):
    """Randomized read codes exercising every mapper branch; with
    ``clip_rate``, that share of the mapped reads also carries a random
    flank the mapper soft-clips."""
    out = []
    for _ in range(n_reads):
        length = int(rng.integers(max(16, read_len // 2), read_len * 2))
        roll = rng.random()
        if roll < tiny_rate:                       # below-k reads
            codes = rng.integers(0, 4, int(rng.integers(0, 14))) \
                .astype(np.uint8)
            out.append(codes)
            continue
        if roll < tiny_rate + junk_rate:           # unmapped junk
            codes = rng.integers(0, 4, length).astype(np.uint8)
            out.append(codes)
            continue
        if roll < tiny_rate + junk_rate + chimera_rate and length > 60:
            # Chimeric: two distant reference windows stitched together.
            half = length // 2
            s1 = int(rng.integers(0, reference.size - half))
            s2 = int(rng.integers(0, reference.size - half))
            codes = np.concatenate([reference[s1:s1 + half],
                                    reference[s2:s2 + half]]).copy()
        else:
            start = int(rng.integers(0, max(1, reference.size - length)))
            codes = reference[start:start + length].copy()
        for _ in range(int(rng.integers(0, 4))):   # substitutions
            p = int(rng.integers(0, codes.size))
            codes[p] = (codes[p] + 1 + rng.integers(0, 3)) % 4
        if rng.random() < indel_rate and codes.size > 8:
            p = int(rng.integers(1, codes.size - 4))
            span = int(rng.integers(1, 4))
            if rng.random() < 0.5:
                ins = rng.integers(0, 4, span).astype(np.uint8)
                codes = np.concatenate([codes[:p], ins, codes[p:]])
            else:
                codes = np.concatenate([codes[:p], codes[p + span:]])
        if rng.random() < n_rate:
            p = int(rng.integers(0, codes.size))
            codes[p:p + int(rng.integers(1, 4))] = seqmod.N_CODE
        if clip_rate and rng.random() < clip_rate:
            flank = rng.integers(0, 4, int(rng.integers(8, 40))) \
                .astype(np.uint8)
            codes = np.concatenate([flank, codes] if rng.random() < 0.5
                                   else [codes, flank])
        if rng.random() < 0.5:
            codes = seqmod.reverse_complement(codes)
        out.append(codes.astype(np.uint8))
    return out


def _result_key(res):
    """Canonical, fully structural rendering of a MappingResult."""
    return (
        bool(res.unmapped), bool(res.reverse), int(res.cost),
        bytes(res.clip_start.tobytes()), bytes(res.clip_end.tobytes()),
        tuple((int(s.cons_start), int(s.read_start), int(s.read_end),
               tuple((op.kind, int(op.read_pos), int(op.length),
                      np.asarray(op.bases).tobytes()) for op in s.ops))
              for s in res.segments),
    )


def _maps_like_map_one(reference, reads, cfg):
    """Each of ``reads`` mapped alone on the scalar kernel
    (:func:`map_one`), once both kernels' ``map_batch`` tables of the
    whole block are held to them through :func:`_result_key`."""
    scalar = ReadMapper(reference, cfg)
    want = [map_one(scalar, c) for c in reads]
    for kernel in (ReadMapper, BatchReadMapper):
        table = kernel(reference, cfg, index=scalar.index).map_batch(reads)
        assert [_result_key(r) for r in mapping_results(table)] \
            == [_result_key(r) for r in want], kernel.__name__
    return want


def _n_flank(reference, start, length, flank, cost, head):
    """``reference[start:][:length]`` whose first (``head``) or last
    ``flank`` bases carry ``cost`` ``N``s, placed from the anchor side
    and at least one in every 14 bases: no strided 15-mer reaching into
    the flank matches, so the flank is exactly ``flank`` bases long
    (``length - flank - 15`` must be even for a tail)."""
    codes = reference[start:start + length].copy()
    near = list(range(flank - 1, -1, -1)) if head \
        else list(range(length - flank, length))
    taken = near[::14]
    taken += [p for p in near if p not in taken][:cost - len(taken)]
    codes[taken] = seqmod.N_CODE
    return codes


def _columns(table):
    """Every column of a MappedBlock, with its dtype (comparable by ==)."""
    return {f.name: (getattr(table, f.name).dtype.str,
                     getattr(table, f.name).tolist())
            for f in dataclasses.fields(table) if f.init}


def _row_columns(table):
    """Each read's part of every column of a MappedBlock, with its dtype:
    its per-read entries, its segments' and its ops' (``seg_row`` and
    ``op_seg`` counted from the read's own first row and segment)."""
    seg_at = np.searchsorted(table.seg_row, np.arange(len(table) + 1))
    op_at = np.searchsorted(table.op_seg, seg_at)
    per_read = ("unmapped", "reverse", "cost", "clip_s", "clip_e")
    per_seg = ("seg_row", "cons_start", "read_start", "read_end")
    per_op = ("op_seg", "kind", "read_pos", "length")
    rows = []
    for row in range(len(table)):
        parts = dict.fromkeys(per_read, slice(row, row + 1))
        parts.update(dict.fromkeys(per_seg, slice(*seg_at[row:row + 2])))
        parts.update(dict.fromkeys(per_op, slice(*op_at[row:row + 2])))
        base = {"seg_row": row, "op_seg": seg_at[row]}
        rows.append({name: (getattr(table, name).dtype.str,
                            (getattr(table, name)[part]
                             - base.get(name, 0)).tolist())
                     for name, part in parts.items()})
    return rows


def _plain(report):
    """A report's fields with its arrays as lists (comparable by ==)."""
    return {name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in vars(report).items()}


# ----------------------------------------------------------------------
# Cross-mapper fuzz: identical results, byte-identical archives
# ----------------------------------------------------------------------

class TestCrossMapperFuzz:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           n_reads=st.integers(1, 40),
           read_len=st.sampled_from([30, 90, 260]),
           max_segments=st.sampled_from([1, 3]))
    def test_results_identical(self, reference, seed, n_reads, read_len,
                               max_segments):
        rng = np.random.default_rng(seed)
        codes_list = _fuzz_reads(rng, reference, n_reads, read_len)
        cfg = MapperConfig(max_segments=max_segments)
        index = KmerIndex(reference, k=cfg.k,
                          max_occurrences=cfg.max_occurrences)
        scalar = ReadMapper(reference, cfg, index=index)
        batched = BatchReadMapper(reference, cfg, index=index)
        alone = [scalar.map_batch([c]) for c in codes_list]
        codes, offsets = block_columns(codes_list)
        table = batched.map_batch(codes, offsets)
        # The table's reads are the scalar kernel's, each mapped alone,
        # column for column ...
        assert _row_columns(table) \
            == [_row_columns(one)[0] for one in alone]
        assert [_result_key(r) for r in mapping_results(table)] \
            == [_result_key(mapping_results(one)[0]) for one in alone]
        # ... whichever way the block is handed over and whichever
        # kernel maps it.
        want = _columns(table)
        assert _columns(batched.map_batch(codes_list)) == want
        assert _columns(scalar.map_batch(codes, offsets)) == want

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           level=st.sampled_from([OptLevel.NO, OptLevel.O2, OptLevel.O4]),
           long_reads=st.booleans())
    def test_archives_byte_identical(self, reference, seed, level,
                                     long_reads):
        rng = np.random.default_rng(seed)
        codes_list = _fuzz_reads(rng, reference, 30, 120)
        reads = ReadSet([Read(codes=c, header=f"fuzz.{i}")
                         for i, c in enumerate(codes_list)], name="fuzz")
        blobs = {}
        for mapper in available_mappers():
            cfg = SAGeConfig(level=level, long_reads=long_reads,
                             with_quality=False, mapper_kernel=mapper)
            blobs[mapper] = SAGeCompressor(reference, cfg) \
                .compress(reads).to_bytes()
        assert len(set(blobs.values())) == 1, \
            "mappers produced different archives"

    @pytest.mark.parametrize("level", list(OptLevel))
    def test_long_read_pieces(self, rs4_small, level):
        """Indel/chimera-heavy variable-length reads (the RS4 analog cut
        at 800 bp, as ``bench/harness.build_corpus`` does): nearly every
        read leaves the fast path, so this is the batched extension."""
        pieces = ReadSet([Read(codes=r.codes[s:s + 800],
                               quality=r.quality[s:s + 800],
                               header=f"{r.header}/{s}")
                          for r in rs4_small.read_set
                          for s in range(0, len(r), 800)
                          if len(r) - s >= 100][:60], name="RS4")
        blobs, mapped = {}, {}
        for mapper in available_mappers():
            compressor = SAGeCompressor(
                rs4_small.reference,
                SAGeConfig(level=level, mapper_kernel=mapper))
            blobs[mapper] = compressor.compress(pieces).to_bytes()
            kernel = make_mapper(mapper, compressor.consensus)
            batch.reset_stats()
            mapped[mapper] = _columns(
                kernel.map_batch(pieces.read_codes()))
            if mapper == "numpy":
                assert batch.GLOBAL_STATS.fallback > 0.9 * len(pieces)
        assert mapped["python"] == mapped["numpy"]
        assert blobs["python"] == blobs["numpy"]

    def test_simulator_analogs(self, rs2_small, rs4_small):
        """Short-read and chimeric/N-heavy long-read analogs."""
        for sim in (rs2_small, rs4_small):
            blobs = {}
            for mapper in available_mappers():
                cfg = SAGeConfig(mapper_kernel=mapper)
                blobs[mapper] = SAGeCompressor(sim.reference, cfg) \
                    .compress(sim.read_set).to_bytes()
            assert len(set(blobs.values())) == 1

    def test_blocked_archive_identical(self, rs3_small):
        blobs = {}
        for mapper in available_mappers():
            dataset = SAGeDataset.from_fastq(
                rs3_small.read_set, reference=rs3_small.reference,
                config=SAGeConfig(mapper_kernel=mapper),
                options=EngineOptions(block_reads=64))
            blobs[mapper] = dataset.to_bytes()
        assert blobs["python"] == blobs["numpy"]

    @pytest.mark.parametrize("analog", ["rs2_small", "rs3_small",
                                        "rs4_small"])
    def test_analysis_consumers_identical(self, analog, request,
                                          monkeypatch):
        """The analysis consumers map on ``DEFAULT_MAPPER`` (no session
        chooses), and what they report does not depend on which kernel
        that name builds."""
        sim = request.getfixturevalue(analog)
        session = SAGeDataset.from_fastq(
            sim.read_set, reference=sim.reference,
            options=EngineOptions(block_reads=64))
        n_blocks = session.archive.n_blocks
        seen = {}
        for mapper in available_mappers():
            monkeypatch.setitem(batch._MAPPERS, batch.DEFAULT_MAPPER,
                                {"python": ReadMapper,
                                 "numpy": BatchReadMapper}[mapper])
            batch.reset_stats()
            report, rate = session.pipe("property", "mapping-rate").run()
            # One map_batch call per sink per block on the numpy
            # kernel; the scalar kernel never reaches the batch mapper.
            assert batch.GLOBAL_STATS.batches \
                == (2 * n_blocks if mapper == "numpy" else 0)
            evidence = pileup(session.blocks(), sim.reference)
            seen[mapper] = (_plain(report), rate, _plain(evidence))
        assert seen["python"] == seen["numpy"]
        assert seen["numpy"][1].n_reads == len(sim.read_set)

    def test_consensus_with_n_maps_like_scalar(self, reference):
        """An N-bearing consensus must still map byte-identically."""
        cons = reference.copy()
        cons[100:103] = seqmod.N_CODE
        rng = np.random.default_rng(3)
        codes_list = _fuzz_reads(rng, cons, 30, 90, n_rate=0.3)
        cfg = MapperConfig(max_segments=1)
        scalar = ReadMapper(cons, cfg)
        batched = BatchReadMapper(cons, cfg)
        expected = [_result_key(map_one(scalar, c)) for c in codes_list]
        got = [_result_key(r)
               for r in mapping_results(batched.map_batch(codes_list))]
        assert got == expected

    @pytest.mark.parametrize("fixed_length", [True, False])
    def test_window_ending_on_the_last_consensus_base(self, reference,
                                                      fixed_length):
        """Reads whose consensus window ends on its last base, clean or
        with a substitution in the head, the middle or on that last
        base, on either strand: the window compare's boundary."""
        rng = np.random.default_rng(5)
        reads = []
        for i in range(12):
            length = 90 if fixed_length else int(rng.integers(40, 160))
            codes = reference[reference.size - length:].copy()
            if i % 4:
                p = [3, length // 2, length - 1][i % 4 - 1]
                codes[p] = (codes[p] + 1) % 4
            reads.append(seqmod.reverse_complement(codes) if i % 2
                         else codes)
        # One read elsewhere, so the block is not all boundary.
        reads.append(reference[1_000:1_090].copy())
        cfg = MapperConfig(max_segments=1)
        scalar = ReadMapper(reference, cfg)
        batch.reset_stats()
        table = BatchReadMapper(reference, cfg).map_batch(reads)
        # The compare sees every substitution, the last base's too.
        assert batch.GLOBAL_STATS.verified == 9
        assert [_result_key(r) for r in mapping_results(table)] \
            == [_result_key(map_one(scalar, c)) for c in reads]

    @pytest.mark.parametrize("head", [True, False], ids=["head", "tail"])
    @pytest.mark.parametrize("bound", ["clip_min_length", "clip_max_length"])
    def test_clip_rule_boundaries(self, reference, head, bound):
        """A head or tail of exactly ``clip_min_length`` /
        ``clip_max_length`` bases, costing the most that is no clip and
        one more.  The flank's cost is its count of ``N``s: an ``N``
        matches nothing, so each costs exactly 1 on any path."""
        cfg = MapperConfig()
        n = getattr(cfg, bound)
        below = int(cfg.clip_cost_fraction * n)
        reads = [_n_flank(reference, 1_000, 151, n, cost, head)
                 for cost in (below, below + 1)]
        want = _maps_like_map_one(reference, reads, cfg)
        clips = [(r.clip_start if head else r.clip_end).size for r in want]
        assert clips == [0, n]
        assert [r.cost for r in want] == [below, 0]

    def test_unmapped_rule_boundary(self, reference):
        """Reads costing exactly ``unmapped_cost_fraction`` of their
        mapped length, and one more: the first maps, the second does
        not.  Both flanks are longer than any clip."""
        cfg = MapperConfig()
        reads = []
        for extra in ([], [1]):
            codes = reference[2_000:2_200].copy()
            codes[list(range(21, 100, 2)) + list(range(115, 195, 2))
                  + extra] = seqmod.N_CODE
            reads.append(codes)
        assert cfg.unmapped_cost_fraction * 200 == 80
        want = _maps_like_map_one(reference, reads, cfg)
        assert [(r.unmapped, r.cost) for r in want] \
            == [(False, 80), (True, 0)]

    def test_head_window_clamped_at_consensus_start(self, reference):
        """Reads starting within ``end_slack`` bases of the consensus
        start (and at the first unclamped starts), with a 6-base head
        carrying one or two substitutions: the head's window is cut at
        consensus base 0."""
        cfg = MapperConfig()
        starts = [0, 5, cfg.end_slack - 1, cfg.end_slack,
                  cfg.end_slack + 1]
        reads = []
        for subs in ([5], [1, 5]):
            for start in starts:
                codes = reference[start:start + 100].copy()
                codes[subs] = (codes[subs] + 1) % 4
                reads.append(codes)
        want = _maps_like_map_one(reference, reads, cfg)
        assert [(r.unmapped, r.clip_start.size, r.segments[0].cons_start)
                for r in want] == [(False, 0, s) for s in 2 * starts]
        # The batch kernel proves the one-substitution heads itself, in
        # the same windows: it leaves none of them to stage 4.
        batch.reset_stats()
        BatchReadMapper(reference, cfg).map_batch(reads[:len(starts)])
        assert batch.GLOBAL_STATS.fallback == 0

    def test_tail_window_clamped_at_consensus_end(self, reference):
        """Reads ending within ``end_slack`` bases of the consensus end
        (and at the first unclamped ends), with a short tail carrying
        one or two substitutions: the tail's window is cut at the last
        consensus base."""
        cfg = MapperConfig()
        gaps = [0, 5, cfg.end_slack - 1, cfg.end_slack, cfg.end_slack + 1]
        reads = []
        for subs in ([94], [94, 98]):
            for gap in gaps:
                end = reference.size - gap
                codes = reference[end - 100:end].copy()
                codes[subs] = (codes[subs] + 1) % 4
                reads.append(codes)
        want = _maps_like_map_one(reference, reads, cfg)
        assert [(r.unmapped, r.clip_end.size, r.cost) for r in want] \
            == [(False, 0, 1)] * 5 + [(False, 0, 2)] * 5
        # The batch kernel proves the one-substitution tails itself, in
        # the same windows: it leaves none of them to stage 4.
        batch.reset_stats()
        BatchReadMapper(reference, cfg).map_batch(reads[:len(gaps)])
        assert batch.GLOBAL_STATS.fallback == 0

    def test_flank_windows_at_the_lane_width(self, reference):
        """A flank with edits is proven by stage 3 while its window fits
        one ``uint64`` lane, 64 columns: a 40-base head or tail and its
        ``end_slack``, or a 50-base head whose window is cut at
        consensus base 0.  A 41-base tail (65 columns) is left to stage
        4.  Either way the batch kernel's table is the scalar one's.
        Each flank costs its count of ``N``s (an ``N`` matches nothing
        in the consensus), and none is a clip."""
        cfg = MapperConfig()
        assert 40 + cfg.end_slack == batch._LANE_BITS
        fits = [_n_flank(reference, 1_000, 151, 40, 3, False),
                _n_flank(reference, 1_000, 151, 40, 3, True),
                _n_flank(reference, 0, 151, 50, 4, True)]
        wide = [_n_flank(reference, 1_000, 150, 41, 3, False)]
        for reads, fallback in ((fits, 0), (wide, 1)):
            want = _maps_like_map_one(reference, reads, cfg)
            assert [(r.cost, r.clip_start.size, r.clip_end.size)
                    for r in want] == [(c, 0, 0) for c in (3, 3, 4)][
                        :len(reads)]
            batch.reset_stats()
            table = BatchReadMapper(reference, cfg).map_batch(reads)
            assert (batch.GLOBAL_STATS.verified,
                    batch.GLOBAL_STATS.fallback) == (len(reads), fallback)
            assert _columns(table) == _columns(
                ReadMapper(reference, cfg).map_batch(reads))

    def test_empty_batch(self, reference):
        # The columns of an empty table have a mapped one's dtypes.
        mapped = _columns(ReadMapper(reference, MapperConfig()).map_batch(
            [reference[100:200], reference[300:400]]))
        for kernel in (ReadMapper, BatchReadMapper):
            table = kernel(reference, MapperConfig()).map_batch([])
            assert len(table) == 0 and mapping_results(table) == []
            with pytest.raises(TypeError):    # a table, not a sequence
                iter(table)
            assert _columns(table) == {
                name: (dtype, [0] if name == "offsets" else [])
                for name, (dtype, _) in mapped.items()}


# ----------------------------------------------------------------------
# Analysis consumers: column passes against the per-read oracles
# ----------------------------------------------------------------------

class TestAnalysisColumns:
    """``PropertyAccumulator``, ``pileup`` and ``quality_block_access``
    compute from the table's columns; the per-read loops in
    ``tests/conftest.py`` are their oracles, on either mapper kernel."""

    @staticmethod
    def _check(blocks, reference, mapper_config, sites):
        assert_same_report(analyze(blocks, reference, mapper_config),
                           property_oracle(blocks, reference, mapper_config))
        evidence = pileup(blocks, reference, mapper_config)
        want, mappings = pileup_oracle(blocks, reference, mapper_config)
        assert_same_report(evidence, want)
        read_set = ReadSet.concat(blocks)
        calls = [VariantCall(int(p), "sub", 0, 0, 1, 1) for p in sites]
        for block_size in (64, 1_024):
            for emission_order in (True, False):
                got = quality_block_access(read_set, evidence, calls,
                                           block_size,
                                           emission_order=emission_order)
                assert got == quality_access_oracle(
                    read_set, mappings, calls, block_size,
                    emission_order=emission_order)

    def test_fuzz_material_covers_every_shape(self, reference):
        """The property below sees reverse reads, clips, indels, ``N``,
        chimeras and unmapped reads."""
        rng = np.random.default_rng(1)
        codes, offsets = block_columns(_fuzz_reads(
            rng, reference, 200, 260, clip_rate=0.2))
        table = make_mapper(batch.DEFAULT_MAPPER, reference, MapperConfig(
            max_segments=3)).map_batch(codes, offsets)
        assert table.reverse.any() and table.unmapped.any()
        assert (table.clip_s > 0).any() and (table.clip_e > 0).any()
        assert (table.kind != 0).any() and (codes == seqmod.N_CODE).any()
        assert (np.bincount(table.seg_row) > 1).any()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           n_reads=st.integers(0, 40),
           read_len=st.sampled_from([30, 90, 260]),
           max_segments=st.sampled_from([1, 3]),
           block_reads=st.integers(1, 40),
           n_sites=st.integers(0, 12))
    def test_equals_the_oracles(self, reference, seed, n_reads, read_len,
                                max_segments, block_reads, n_sites):
        rng = np.random.default_rng(seed)
        reads = ReadSet([Read(codes=c) for c in _fuzz_reads(
            rng, reference, n_reads, read_len, clip_rate=0.2)])
        sites = rng.integers(0, reference.size + 20, n_sites)
        self._check(chunked(reads, block_reads), reference,
                    MapperConfig(max_segments=max_segments), sites)

    @pytest.mark.parametrize("analog", ["rs2_small", "rs3_small",
                                        "rs4_small"])
    def test_analogs_equal_the_oracles(self, analog, request):
        sim = request.getfixturevalue(analog)
        blocks = chunked(sim.read_set, 256)
        evidence = pileup(blocks, sim.reference)
        sites = [call.position for call in call_variants(
            blocks, sim.reference, min_depth=1, min_alt_fraction=0.2,
            evidence=evidence)]
        assert sites
        self._check(blocks, sim.reference, None, sites)


# ----------------------------------------------------------------------
# Batched extension: the solver against its oracle
# ----------------------------------------------------------------------

_ALIGNERS = {"global": alignment.global_align,
             "prefix_free": alignment.prefix_free_align,
             "suffix_free": alignment.suffix_free_align}


def _fuzz_jobs(rng, n_jobs):
    """Mixed extension jobs: empty sides, 1 x m, n x 1, Ns, windows on
    either side of one 64-bit lane word, and shapes from a few cells to
    tens of thousands in one list."""
    shapes = [(0, 9), (7, 0), (0, 0), (1, 12), (14, 1), (1, 1), (5, 8),
              (33, 40), (70, 21), (60, 64), (64, 65), (90, 63), (130, 150)]
    jobs = []
    for _ in range(n_jobs):
        n, m = shapes[int(rng.integers(len(shapes)))]
        n, m = (int(rng.integers(s // 2, s + 1)) if s > 1 else s
                for s in (n, m))
        cons = rng.integers(0, 4, m).astype(np.uint8)
        # A read related to its window (so the optimum is not all
        # substitutions), with errors and Ns on either side.
        read = (np.resize(np.roll(cons, int(rng.integers(-3, 4))), n)
                if m else rng.integers(0, 4, n).astype(np.uint8))
        for seg in (read, cons):
            hit = rng.random(seg.size) < 0.1
            seg[hit] = rng.integers(0, seqmod.N_CODE + 1, int(hit.sum()))
        jobs.append(AlignmentJob(read, cons, str(rng.choice(list(_ALIGNERS)))))
    return jobs


def _alignment_key(res):
    return (tuple(zip(res.kind, res.read_pos, res.length)), int(res.cost),
            int(res.cons_used_start), int(res.cons_used_end))


class TestBatchedExtension:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_jobs=st.integers(0, 30),
           one_job_chunks=st.booleans())
    def test_solver_matches_scalar_aligners(self, seed, n_jobs,
                                            one_job_chunks):
        jobs = _fuzz_jobs(np.random.default_rng(seed), n_jobs)
        want = [_alignment_key(_ALIGNERS[job.flavour](job.read_seg,
                                                      job.cons_seg))
                for job in jobs]
        chunks = []
        solve_lanes = batch._solve_lanes

        def counting(part, *args):
            chunks.append(len(part))
            return solve_lanes(part, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(batch, "_solve_lanes", counting)
            if one_job_chunks:
                patch.setattr(batch, "_LANE_CHUNK_BYTES", 1)
            stats = MapperStats()
            got = solve_extension_jobs(jobs, stats)
        assert [_alignment_key(res) for res in solved_results(got)] == want
        lanes = sum(job.cons_seg.size <= batch._LANE_BITS for job in jobs)
        assert sum(chunks) == lanes
        if one_job_chunks:
            assert chunks == [1] * lanes
        assert stats.extension_jobs == n_jobs
        assert stats.extension_cells == sum(
            job.read_seg.size * job.cons_seg.size for job in jobs)

    def test_lane_chunks_stay_under_the_cap(self, monkeypatch):
        """Long-read jobs (heads, tails and gaps of up to 90 read bases
        in windows up to 64 wide, as ``encode_long`` hands the solver)
        store two 8-byte words per DP row of each lane; no chunk of
        lanes stores more than ``_LANE_CHUNK_BYTES`` of them, and what
        the solve holds beyond its results stays near one chunk's
        words (1.37x the cap here; 3.3x were they one chunk)."""
        rng = np.random.default_rng(7)
        jobs = []
        for n in rng.integers(60, 91, 4000).tolist():
            cons = rng.integers(0, 4, int(rng.integers(min(n - 8, 48), 65)))
            read = np.resize(cons, n).astype(np.uint8)
            jobs.append(AlignmentJob(read, cons.astype(np.uint8),
                                     str(rng.choice(list(_ALIGNERS)))))
        stored = []
        solve_lanes = batch._solve_lanes

        def measuring(part, which, n, *args):
            stored.append(int((n + 1).sum()) * 2 * 8)
            return solve_lanes(part, which, n, *args)

        monkeypatch.setattr(batch, "_solve_lanes", measuring)
        tracemalloc.start()
        try:
            results = solve_extension_jobs(jobs, MapperStats())
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cap = batch._LANE_CHUNK_BYTES
        assert results.cost.size == len(jobs)
        assert sum(stored) > 2 * cap            # the cap is what splits
        assert max(stored) <= cap
        assert peak - held < 1.5 * cap, (peak - held) / cap

    def test_only_wide_jobs_are_traced_one_at_a_time(self, monkeypatch):
        """Every job of at most 64 columns is traced in lanes: during
        the solve, ``trace_ops`` and ``dp_rows`` run once per wider job
        and for nothing else."""
        jobs = _fuzz_jobs(np.random.default_rng(5), 200)
        calls = {"trace_ops": 0, "dp_rows": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(alignment, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(alignment, name, counted)
        solve_extension_jobs(jobs, MapperStats())
        wide = sum(job.cons_seg.size > batch._LANE_BITS for job in jobs)
        assert 0 < wide < len(jobs)
        assert calls == {"trace_ops": wide, "dp_rows": wide}

    def test_pad_codes_are_no_base(self):
        assert batch._CONS_PAD not in set(range(seqmod.N_CODE + 1))


# ----------------------------------------------------------------------
# Registry + options plumbing
# ----------------------------------------------------------------------

class TestMapperRegistry:
    def test_available(self):
        assert available_mappers() == ("numpy", "python")

    def test_resolve_default(self):
        assert resolve_mapper(None) == batch.DEFAULT_MAPPER == "numpy"
        assert SAGeConfig().mapper_kernel == batch.DEFAULT_MAPPER
        assert resolve_mapper("python") == "python"

    def test_resolve_env(self, monkeypatch):
        # The kernel is named where a config is built; the environment
        # chooses nothing.
        monkeypatch.setenv("SAGE_MAPPER", "python")
        assert resolve_mapper(None) == "numpy"
        assert SAGeConfig().mapper_kernel == "numpy"

    def test_resolve_unknown(self):
        for bad in ("simd", "auto"):
            with pytest.raises(ValueError, match="unknown mapper"):
                resolve_mapper(bad)

    def test_make_mapper_classes(self, reference):
        assert type(make_mapper("python", reference)) is ReadMapper
        assert type(make_mapper("numpy", reference)) is BatchReadMapper

    def test_make_mapper_passes_config(self, reference):
        cfg = MapperConfig(k=13)
        mapper = make_mapper("python", reference, cfg)
        assert type(mapper) is ReadMapper
        assert mapper.config is cfg

    def test_engine_options_validation(self):
        # A session does not name a mapper: that is the format config's.
        with pytest.raises(TypeError):
            EngineOptions(mapper="numpy")

    def test_options_reach_compressor_config(self):
        config = SAGeConfig(mapper_kernel="python")
        copied = EngineOptions().compressor_config(config)
        assert copied == config and copied is not config
        assert EngineOptions().compressor_config().mapper_kernel \
            == batch.DEFAULT_MAPPER


# ----------------------------------------------------------------------
# Shared k-mer index: one build per archive
# ----------------------------------------------------------------------

class TestSharedIndex:
    @pytest.fixture(autouse=True)
    def _clean_worker_globals(self):
        saved = compressor_mod._worker_compressor
        compressor_mod._worker_compressor = None
        yield
        compressor_mod._worker_compressor = saved

    def test_pickle_does_not_rebuild(self, reference):
        index = KmerIndex(reference)
        before = KmerIndex.build_count
        clone = pickle.loads(pickle.dumps(index))
        assert KmerIndex.build_count == before
        assert np.array_equal(clone.values, index.values)

    def test_compressor_builds_index_once(self, rs3_small):
        before = KmerIndex.build_count
        compressor = SAGeCompressor(rs3_small.reference, SAGeConfig())
        compressor.compress(rs3_small.read_set)
        compressor.compress(rs3_small.read_set)
        assert KmerIndex.build_count == before + 1

    def test_worker_initializer_reuses_parent_index(self, rs3_small):
        """The regression test for per-worker index rebuilds: a worker
        seeded through ``_init_worker`` must not build its own index."""
        compressor = SAGeCompressor(rs3_small.reference, SAGeConfig())
        index = compressor.shared_kmer_index()
        before = KmerIndex.build_count
        compressor_mod._init_worker(compressor.consensus, compressor.config,
                                    pickle.loads(pickle.dumps(index)))
        chunks = chunked(rs3_small.read_set, 32)
        for chunk in chunks[:2]:
            compressor_mod._compress_chunk_pooled(chunk)
        assert KmerIndex.build_count == before

    def test_blocked_compression_single_build(self, rs3_small):
        before = KmerIndex.build_count
        options = EngineOptions(block_reads=32)
        SAGeCompressor(rs3_small.reference, SAGeConfig(),
                       options=options).compress(rs3_small.read_set)
        assert KmerIndex.build_count == before + 1

    def test_mismatched_index_is_ignored(self, reference):
        wrong = KmerIndex(reference, k=11)
        mapper = ReadMapper(reference, MapperConfig(k=15), index=wrong)
        assert mapper.index.k == 15
        compressor = SAGeCompressor(
            reference, SAGeConfig(mapper=MapperConfig(k=15)),
            shared_index=wrong)
        assert compressor.shared_kmer_index().k == 15


# ----------------------------------------------------------------------
# Seeding primitives
# ----------------------------------------------------------------------

class TestFilterPrimitives:
    @pytest.mark.parametrize("k", [3, 15, 21, 31])
    def test_revcomp_kmers_match_reference(self, k):
        rng = np.random.default_rng(k)
        codes = rng.integers(0, 4, 200).astype(np.uint8)
        codes[50:52] = seqmod.N_CODE
        fwd = seqmod.kmer_codes(codes, k)
        want = seqmod.kmer_codes(seqmod.reverse_complement(codes), k)[::-1]
        got = batch._revcomp_kmers(fwd, k)
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

class TestMapperStats:
    def test_stats_populated_and_merged(self, reference):
        rng = np.random.default_rng(1)
        codes_list = _fuzz_reads(rng, reference, 50, 90)
        batch.reset_stats()
        BatchReadMapper(reference, MapperConfig()).map_batch(codes_list)
        st_ = batch.GLOBAL_STATS
        assert st_.reads == 50
        assert st_.batches == 1
        assert st_.fast_path + st_.fallback == 50

    def test_extension_counters(self, reference, monkeypatch):
        """``extension_jobs`` / ``extension_cells`` count every gap, head
        and tail alignment of the reads the fast path left (``fallback``)
        — real cells, not the padded buckets; ``dp_cells`` counts the
        real cells of the flanks stage 3 steps as lanes: rows x (columns
        + 1) of each, with no padding."""
        solved = []
        solve = batch.solve_extension_jobs
        computed = []
        step = batch.step_lanes

        def recording(jobs, stats):
            solved.extend(jobs)
            return solve(jobs, stats)

        def measuring(reads, cons, n, m, free_start, free_end):
            computed.append(int((n * (m + 1)).sum()))
            return step(reads, cons, n, m, free_start, free_end)

        monkeypatch.setattr(batch, "solve_extension_jobs", recording)
        monkeypatch.setattr(batch, "step_lanes", measuring)
        codes_list = _fuzz_reads(np.random.default_rng(1), reference, 50, 90)
        batch.reset_stats()
        BatchReadMapper(reference, MapperConfig()).map_batch(codes_list)
        st_ = batch.GLOBAL_STATS
        assert st_.fallback > 0 and solved
        assert st_.extension_jobs == len(solved)
        assert st_.extension_cells == sum(
            job.read_seg.size * job.cons_seg.size for job in solved)
        # The verification DP's cells are counted apart from them.
        assert computed and st_.dp_cells == sum(computed)

    def test_tail_substitution_stays_on_the_fast_path(self, reference):
        """A read whose only edit is a substitution past its last anchor
        is proven by the verification DP: the padded columns of shorter
        tails never win its argmin, whatever the row dtype."""
        rng = np.random.default_rng(4)
        reads = []
        for start in rng.integers(0, reference.size - 200, 40):
            length = int(rng.integers(80, 140))     # tails of many widths
            codes = reference[start:start + length].copy()
            codes[length - 8] = (codes[length - 8] + 1) % 4
            reads.append(codes)
        batch.reset_stats()
        BatchReadMapper(reference, MapperConfig()).map_batch(reads)
        st_ = batch.GLOBAL_STATS
        assert (st_.verified, st_.fast_path) == (40, 40)

    def test_reset(self):
        batch.GLOBAL_STATS.reads = 7
        batch.reset_stats()
        assert batch.GLOBAL_STATS.reads == 0
