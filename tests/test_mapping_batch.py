"""Cross-mapper tests for the batched mapper kernel layer.

The contract under test (:mod:`repro.mapping.batch`): the vectorized
:class:`BatchReadMapper` produces ``MappingResult``s — and therefore
archives — byte-identical to the scalar :class:`ReadMapper` reference,
for every read shape (short/long, indels, Ns, reverse-complement,
chimeric, unmapped junk).  Also covered: the batched extension solver
against the three scalar aligners (its oracle), the mapper registry, the
``EngineOptions.mapper`` knob, the shared k-mer index (built once per
archive, not once per worker), and the SHD filter primitives.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import pileup
from repro.api import EngineOptions, SAGeDataset
from repro.core import SAGeCompressor, SAGeConfig
from repro.core import blocks as blocks_mod
from repro.core.mismatch import OptLevel
from repro.genomics import sequence as seqmod
from repro.genomics.reads import Read, ReadSet
from repro.mapping import alignment, batch
from repro.mapping.batch import (BatchReadMapper, MapperStats,
                                 available_mappers, make_mapper,
                                 pack_bases, resolve_mapper,
                                 solve_extension_jobs)
from repro.mapping.kmer_index import KmerIndex
from repro.mapping.mapper import AlignmentJob, MapperConfig, ReadMapper

from tests.conftest import chunked


# ----------------------------------------------------------------------
# Fuzz material
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def reference():
    rng = np.random.default_rng(42)
    return rng.integers(0, 4, 5_000).astype(np.uint8)


def _fuzz_reads(rng, reference, n_reads, read_len, *, junk_rate=0.08,
                n_rate=0.08, indel_rate=0.25, chimera_rate=0.1,
                tiny_rate=0.05):
    """Randomized read codes exercising every mapper branch."""
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
        expected = [_result_key(scalar.map_read(c)) for c in codes_list]
        got = [_result_key(r) for r in batched.map_batch(codes_list)]
        assert got == expected

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
            mapped[mapper] = [_result_key(res) for res
                              in kernel.map_batch(pieces.read_codes())]
            if mapper == "numpy":
                assert kernel.stats.fallback > 0.9 * len(pieces)
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
            options = EngineOptions(block_reads=64, mapper=mapper)
            dataset = SAGeDataset.from_fastq(
                rs3_small.read_set, reference=rs3_small.reference,
                options=options)
            blobs[mapper] = dataset.to_bytes()
        assert blobs["python"] == blobs["numpy"]

    @pytest.mark.parametrize("analog", ["rs2_small", "rs3_small",
                                        "rs4_small"])
    def test_analysis_consumers_identical(self, analog, request,
                                          monkeypatch):
        """The session's mapper choice reaches every analysis consumer
        and changes nothing they report."""
        sim = request.getfixturevalue(analog)
        archive = SAGeDataset.from_fastq(
            sim.read_set, reference=sim.reference,
            options=EngineOptions(block_reads=64)).archive
        seen = {}
        for mapper in available_mappers():
            session = SAGeDataset(archive,
                                  options=EngineOptions(mapper=mapper))
            batch.reset_stats()
            report, rate = session.analyze("property", "mapping-rate")
            # One map_batch call per sink per block on the numpy
            # kernel; the scalar kernel never reaches the batch mapper.
            assert batch.GLOBAL_STATS.batches \
                == (2 * archive.n_blocks if mapper == "numpy" else 0)
            monkeypatch.setenv("SAGE_MAPPER", mapper)   # free functions
            evidence = pileup(session.blocks(), sim.reference)
            evidence.mappings = [m and _result_key(m)
                                 for m in evidence.mappings]
            seen[mapper] = (_plain(report), rate, _plain(evidence))
        assert seen["python"] == seen["numpy"]
        assert seen["numpy"][1].n_reads == len(sim.read_set)

    def test_consensus_with_n_disables_zero_shortcut(self, reference):
        """An N-bearing consensus must still map byte-identically."""
        cons = reference.copy()
        cons[100:103] = seqmod.N_CODE
        rng = np.random.default_rng(3)
        codes_list = _fuzz_reads(rng, cons, 30, 90, n_rate=0.3)
        cfg = MapperConfig(max_segments=1)
        scalar = ReadMapper(cons, cfg)
        batched = BatchReadMapper(cons, cfg)
        expected = [_result_key(scalar.map_read(c)) for c in codes_list]
        got = [_result_key(r) for r in batched.map_batch(codes_list)]
        assert got == expected

    def test_empty_batch(self, reference):
        batched = BatchReadMapper(reference, MapperConfig())
        assert batched.map_batch([]) == []


# ----------------------------------------------------------------------
# Batched extension: the solver against its oracle
# ----------------------------------------------------------------------

_ALIGNERS = {"global": alignment.global_align,
             "prefix_free": alignment.prefix_free_align,
             "suffix_free": alignment.suffix_free_align}


def _fuzz_jobs(rng, n_jobs):
    """Mixed extension jobs: empty sides, 1 x m, n x 1, Ns, and shapes
    from a few cells to tens of thousands in one list."""
    shapes = [(0, 9), (7, 0), (0, 0), (1, 12), (14, 1), (1, 1), (5, 8),
              (33, 40), (70, 21), (130, 150)]
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
    return (tuple((op.kind, int(op.read_pos), int(op.length),
                   np.asarray(op.bases).tobytes()) for op in res.ops),
            int(res.cost), int(res.cons_used_start), int(res.cons_used_end))


class TestBatchedExtension:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_jobs=st.integers(0, 30),
           one_job_buckets=st.booleans())
    def test_solver_matches_scalar_aligners(self, seed, n_jobs,
                                            one_job_buckets):
        jobs = _fuzz_jobs(np.random.default_rng(seed), n_jobs)
        want = [_alignment_key(_ALIGNERS[job.flavour](job.read_seg,
                                                      job.cons_seg))
                for job in jobs]
        buckets = []
        solve_bucket = batch._solve_bucket

        def counting(part, *args):
            buckets.append(len(part))
            return solve_bucket(part, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(batch, "_solve_bucket", counting)
            if one_job_buckets:
                patch.setattr(batch, "_EXTENSION_CELL_CAP", 1)
            stats = MapperStats()
            got = solve_extension_jobs(jobs, stats)
        assert [_alignment_key(res) for res in got] == want
        assert sum(buckets) == n_jobs
        if one_job_buckets:
            assert buckets == [1] * n_jobs
        assert stats.extension_jobs == n_jobs
        assert stats.extension_cells == sum(
            job.read_seg.size * job.cons_seg.size for job in jobs)

    def test_pad_codes_are_no_base(self):
        codes = set(range(seqmod.N_CODE + 1))
        assert batch._READ_PAD != batch._CONS_PAD
        assert not {batch._READ_PAD, batch._CONS_PAD} & codes


# ----------------------------------------------------------------------
# Registry + options plumbing
# ----------------------------------------------------------------------

class TestMapperRegistry:
    def test_available(self):
        assert available_mappers() == ("numpy", "python")

    def test_resolve_default(self, monkeypatch):
        monkeypatch.delenv("SAGE_MAPPER", raising=False)
        assert resolve_mapper(None) == batch.DEFAULT_MAPPER
        assert resolve_mapper("auto") == batch.DEFAULT_MAPPER
        assert resolve_mapper("python") == "python"

    def test_resolve_env(self, monkeypatch):
        monkeypatch.setenv("SAGE_MAPPER", "python")
        assert resolve_mapper("auto") == "python"
        assert resolve_mapper("numpy") == "numpy"

    def test_resolve_unknown(self):
        with pytest.raises(ValueError, match="unknown mapper"):
            resolve_mapper("simd")

    def test_make_mapper_classes(self, reference):
        assert type(make_mapper("python", reference)) is ReadMapper
        assert type(make_mapper("numpy", reference)) is BatchReadMapper

    def test_make_mapper_passes_config(self, reference):
        cfg = MapperConfig(k=13)
        mapper = make_mapper("python", reference, cfg)
        assert type(mapper) is ReadMapper
        assert mapper.config is cfg

    def test_engine_options_validation(self):
        with pytest.raises(ValueError, match="unknown mapper"):
            EngineOptions(mapper="simd")
        assert EngineOptions(mapper="numpy").mapper == "numpy"

    def test_options_reach_compressor_config(self):
        cfg = EngineOptions(mapper="python").compressor_config()
        assert cfg.mapper_kernel == "python"


# ----------------------------------------------------------------------
# Shared k-mer index: one build per archive
# ----------------------------------------------------------------------

class TestSharedIndex:
    @pytest.fixture(autouse=True)
    def _clean_worker_globals(self):
        saved = blocks_mod._worker_compressor
        blocks_mod._worker_compressor = None
        yield
        blocks_mod._worker_compressor = saved

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
        options = EngineOptions(block_reads=32)
        bc = blocks_mod.BlockCompressor(rs3_small.reference, SAGeConfig(),
                                        options=options)
        index = bc._compressor.shared_kmer_index()
        before = KmerIndex.build_count
        blocks_mod._init_worker(bc.consensus, bc.config,
                                pickle.loads(pickle.dumps(index)))
        chunks = chunked(rs3_small.read_set, 32)
        for chunk in chunks[:2]:
            blocks_mod._compress_chunk_pooled(chunk)
        assert KmerIndex.build_count == before

    def test_blocked_compression_single_build(self, rs3_small):
        before = KmerIndex.build_count
        options = EngineOptions(block_reads=32)
        bc = blocks_mod.BlockCompressor(rs3_small.reference, SAGeConfig(),
                                        options=options)
        bc.compress(rs3_small.read_set)
        assert KmerIndex.build_count == before + 1

    def test_mismatched_index_is_ignored(self, reference):
        wrong = KmerIndex(reference, k=11)
        mapper = ReadMapper(reference, MapperConfig(k=15), index=wrong)
        assert mapper.index.k == 15


# ----------------------------------------------------------------------
# SHD filter primitives
# ----------------------------------------------------------------------

class TestFilterPrimitives:
    def test_pack_bases_layout(self):
        rows = np.array([[0, 1, 2, 3, 1]], dtype=np.uint8)
        packed = pack_bases(rows)
        # MSB-first, 4 bases per byte: 00 01 10 11 | 01 padded with 00.
        assert packed.tolist() == [[0b00011011, 0b01000000]]

    @pytest.mark.parametrize("k", [3, 15, 21, 31])
    def test_revcomp_kmers_match_reference(self, k):
        rng = np.random.default_rng(k)
        codes = rng.integers(0, 4, 200).astype(np.uint8)
        codes[50:52] = seqmod.N_CODE
        fwd = seqmod.kmer_codes(codes, k)
        want = seqmod.kmer_codes(seqmod.reverse_complement(codes), k)[::-1]
        got = batch._revcomp_kmers(fwd, k)
        assert np.array_equal(got, want)

    def test_shd_counts_match_bruteforce(self, reference):
        rng = np.random.default_rng(9)
        mapper = BatchReadMapper(reference, MapperConfig())
        lens = rng.integers(20, 90, size=16)
        diags = rng.integers(0, reference.size - 100, size=16)
        width = int(lens.max())
        rows = np.zeros((16, width), dtype=np.uint8)
        for i, (d, ln) in enumerate(zip(diags, lens)):
            rows[i, :ln] = reference[d:d + ln]
            for _ in range(int(rng.integers(0, 6))):
                p = int(rng.integers(0, ln))
                rows[i, p] = (rows[i, p] + 1 + rng.integers(0, 3)) % 4
        packed = pack_bases(rows)
        masks = batch._byte_masks(lens, packed.shape[1])
        counts = batch._shd_counts(packed, masks, diags,
                                   mapper._cons_phases())
        for i, (d, ln) in enumerate(zip(diags, lens)):
            want = int((rows[i, :ln] != reference[d:d + ln]).sum())
            assert counts[i] == want


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

class TestMapperStats:
    def test_stats_populated_and_merged(self, reference):
        rng = np.random.default_rng(1)
        codes_list = _fuzz_reads(rng, reference, 50, 90)
        batch.reset_stats()
        mapper = BatchReadMapper(reference, MapperConfig())
        mapper.map_batch(codes_list)
        st_ = mapper.stats
        assert st_.reads == 50
        assert st_.batches == 1
        assert st_.fast_path + st_.fallback == 50
        assert batch.GLOBAL_STATS.reads == 50

    def test_extension_counters(self, reference, monkeypatch):
        """``extension_jobs`` / ``extension_cells`` count every gap, head
        and tail alignment of the reads the fast path left (``fallback``)
        — real cells, not the padded buckets."""
        solved = []
        solve = batch.solve_extension_jobs

        def recording(jobs, stats):
            solved.extend(jobs)
            return solve(jobs, stats)

        monkeypatch.setattr(batch, "solve_extension_jobs", recording)
        codes_list = _fuzz_reads(np.random.default_rng(1), reference, 50, 90)
        batch.reset_stats()
        mapper = BatchReadMapper(reference, MapperConfig())
        mapper.map_batch(codes_list)
        st_ = mapper.stats
        assert st_.fallback > 0 and solved
        assert st_.extension_jobs == len(solved)
        assert st_.extension_cells == sum(
            job.read_seg.size * job.cons_seg.size for job in solved)
        assert (batch.GLOBAL_STATS.extension_jobs,
                batch.GLOBAL_STATS.extension_cells) \
            == (st_.extension_jobs, st_.extension_cells)
        # The verification DP keeps its own counter.
        assert st_.dp_cells == batch.GLOBAL_STATS.dp_cells

    def test_reset(self):
        batch.GLOBAL_STATS.reads = 7
        batch.reset_stats()
        assert batch.GLOBAL_STATS.reads == 0

    def test_merge_counts(self):
        a, b = MapperStats(), MapperStats()
        a.reads, b.reads = 3, 4
        a.dp_cells, b.dp_cells = 10, 20
        a.merge(b)
        assert a.reads == 7 and a.dp_cells == 30
