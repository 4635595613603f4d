"""Cross-mapper tests for the batched mapper kernel layer.

The contract under test (:mod:`repro.mapping.batch`): the vectorized
:class:`BatchReadMapper` produces ``MappingResult``s — and therefore
archives — byte-identical to the scalar :class:`ReadMapper` reference,
for every read shape (short/long, indels, Ns, reverse-complement,
chimeric, unmapped junk).  Also covered: the mapper registry, the
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
from repro.genomics.reads import Read, ReadSet, partition_reads
from repro.mapping import batch
from repro.mapping.batch import (BatchReadMapper, MapperStats,
                                 available_mappers, make_mapper,
                                 pack_bases, resolve_mapper)
from repro.mapping.kmer_index import KmerIndex
from repro.mapping.mapper import MapperConfig, ReadMapper


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
        chunks = list(partition_reads(iter(rs3_small.read_set), 32,
                                      name="t"))
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
