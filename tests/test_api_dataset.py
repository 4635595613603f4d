"""Tests for the SAGeDataset facade, EngineOptions, and built-in sinks."""

import io

import numpy as np
import pytest

from repro.api import EngineOptions, SAGeDataset, available_sinks
from repro.core import (INFLIGHT_PER_WORKER, OptLevel, SAGeCompressor,
                        SAGeConfig)
from repro.core.container import VERSION
from repro.genomics import fastq
from repro.genomics import sequence as seq
from repro.genomics.reads import PLACEHOLDER_SCORE, Read, ReadSet

from tests.conftest import (assert_same_columns, chunked, format_read,
                            golden_blob, read_multiset)

BLOCK_READS = 16


@pytest.fixture(scope="module")
def blocked_options():
    return EngineOptions(block_reads=BLOCK_READS)


@pytest.fixture(scope="module")
def dataset(rs3_small, blocked_options):
    return SAGeDataset.from_fastq(rs3_small.read_set,
                                  reference=rs3_small.reference,
                                  options=blocked_options)


@pytest.fixture()
def fastq_dir(tmp_path, rs3_small):
    fq = tmp_path / "reads.fastq"
    ref = tmp_path / "ref.txt"
    fastq.write_file(rs3_small.read_set, fq)
    ref.write_text(seq.decode(rs3_small.reference), encoding="ascii")
    return tmp_path


class TestEngineOptions:
    def test_defaults(self):
        options = EngineOptions()
        assert options.workers == 1
        assert options.backend == "auto"
        assert options.block_reads == 0

    @pytest.mark.parametrize("kwargs,fragment", [
        (dict(workers=0), "workers"),
        (dict(workers=-3), "workers"),
        (dict(backend="gpu"), "backend"),
        (dict(on_error="explode"), "on_error"),
        (dict(block_reads=-1), "block_reads"),
    ])
    def test_validation_rejects_bad_values(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            EngineOptions(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(level="O1"), dict(with_quality=False), dict(long_reads=True)])
    def test_format_fields_are_not_options(self, kwargs):
        # What the bytes are is stated on SAGeConfig, nowhere else.
        with pytest.raises(TypeError):
            EngineOptions(**kwargs)

    def test_block_reads_alone_partitions(self):
        # workers never turns a one-block archive into a partitioned one.
        assert EngineOptions(workers=4).block_reads == 0
        assert EngineOptions(workers=4).effective_block_reads == 0
        assert EngineOptions(block_reads=64).effective_block_reads == 64

    def test_window(self):
        assert EngineOptions(workers=3).window == 3 * INFLIGHT_PER_WORKER
        assert EngineOptions().window >= 1

    def test_replace_revalidates(self):
        options = EngineOptions(workers=2)
        assert options.replace(workers=5).workers == 5
        with pytest.raises(ValueError):
            options.replace(workers=0)

    def test_compressor_config(self):
        # The two objects share no field, so the session stamps nothing
        # on the format: the config comes back as a copy.
        assert EngineOptions().compressor_config() == SAGeConfig()
        given = SAGeConfig(level=OptLevel.O2, mapper_kernel="python")
        config = EngineOptions(codec="python").compressor_config(given)
        assert config == given and config is not given
        with pytest.raises(TypeError, match="mapper"):
            EngineOptions(mapper="numpy")

    @pytest.mark.parametrize("field", ["workers", "block_reads"])
    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_are_not_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            EngineOptions(**{field: value})
        assert getattr(EngineOptions(**{field: np.int64(1)}), field) == 1


class TestFacadeCompression:
    def test_flat_byte_identical_to_legacy(self, rs3_small):
        legacy = SAGeCompressor(rs3_small.reference, SAGeConfig()) \
            .compress(rs3_small.read_set)
        facade = SAGeDataset.from_fastq(rs3_small.read_set,
                                        reference=rs3_small.reference)
        assert facade.to_bytes() == legacy.to_bytes()
        assert facade.n_blocks == 1

    def test_blocked_byte_identical_to_legacy(self, rs3_small, dataset,
                                              blocked_options):
        legacy = SAGeCompressor(rs3_small.reference,
                                options=blocked_options) \
            .compress(rs3_small.read_set)
        assert dataset.to_bytes() == legacy.to_bytes()
        assert dataset.n_blocks > 2

    def test_from_fastq_path_streams(self, fastq_dir, rs3_small,
                                     blocked_options, dataset):
        from_path = SAGeDataset.from_fastq(fastq_dir / "reads.fastq",
                                           reference=fastq_dir / "ref.txt",
                                           options=blocked_options)
        assert read_multiset(from_path.read_set()) \
            == read_multiset(rs3_small.read_set)
        totals = from_path.source_totals
        assert totals.reads == len(rs3_small.read_set)
        assert totals.bases == rs3_small.read_set.total_bases
        assert totals.fastq_bytes > 0

    def test_from_prechunked_stream(self, rs3_small):
        chunks = chunked(rs3_small.read_set, 20)
        ds = SAGeDataset.from_fastq(iter(chunks),
                                    reference=rs3_small.reference)
        assert ds.n_blocks == len(chunks)
        assert ds.source_totals.reads == len(rs3_small.read_set)
        # The header records options.block_reads, not a size nobody chose.
        assert ds.archive.block_reads == 0

    def test_config_overrides_options(self, rs3_small):
        ds = SAGeDataset.from_fastq(
            rs3_small.read_set, reference=rs3_small.reference,
            config=SAGeConfig(level=OptLevel.O1, with_quality=False))
        assert ds.archive.level is OptLevel.O1
        assert ds.archive.block(0).quality is None

    def test_config_with_overlapping_option_is_rejected(self, rs3_small):
        # Nothing can conflict: the format fields exist on SAGeConfig
        # only, so stating one on the options fails at construction.
        for field, value in (("level", "O1"), ("with_quality", False),
                             ("long_reads", True)):
            with pytest.raises(TypeError, match=field):
                EngineOptions(**{field: value})
        # Session fields combine with config.
        ds = SAGeDataset.from_fastq(
            rs3_small.read_set, reference=rs3_small.reference,
            options=EngineOptions(block_reads=BLOCK_READS, codec="python"),
            config=SAGeConfig(with_headers=True))
        assert ds.n_blocks > 1

    def test_config_keeps_the_session_kernels(self, rs3_small):
        # Each kernel is named on the object it belongs to: the mapper
        # on the format config, the decode kernel on the session, and
        # neither overrides the other.  Both mappers write the same
        # bytes.
        from repro.mapping import batch

        blobs = {}
        for mapper in ("numpy", "python"):
            batch.reset_stats()
            ds = SAGeDataset.from_fastq(
                rs3_small.read_set, reference=rs3_small.reference,
                options=EngineOptions(block_reads=BLOCK_READS,
                                      codec="python"),
                config=SAGeConfig(mapper_kernel=mapper))
            assert batch.GLOBAL_STATS.reads \
                == (len(rs3_small.read_set) if mapper == "numpy" else 0)
            assert ds.decompressor().codec == "python"
            blobs[mapper] = ds.to_bytes()
        assert blobs["python"] == blobs["numpy"]


class TestOneWritePath:
    """``block_reads`` alone partitions; ``workers`` and the source kind
    never change a byte."""

    @pytest.mark.parametrize("block_reads", [0, 64])
    def test_bytes_depend_on_the_partition_only(self, block_reads,
                                                rs3_small, fastq_dir):
        path = fastq_dir / "reads.fastq"
        reads = fastq.read_file(path)
        n_blocks = -(-len(reads) // block_reads) if block_reads else 1
        sources = {
            "read_set": lambda: reads,
            "path": lambda: path,
            "chunks": lambda: iter(chunked(reads,
                                           block_reads or len(reads))),
        }
        blobs = set()
        for make_source in sources.values():
            for workers in (1, 2):
                ds = SAGeDataset.from_fastq(
                    make_source(), reference=rs3_small.reference,
                    options=EngineOptions(workers=workers,
                                          block_reads=block_reads))
                assert ds.n_blocks == n_blocks
                assert ds.archive.block_reads == block_reads
                assert ds.source_totals.reads == len(reads)
                blobs.add(ds.to_bytes())
        assert len(blobs) == 1


class TestFacadeSessions:
    def test_save_open_roundtrip(self, tmp_path, dataset, rs3_small):
        path = tmp_path / "rs3.sage"
        nbytes = dataset.save(path)
        assert path.stat().st_size == nbytes
        with SAGeDataset.open(path) as session:
            assert session.format_version == VERSION
            assert session.n_blocks == dataset.n_blocks
            assert read_multiset(session.read_set()) \
                == read_multiset(rs3_small.read_set)
        assert session.closed

    def test_zero_length_record_keeps_every_score(self, tmp_path,
                                                  rs3_small):
        """A FASTQ with an empty record in the middle comes back byte
        for byte: the empty read owns an empty slice of the scores, it
        does not switch the block's quality stream off."""
        ref = rs3_small.reference
        records = [("a", seq.decode(ref[100:160]), "5" * 60),
                   ("b", "", ""),
                   ("c", seq.decode(ref[300:360]), "#" * 30 + "F" * 30)]
        text = "".join(f"@{h}\n{bases}\n+\n{scores}\n"
                       for h, bases, scores in records)
        source, archive = tmp_path / "in.fastq", tmp_path / "in.sage"
        source.write_text(text, encoding="ascii")
        SAGeDataset.from_fastq(
            source, reference=ref,
            config=SAGeConfig(preserve_order=True, with_headers=True)
        ).save(archive)
        with SAGeDataset.open(archive) as session:
            assert session.to_fastq(tmp_path / "out.fastq") == 3
        assert (tmp_path / "out.fastq").read_text(encoding="ascii") == text

    def test_pipe_in_headers_roundtrips(self, tmp_path, rs3_small):
        """An NCBI-style FASTQ (``@gi|123|ref|…``) archives with stored
        headers and comes back byte for byte: front coding splits each
        line at its first ``|`` only."""
        ref = rs3_small.reference
        names = ["gi|123|ref|NC_000001.11|", "gi|124|ref|NC_000001.11|",
                 "|", "7|x"]
        text = "".join(
            f"@{name}\n{seq.decode(ref[s:s + 50])}\n+\n{'F' * 50}\n"
            for name, s in zip(names, range(100, 900, 200)))
        source, archive = tmp_path / "in.fastq", tmp_path / "in.sage"
        source.write_text(text, encoding="ascii")
        SAGeDataset.from_fastq(
            source, reference=ref,
            config=SAGeConfig(preserve_order=True, with_headers=True)
        ).save(archive)
        with SAGeDataset.open(archive) as session:
            assert session.to_fastq(tmp_path / "out.fastq") == len(names)
        assert (tmp_path / "out.fastq").read_text(encoding="ascii") == text

    def test_score_less_read_keeps_the_other_scores(self, rs3_small):
        """One read without scores takes the placeholder; every other
        read of its block keeps its own."""
        reads = list(rs3_small.read_set.subset(range(6)))
        bare = Read(reads[2].codes, header=reads[2].header)
        mixed = ReadSet(reads[:2] + [bare] + reads[3:], name="mixed")
        dataset = SAGeDataset.from_fastq(
            mixed, reference=rs3_small.reference,
            config=SAGeConfig(preserve_order=True))
        back = dataset.read_set()
        assert back[2].quality.tolist() \
            == [PLACEHOLDER_SCORE] * len(bare)
        assert [r for i, r in enumerate(back) if i != 2] \
            == reads[:2] + reads[3:]

    def test_closed_session_rejects_streaming(self, tmp_path, dataset):
        path = tmp_path / "rs3.sage"
        dataset.save(path)
        with SAGeDataset.open(path) as session:
            pass
        with pytest.raises(ValueError, match="closed"):
            list(session.blocks())
        with pytest.raises(ValueError, match="closed"):
            session.save(path)

    def test_requires_archive(self):
        with pytest.raises(TypeError):
            SAGeDataset(b"not an archive")


class TestFacadeStreaming:
    def test_blocks_cover_archive_in_order(self, dataset):
        sets = list(dataset.blocks())
        assert len(sets) == dataset.n_blocks
        expected = [dataset.decode_block(i)
                    for i in range(dataset.n_blocks)]
        assert [r.header for s in sets for r in s] \
            == [r.header for s in expected for r in s]

    def test_reads_flatten(self, dataset, rs3_small):
        assert sum(1 for block in dataset.blocks() for _ in block) \
            == len(rs3_small.read_set)

    def test_parallel_blocks_identical(self, dataset):
        serial = list(dataset.blocks())
        sibling = SAGeDataset(
            dataset.archive, decompressor=dataset.decompressor(),
            options=EngineOptions(workers=2, block_reads=BLOCK_READS))
        parallel = list(sibling.blocks())
        text = "".join(format_read(r, 0)
                       for s in serial for r in s)
        assert text == "".join(format_read(r, 0)
                               for s in parallel for r in s)

    def test_to_fastq_handle_and_path(self, dataset, tmp_path):
        buffer = io.StringIO()
        n = dataset.to_fastq(buffer)
        assert n == dataset.n_reads
        path = tmp_path / "out.fastq"
        assert dataset.to_fastq(path) == n
        assert path.read_text(encoding="ascii") == buffer.getvalue()
        assert buffer.getvalue() == fastq.write(dataset.read_set())

    def test_stats_after_pass(self, dataset):
        list(dataset.blocks())
        stats = dataset.stats
        assert stats.blocks == dataset.n_blocks
        assert stats.reads == dataset.n_reads


class TestFacadeAnalysis:
    def test_analyze_default_property(self, dataset):
        """The ``property`` sink, ``sage analyze``'s default."""
        [report] = dataset.pipe("property").run()
        assert report.n_reads == dataset.n_reads

    def test_analyze_by_name(self, dataset):
        report, rate = dataset.pipe("property", "mapping-rate").run()
        assert report.n_reads == rate.n_reads == dataset.n_reads
        assert rate.n_mapped + rate.n_unmapped == rate.n_reads

    def test_pipe_fluent_chain(self, dataset):
        pipeline = dataset.pipe("mapping-rate") \
            .pipe(lambda block: len(block))
        rate, sizes = pipeline.run()
        assert sum(sizes) == dataset.n_reads
        assert rate.n_reads == dataset.n_reads
        assert pipeline.stats is not None
        assert pipeline.stats.blocks == dataset.n_blocks

    def test_pipe_accepts_sink_objects(self, dataset):
        from repro.pipeline import CollectSink
        [collected] = dataset.pipe(CollectSink()).run()
        assert len(collected) == dataset.n_reads

        class GCSink:
            """A custom analysis (README's ``MyGCSink``): piped as is,
            its ``requires`` narrows the decode like a built-in's."""

            requires = ("sequence",)

            def __init__(self):
                self.gc = self.bases = 0

            def consume(self, index, block):
                self.gc += int(np.isin(block.codes, (1, 2)).sum())
                self.bases += block.codes.size

            def finish(self):
                return self.gc / self.bases

        pipeline = dataset.pipe(GCSink())
        [fraction] = pipeline.run()
        assert fraction == np.isin(collected.codes, (1, 2)).sum() \
            / collected.codes.size
        assert pipeline.stats.streams_decoded["quality"] == 0

    def test_empty_pipeline_rejected(self, dataset):
        with pytest.raises(ValueError, match="no sinks"):
            dataset.pipe().run()

    @pytest.mark.parametrize("spec", ["mapping-rate", "collect"])
    def test_pipeline_runs_once(self, dataset, spec):
        """The sinks accumulate, so a second ``run()`` used to report
        every figure doubled (3584 reads of 1792; ``collect`` the
        dataset twice over).  It is refused; ``dataset.pipe`` builds a
        new pipeline per call and keeps answering the same."""
        pipeline = dataset.pipe(spec)
        [first] = pipeline.run()
        with pytest.raises(RuntimeError, match=r"dataset\.pipe"):
            pipeline.run()
        [again] = dataset.pipe(spec).run()
        assert first == again

    def test_analysis_sinks_never_build_read_views(self, dataset):
        """A block is its columns at the sink too: after the built-in
        analysis sinks consumed it, no ``Read`` view exists."""
        built = dataset.pipe("property", "mapping-rate").pipe(
            lambda block: block._views is not None).run()[-1]
        assert built == [False] * dataset.n_blocks

    def test_unknown_sink_name(self, dataset):
        with pytest.raises(ValueError, match="unknown sink"):
            dataset.pipe("nope")

    def test_bad_sink_spec(self, dataset):
        with pytest.raises(TypeError):
            dataset.pipe(42)


class TestSinkRegistry:
    def test_builtins_registered(self):
        # A fixed table: three names, nothing registers more.
        assert available_sinks() == ("collect", "mapping-rate", "property")

    def test_register_resolve_unregister(self, dataset):
        # A custom sink needs no name: piped as a callable it resolves
        # to a CallableSink, sees every block, and leaves the table as
        # it was.
        from repro.api.sinks import CallableSink, resolve_sink

        def count_block(block):
            return 1

        assert isinstance(resolve_sink(dataset, count_block), CallableSink)
        [ones] = dataset.pipe(count_block).run()
        assert sum(ones) == dataset.n_blocks
        assert available_sinks() == ("collect", "mapping-rate", "property")

    def test_invalid_names_rejected(self, dataset):
        for name in ("", "gc", "Property"):
            with pytest.raises(ValueError, match="unknown sink") as info:
                dataset.pipe(name)
            assert "collect, mapping-rate, property" in str(info.value)


class TestIntegrityAPI:
    def test_atomic_write_bytes(self, tmp_path):
        from repro.api import atomic_write_bytes
        path = tmp_path / "out.bin"
        assert atomic_write_bytes(path, b"abc") == 3
        assert path.read_bytes() == b"abc"
        assert list(tmp_path.iterdir()) == [path]

    def test_atomic_write_syncs_the_directory(self, tmp_path, monkeypatch):
        """The rename is durable only once its directory is fsynced."""
        import os
        import stat

        from repro.api import atomic_write_bytes
        events = []
        fsync, replace = os.fsync, os.replace

        def recorded_fsync(fd):
            events.append(("fsync", stat.S_ISDIR(os.fstat(fd).st_mode)))
            fsync(fd)

        def recorded_replace(src, dst):
            events.append(("replace", None))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recorded_fsync)
        monkeypatch.setattr(os, "replace", recorded_replace)
        atomic_write_bytes(tmp_path / "out.bin", b"abc")
        after = events[events.index(("replace", None)) + 1:]
        assert ("fsync", True) in after

    def test_save_failure_keeps_old_file(self, tmp_path, dataset,
                                         monkeypatch):
        import os
        path = tmp_path / "rs3.sage"
        dataset.save(path)
        before = path.read_bytes()

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            dataset.save(path)
        monkeypatch.undo()
        # The old archive survives and no temp file is left behind.
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_verify_ok(self, dataset):
        report = dataset.verify()
        assert report.status == "ok" and report.ok
        assert not report.deep
        deep = dataset.verify(deep=True)
        assert deep.status == "ok" and deep.deep and not deep.errors
        assert deep.to_dict()["status"] == "ok"

    def test_verify_pre_v4_unchecked(self, tmp_path):
        path = tmp_path / "v3.sage"
        path.write_bytes(golden_blob("v3_blocked"))
        with SAGeDataset.open(path) as session:
            report = session.verify()
            assert report.status == "unchecked"
            assert report.ok        # unchecked is not a failure
            deep = session.verify(deep=True)
            # Deep decode verifies each block even without digests; the
            # header/consensus digests remain absent on v3.
            assert set(deep.blocks) == {"ok"}
            assert deep.header == "unchecked"
            assert deep.ok and not deep.errors

    def test_salvage_intact_archive(self, dataset, rs3_small):
        # Salvage is a pass on a skip session; its stats are the report.
        session = SAGeDataset(dataset.archive,
                              options=EngineOptions(on_error="skip"),
                              decompressor=dataset.decompressor())
        recovered = session.read_set()
        stats = session.stats
        assert stats.blocks == dataset.n_blocks and not stats.gaps
        assert stats.reads == len(recovered) == dataset.n_reads
        assert read_multiset(recovered) \
            == read_multiset(rs3_small.read_set)


class TestSystemIntegration:
    def test_hardware_verify_consumes_dataset(self, dataset):
        """The hardware model decodes a dataset's archive to the reads
        the facade serves, serial or parallel."""
        from repro.hardware.sage_units import SAGeHardwareModel
        from repro.hardware.ssd import pcie_ssd
        reads, _ = SAGeHardwareModel(pcie_ssd()).run(dataset.archive)
        for session in (dataset, SAGeDataset(
                dataset.archive, options=EngineOptions(workers=2))):
            assert_same_columns(reads, session.read_set())

    def test_consensus_matches_reference(self, dataset, rs3_small):
        assert np.array_equal(dataset.consensus, rs3_small.reference)
