"""Tests for the sage command-line interface."""

import pytest

from repro.api import EngineOptions, SAGeDataset
from repro.cli import main
from repro.core.container import VERSION
from repro.genomics import fastq
from repro.genomics import sequence as seq
from repro.genomics.reads import ReadSet

from tests.conftest import golden_blob, markov_scores, read_multiset


@pytest.fixture()
def workdir(tmp_path, rs3_small):
    fq = tmp_path / "reads.fastq"
    ref = tmp_path / "ref.txt"
    fastq.write_file(rs3_small.read_set, fq)
    ref.write_text(seq.decode(rs3_small.reference), encoding="ascii")
    return tmp_path


class TestCompressDecompress:
    def test_roundtrip(self, workdir, rs3_small, capsys):
        archive = workdir / "reads.sage"
        out = workdir / "out.fastq"
        assert main(["compress", str(workdir / "reads.fastq"),
                     str(workdir / "ref.txt"), str(archive)]) == 0
        assert archive.exists()
        assert main(["decompress", str(archive), str(out)]) == 0
        decoded = fastq.read_file(out)
        assert read_multiset(decoded) == read_multiset(rs3_small.read_set)
        captured = capsys.readouterr()
        assert "ratio" in captured.out

    def test_level_flag(self, workdir):
        archive = workdir / "o1.sage"
        assert main(["compress", str(workdir / "reads.fastq"),
                     str(workdir / "ref.txt"), str(archive),
                     "--level", "O1"]) == 0
        from repro.core.container import SAGeArchive
        back = SAGeArchive.from_bytes(archive.read_bytes())
        assert back.level.name == "O1"

    def test_no_quality_flag(self, workdir):
        archive = workdir / "nq.sage"
        assert main(["compress", str(workdir / "reads.fastq"),
                     str(workdir / "ref.txt"), str(archive),
                     "--no-quality"]) == 0
        from repro.core.container import SAGeArchive
        back = SAGeArchive.from_bytes(archive.read_bytes())
        assert back.block(0).quality is None


class TestMalformedFastq:
    """A bad input file is failed input (exit 1, one typed line naming
    the record), never a traceback, and leaves no output behind."""

    def _break(self, workdir, damage) -> str:
        lines = (workdir / "reads.fastq").read_bytes().split(b"\n")
        bad = workdir / "bad.fastq"
        bad.write_bytes(b"\n".join(damage(lines)))
        return str(bad)

    @pytest.mark.parametrize("damage, what", [
        (lambda lines: lines[:5] + [b"ACXT" + lines[5][4:]] + lines[6:],
         "invalid DNA character 'X'"),
        (lambda lines: lines[:6], "truncated record"),
        (lambda lines: lines[:4] + [lines[4] + b"\xff"] + lines[5:],
         "non-ASCII byte"),
    ], ids=["bad-base", "truncated", "non-ascii-header"])
    @pytest.mark.parametrize("blocked", [[], ["--block-reads", "1"]],
                             ids=["one-block", "streamed"])
    def test_compress_names_the_record(self, workdir, capsys, damage, what,
                                       blocked):
        out = workdir / "bad.sage"
        assert main(["compress", self._break(workdir, damage),
                     str(workdir / "ref.txt"), str(out)] + blocked) == 1
        err = capsys.readouterr().err
        assert err.startswith("sage: FastqError: record 2 (")
        assert what in err and "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert not out.exists()


class TestInspect:
    def test_reports_fields(self, workdir, capsys):
        archive = workdir / "reads.sage"
        main(["compress", str(workdir / "reads.fastq"),
              str(workdir / "ref.txt"), str(archive)])
        capsys.readouterr()
        assert main(["inspect", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "level: O4" in out
        assert "stream" in out
        assert "mapped" in out


class TestBlockedCompress:
    def test_blocked_roundtrip(self, workdir, rs3_small, capsys):
        archive = workdir / "blocked.sage"
        out = workdir / "blocked.fastq"
        assert main(["compress", str(workdir / "reads.fastq"),
                     str(workdir / "ref.txt"), str(archive),
                     "--block-reads", "16"]) == 0
        assert "blocks" in capsys.readouterr().out
        assert main(["decompress", str(archive), str(out)]) == 0
        decoded = fastq.read_file(out)
        assert read_multiset(decoded) == read_multiset(rs3_small.read_set)

    def test_workers_byte_identical(self, workdir):
        one = workdir / "w1.sage"
        four = workdir / "w4.sage"
        base = ["compress", str(workdir / "reads.fastq"),
                str(workdir / "ref.txt")]
        assert main(base + [str(one), "--block-reads", "16",
                            "--workers", "1"]) == 0
        assert main(base + [str(four), "--block-reads", "16",
                            "--workers", "4"]) == 0
        assert one.read_bytes() == four.read_bytes()
        # ...and without --block-reads: still the one-block archive.
        assert main(base + [str(one)]) == 0
        assert main(base + [str(four), "--workers", "4"]) == 0
        assert one.read_bytes() == four.read_bytes()
        with SAGeDataset.open(four) as dataset:
            assert dataset.n_blocks == 1


class TestDecompressWorkers:
    @pytest.fixture()
    def blocked(self, workdir):
        archive = workdir / "blocked.sage"
        main(["compress", str(workdir / "reads.fastq"),
              str(workdir / "ref.txt"), str(archive),
              "--block-reads", "16"])
        return archive

    def test_workers_byte_identical_fastq(self, blocked, workdir):
        outs = {}
        for n in (1, 4):
            out = workdir / f"dec{n}.fastq"
            assert main(["decompress", str(blocked), str(out),
                         "--workers", str(n)]) == 0
            outs[n] = out.read_bytes()
        assert outs[1] == outs[4]

    def test_workers_match_plain_decompress(self, blocked, workdir,
                                            rs3_small):
        out = workdir / "par.fastq"
        assert main(["decompress", str(blocked), str(out),
                     "--workers", "2"]) == 0
        decoded = fastq.read_file(out)
        assert read_multiset(decoded) == read_multiset(rs3_small.read_set)

    def test_invalid_workers(self, blocked, workdir):
        with pytest.raises(SystemExit) as excinfo:
            main(["decompress", str(blocked),
                  str(workdir / "x.fastq"), "--workers", "0"])
        assert excinfo.value.code == 2  # usage error


class TestAnalyze:
    @pytest.fixture()
    def blocked(self, workdir):
        archive = workdir / "blocked.sage"
        main(["compress", str(workdir / "reads.fastq"),
              str(workdir / "ref.txt"), str(archive),
              "--block-reads", "16"])
        return archive

    def test_property_analysis_json(self, blocked, rs3_small, capsys):
        import json
        capsys.readouterr()
        assert main(["analyze", str(blocked), "--workers", "2",
                     "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"input", "sinks", "stream"}
        [info] = out["sinks"].values()          # default: property
        assert info["n_reads"] == len(rs3_small.read_set)
        assert info["n_mapped"] + info["n_unmapped"] == info["n_reads"]
        assert 0.0 < info["mapping_rate"] <= 1.0
        assert sum(info["mismatch_count_hist"]) == info["n_mapped"]
        assert out["stream"]["blocks"] > 1
        assert out["stream"]["peak_inflight_blocks"] >= 1

    def test_mapping_rate_only(self, blocked, rs3_small, capsys):
        import json
        capsys.readouterr()
        assert main(["analyze", str(blocked), "--sink", "mapping-rate",
                     "--json"]) == 0
        [info] = json.loads(capsys.readouterr().out)["sinks"].values()
        assert info["n_reads"] == len(rs3_small.read_set)
        assert "mismatch_count_hist" not in info

    def test_text_output(self, blocked, capsys):
        capsys.readouterr()
        assert main(["analyze", str(blocked)]) == 0
        out = capsys.readouterr().out
        assert "[property]" in out and "mapping rate" in out
        assert "peak in-flight blocks" in out


class TestCat:
    @pytest.fixture()
    def blocked(self, workdir):
        archive = workdir / "blocked.sage"
        main(["compress", str(workdir / "reads.fastq"),
              str(workdir / "ref.txt"), str(archive),
              "--block-reads", "16"])
        return archive

    def test_cat_single_block(self, blocked, capsys):
        from repro.core import SAGeArchive
        archive = SAGeArchive.from_bytes(blocked.read_bytes())
        index = archive.block_index()
        capsys.readouterr()
        assert main(["cat", str(blocked), "--block", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("@") == index[1].n_reads
        parsed = fastq.parse(out)
        assert len(parsed) == index[1].n_reads

    def test_cat_all_blocks_matches_decompress(self, blocked, workdir,
                                               rs3_small, capsys):
        capsys.readouterr()
        assert main(["cat", str(blocked)]) == 0
        out = capsys.readouterr().out
        parsed = fastq.parse(out)
        assert read_multiset(parsed) == read_multiset(rs3_small.read_set)

    def test_cat_numbers_fallback_names_globally(self, workdir, rs3_small,
                                                 capsys):
        """Reads stored with empty headers are named ``read{i}`` by the
        renderer; ``i`` is the archive-wide position, not the position
        inside the block."""
        from repro.core import SAGeCompressor, SAGeConfig
        from repro.genomics.reads import Read, ReadSet
        reads = ReadSet([Read(codes=r.codes, quality=r.quality, header="")
                         for r in list(rs3_small.read_set)[:120]])
        archive = workdir / "anon.sage"
        archive.write_bytes(
            SAGeCompressor(rs3_small.reference,
                           SAGeConfig(with_headers=True),
                           options=EngineOptions(block_reads=40))
            .compress(reads).to_bytes())
        plain = workdir / "anon.fastq"
        assert main(["decompress", str(archive), str(plain)]) == 0
        want = plain.read_text(encoding="ascii")
        capsys.readouterr()
        assert main(["cat", str(archive)]) == 0
        assert capsys.readouterr().out == want
        assert main(["cat", str(archive), "--block", "1"]) == 0
        lines = want.splitlines(keepends=True)     # 4 per record
        assert capsys.readouterr().out == "".join(lines[4 * 40:4 * 80])

    def test_cat_block_out_of_range(self, blocked, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cat", str(blocked), "--block", "999"])
        assert excinfo.value.code == 2  # usage error

    def test_cat_to_file(self, blocked, workdir):
        out = workdir / "cat.fastq"
        assert main(["cat", str(blocked), "--block", "0",
                     "-o", str(out)]) == 0
        assert len(fastq.read_file(out)) > 0


class TestInspectJson:
    def test_json_metadata(self, workdir, capsys):
        import json
        archive = workdir / "reads.sage"
        main(["compress", str(workdir / "reads.fastq"),
              str(workdir / "ref.txt"), str(archive),
              "--block-reads", "16"])
        capsys.readouterr()
        assert main(["inspect", str(archive), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["format_version"] == VERSION
        # Each fact once: no duplicate version key, no options echo.
        assert "version" not in info and "options" not in info
        assert info["block_reads"] == 16
        assert info["quality"] is True
        assert info["integrity"] == "ok"
        assert info["level"] == "O4"
        assert info["n_blocks"] > 1
        assert len(info["blocks"]) == info["n_blocks"]
        assert sum(b["n_mapped"] + b["n_unmapped"]
                   for b in info["blocks"]) == info["n_reads"]
        assert info["stream_bits"]["consensus"] > 0
        assert all(b["bytes"] > 0 and b["offset"] > 0
                   for b in info["blocks"])

    def test_json_per_block_sections(self, workdir, capsys):
        """Each block reports read counts + compressed section sizes."""
        import json
        archive = workdir / "reads.sage"
        main(["compress", str(workdir / "reads.fastq"),
              str(workdir / "ref.txt"), str(archive),
              "--block-reads", "16"])
        capsys.readouterr()
        assert main(["inspect", str(archive), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        for block in info["blocks"]:
            assert block["n_reads"] \
                == block["n_mapped"] + block["n_unmapped"]
            sections = block["sections"]
            assert sections["stream_bytes"] > 0
            assert sections["meta_bytes"] > 0
            assert sections["quality_bytes"] > 0      # default keeps Q
            assert sections["quality_model"] in ("order0", "order1")
            # Section sizes never exceed the indexed payload size.
            assert sum(value for value in sections.values()
                       if isinstance(value, int)) <= block["bytes"]
            assert block["stream_bits"]["mbta"] >= 0
            assert "consensus" not in block["stream_bits"]

    def test_json_reports_each_blocks_quality_model(self, workdir,
                                                    rs3_small, capsys):
        """The model a block's scores were written in: the simulator's
        i.i.d. scores pick order-0, Markov-correlated ones order-1, and
        a block without scores has none."""
        import json
        reads = rs3_small.read_set
        fastq.write_file(ReadSet.from_columns(
            reads.codes, reads.offsets, markov_scores(len(reads)),
            reads.headers), workdir / "correlated.fastq")
        runs = [("reads.fastq", [], "order0"),
                ("correlated.fastq", [], "order1"),
                ("reads.fastq", ["--no-quality"], None)]
        for name, flags, model in runs:
            archive = workdir / "model.sage"
            main(["compress", str(workdir / name), str(workdir / "ref.txt"),
                  str(archive), "--block-reads", "48", *flags])
            capsys.readouterr()
            assert main(["inspect", str(archive), "--json"]) == 0
            info = json.loads(capsys.readouterr().out)
            assert [block["sections"]["quality_model"]
                    for block in info["blocks"]] == [model] * 3

    def test_json_reports_decoded_size_estimates(self, workdir, capsys):
        """Every block advertises its decoded-bytes estimate — the
        figure a server uses to budget its block cache."""
        import json
        archive = workdir / "reads.sage"
        main(["compress", str(workdir / "reads.fastq"),
              str(workdir / "ref.txt"), str(archive),
              "--block-reads", "16"])
        capsys.readouterr()
        assert main(["inspect", str(archive), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        for block in info["blocks"]:
            estimate = block["decoded_nbytes_estimate"]
            # Decoded reads (1 byte/base + quality + headers) are
            # strictly larger than their compressed payload.
            assert estimate > block["bytes"]
            assert estimate >= block["n_reads"]


class TestSimulate:
    def test_writes_fastq_and_reference(self, tmp_path, capsys):
        out = tmp_path / "sim.fastq"
        assert main(["simulate", "RS3", str(out),
                     "--genome", "4000"]) == 0
        rs = fastq.read_file(out)
        assert len(rs) > 10
        ref_text = (tmp_path / "sim.ref.txt").read_text()
        assert set(ref_text) <= set("ACGT")

    def test_compose_simulate_compress(self, tmp_path, capsys):
        out = tmp_path / "sim.fastq"
        main(["simulate", "RS3", str(out), "--genome", "4000"])
        archive = tmp_path / "sim.sage"
        assert main(["compress", str(out),
                     str(tmp_path / "sim.ref.txt"), str(archive)]) == 0


class TestAnalyzeSinks:
    @pytest.fixture()
    def blocked(self, workdir):
        archive = workdir / "blocked.sage"
        main(["compress", str(workdir / "reads.fastq"),
              str(workdir / "ref.txt"), str(archive),
              "--block-reads", "16"])
        return archive

    def test_named_sinks_json(self, blocked, rs3_small, capsys):
        import json
        capsys.readouterr()
        assert main(["analyze", str(blocked), "--sink", "property",
                     "--sink", "mapping-rate", "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        sinks = info["sinks"]
        assert set(sinks) == {"property", "mapping-rate"}
        assert sinks["property"]["n_reads"] == len(rs3_small.read_set)
        assert sinks["mapping-rate"]["n_reads"] \
            == len(rs3_small.read_set)
        assert info["stream"]["blocks"] > 1

    def test_named_sinks_text(self, blocked, capsys):
        capsys.readouterr()
        assert main(["analyze", str(blocked),
                     "--sink", "mapping-rate"]) == 0
        out = capsys.readouterr().out
        assert "[mapping-rate]" in out
        assert "peak in-flight blocks" in out

    def test_unknown_sink_exits(self, blocked):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(blocked), "--sink", "nope"])
        assert excinfo.value.code == 2  # usage error


class TestBenchEncode:
    def test_compress_mapper_flag(self, workdir, capsys):
        # No flag picks a kernel: the CLI runs the defaults, and both
        # mappers' byte identity is an API test on
        # ``SAGeConfig(mapper_kernel=)`` (tests/test_api_dataset.py).
        for flag in ("--mapper", "--codec"):
            with pytest.raises(SystemExit) as excinfo:
                main(["compress", str(workdir / "reads.fastq"),
                      str(workdir / "ref.txt"), str(workdir / "x.sage"),
                      flag, "python"])
            assert excinfo.value.code == 2  # usage error


class TestVerifySalvage:
    @pytest.fixture()
    def blocked(self, workdir):
        archive = workdir / "blocked.sage"
        main(["compress", str(workdir / "reads.fastq"),
              str(workdir / "ref.txt"), str(archive),
              "--block-reads", "24"])
        return archive

    @pytest.fixture()
    def damaged(self, workdir, blocked):
        from repro.core.container import SAGeArchive
        blob = blocked.read_bytes()
        entry = SAGeArchive.from_bytes(blob).block_index()[1]
        corrupted = bytearray(blob)
        corrupted[entry.offset + entry.nbytes // 2] ^= 0xFF
        path = workdir / "damaged.sage"
        path.write_bytes(bytes(corrupted))
        return path

    def test_verify_ok(self, blocked, capsys):
        assert main(["verify", str(blocked)]) == 0
        assert "integrity ok" in capsys.readouterr().out

    def test_verify_json_ok(self, blocked, capsys):
        import json
        assert main(["verify", str(blocked), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["status"] == "ok"
        assert info["format_version"] == VERSION
        assert set(info["blocks"]) == {"ok"}

    def test_verify_damaged_exits_nonzero(self, damaged, capsys):
        assert main(["verify", str(damaged)]) == 1
        out = capsys.readouterr().out
        assert "integrity failed" in out
        assert "block 1: failed" in out

    def test_verify_deep_json(self, damaged, capsys):
        import json
        assert main(["verify", str(damaged), "--deep", "--json"]) == 1
        info = json.loads(capsys.readouterr().out)
        assert info["deep"] is True
        assert info["blocks"][1] == "failed"
        assert "1" in info["errors"]

    def test_verify_deep_workers_report_identical(self, damaged, capsys):
        """``--workers`` parallelizes the deep pass, nothing else."""
        assert main(["verify", str(damaged), "--deep", "--json"]) == 1
        serial = capsys.readouterr().out
        assert main(["verify", str(damaged), "--deep", "--json",
                     "--workers", "2"]) == 1
        assert capsys.readouterr().out == serial

    def test_verify_deep_workers_reach_the_executor(self, blocked):
        options = EngineOptions(workers=2, backend="process")
        with SAGeDataset.open(blocked, options=options) as dataset:
            assert dataset.verify(deep=True).status == "ok"
            stats = dataset.stats
        # The deep pass ran on the pool: tasks, each naming the file and
        # a block, were shipped to workers.
        assert stats.blocks > 1 and not stats.gaps
        assert 0 < stats.bytes_shipped \
            < (len(str(blocked)) + 64) * stats.blocks

    def test_salvage_recovers_survivors(self, damaged, workdir, capsys,
                                        rs3_small):
        out = workdir / "salvaged.fastq"
        assert main(["salvage", str(damaged), str(out)]) == 1
        text = capsys.readouterr().out
        assert "lost block 1" in text
        recovered = fastq.read_file(out)
        # Exactly the 24 reads of the damaged block are missing.
        assert len(recovered) == len(rs3_small.read_set) - 24
        assert set(read_multiset(recovered)) \
            <= set(read_multiset(rs3_small.read_set))

    def test_salvage_intact_exits_zero(self, blocked, workdir, capsys):
        out = workdir / "all.fastq"
        assert main(["salvage", str(blocked), str(out), "--json"]) == 0
        import json
        info = json.loads(capsys.readouterr().out)
        assert info["blocks_lost"] == 0
        assert info["recovery_rate"] == 1.0

    def test_cat_corrupt_block_names_index(self, damaged, capsys):
        assert main(["cat", str(damaged), "--block", "1"]) == 1
        err = capsys.readouterr().err
        assert "block 1" in err

    def test_inspect_damaged_reports_integrity(self, damaged, capsys):
        import json
        assert main(["inspect", str(damaged), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["integrity"] == "failed"


class TestCompressFormatVersion:
    def test_verify_v3_unchecked(self, workdir, capsys):
        archive = workdir / "v3.sage"
        archive.write_bytes(golden_blob("v3_one_block_order_headers"))
        assert main(["verify", str(archive)]) == 0
        assert "unchecked" in capsys.readouterr().out


class TestServe:
    def test_smoke_starts_and_exits_clean(self, workdir, capsys):
        archive = workdir / "reads.sage"
        main(["compress", str(workdir / "reads.fastq"),
              str(workdir / "ref.txt"), str(archive),
              "--block-reads", "24"])
        capsys.readouterr()
        assert main(["serve", str(archive), "--port", "0",
                     "--smoke"]) == 0
        captured = capsys.readouterr()
        assert "serving reads on http://127.0.0.1:" in captured.out
        assert "requests: 0" in captured.err

    def test_duplicate_names_usage_error(self, workdir, capsys):
        archive = workdir / "reads.sage"
        main(["compress", str(workdir / "reads.fastq"),
              str(workdir / "ref.txt"), str(archive)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(archive), str(archive),
                  "--port", "0", "--smoke"])
        assert excinfo.value.code == 2  # usage error
        assert "duplicate" in capsys.readouterr().err

    def test_negative_cache_is_usage_error(self, workdir, capsys):
        archive = workdir / "reads.sage"
        main(["compress", str(workdir / "reads.fastq"),
              str(workdir / "ref.txt"), str(archive)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(archive), "--cache-mb", "-1",
                  "--port", "0", "--smoke"])
        assert excinfo.value.code == 2  # usage error
        assert "cache capacity must be >= 0" in capsys.readouterr().err

    def test_missing_archive_is_usage_error(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nope.sage"),
                     "--port", "0", "--smoke"]) == 2
        assert "no such file" in capsys.readouterr().err


class TestNoLintCommand:
    def test_lint_is_not_a_command_or_a_module(self, capsys):
        # The contracts are tier-1 tests (tests/test_lint.py); the
        # package ships no checker to run them from.
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "src"])
        assert excinfo.value.code == 2  # argparse: unknown command
        assert "invalid choice: 'lint'" in capsys.readouterr().err
        with pytest.raises(ModuleNotFoundError):
            import repro.lint  # noqa: F401
