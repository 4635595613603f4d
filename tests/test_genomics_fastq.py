"""Unit tests for repro.genomics.fastq."""

import pytest

from repro.genomics import fastq
from repro.genomics.reads import Read, ReadSet

SAMPLE = "@r1\nACGT\n+\nIIII\n@r2\nTTGCA\n+\n!!!!!\n"


class TestParse:
    def test_two_records(self):
        # Same records with LF and with CRLF line endings (a loop, not
        # a parametrization, so the test id stays stable).
        for text in (SAMPLE, SAMPLE.replace("\n", "\r\n")):
            rs = fastq.parse(text)
            assert len(rs) == 2
            assert rs[0].text == "ACGT"
            assert rs[0].header == "r1"
            assert rs[1].quality_text == "!!!!!"

    def test_blank_lines_skipped(self):
        rs = fastq.parse("\n" + SAMPLE)
        assert len(rs) == 2

    def test_missing_at_sign(self):
        with pytest.raises(fastq.FastqError):
            fastq.parse("r1\nACGT\n+\nIIII\n")

    def test_missing_plus(self):
        with pytest.raises(fastq.FastqError):
            fastq.parse("@r1\nACGT\nIIII\nIIII\n")

    def test_quality_length_mismatch(self):
        with pytest.raises(fastq.FastqError):
            fastq.parse("@r1\nACGT\n+\nII\n")

    def test_empty_input(self):
        assert len(fastq.parse("")) == 0


class TestWrite:
    def test_roundtrip(self):
        rs = fastq.parse(SAMPLE)
        assert fastq.write(rs) == SAMPLE

    def test_placeholder_quality(self):
        rs = ReadSet([Read.from_text("ACG", header="q")])
        text = fastq.write(rs)
        assert text == "@q\nACG\n+\nIII\n"

    def test_header_generated_when_missing(self):
        rs = ReadSet([Read.from_text("A", "J")])
        assert fastq.write(rs).startswith("@read0\n")


class TestFileIO:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "x.fastq"
        rs = fastq.parse(SAMPLE)
        fastq.write_file(rs, path)
        back = fastq.read_file(path)
        assert fastq.write(back) == SAMPLE
        assert back.name == "x"

    def test_dataset_roundtrip(self, tmp_path, rs2_small):
        path = tmp_path / "rs2.fastq"
        fastq.write_file(rs2_small.read_set, path)
        back = fastq.read_file(path)
        assert len(back) == len(rs2_small.read_set)
        for a, b in zip(back, rs2_small.read_set):
            assert a.text == b.text
            assert a.quality_text == b.quality_text
