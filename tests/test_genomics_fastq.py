"""Unit tests for repro.genomics.fastq."""

import io
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.genomics import fastq
from repro.genomics.reads import Read, ReadSet
from repro.genomics.sequence import SequenceError
from tests.conftest import format_read, read_from_text

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

    @pytest.mark.parametrize("text, where, what", [
        (SAMPLE + "@r3\nACXT\n+\nIIII\n", "record 3 ('r3')",
         "invalid DNA character 'X'"),
        (SAMPLE + "@r3\nACGT\n+\nII I\n", "record 3 ('r3')", "below '!'"),
        (SAMPLE + "@r3\nACGT\n+\nII\x80I\n", "record 3 ('r3')",
         "non-ASCII"),
        (SAMPLE + "@r3\nAC\xe9T\n+\nIIII\n", "record 3 ('r3')",
         "non-ASCII"),
        (SAMPLE + "@r\x803\nACGT\n+\nIIII\n", "record 3", "non-ASCII"),
        (SAMPLE + "r3\nACGT\n+\nIIII\n", "record 3", "expected '@'"),
        (SAMPLE + "@r3\nACGT\nIIII\nIIII\n", "record 3 ('r3')",
         "expected '+'"),
        (SAMPLE + "@r3\nACGT\n+\nII\n", "record 3 ('r3')",
         "quality length 2 != sequence length 4"),
        (SAMPLE + "@r3\nAC", "record 3 ('r3')", "truncated"),
    ], ids=["bad-base", "low-score", "non-ascii-score", "non-ascii-base",
            "non-ascii-header", "missing-at", "missing-plus",
            "length-mismatch", "truncated"])
    def test_every_text_failure_names_its_record(self, tmp_path, text,
                                                 where, what):
        """Malformed input is a ``FastqError`` naming the 1-based record
        and its header — from a string, a file and a block stream (the
        third record is the first of its block)."""
        path = tmp_path / "bad.fq"
        path.write_bytes(text.encode("latin-1"))
        for attempt in (lambda: fastq.parse(text),
                        lambda: fastq.read_file(path),
                        lambda: list(fastq.iter_read_sets(path, 2))):
            with pytest.raises(fastq.FastqError) as caught:
                attempt()
            assert where in str(caught.value)
            assert what in str(caught.value)

    def test_block_reads_must_be_positive(self, tmp_path):
        path = tmp_path / "x.fq"
        path.write_text(SAMPLE)
        with pytest.raises(ValueError, match="block_reads"):
            list(fastq.iter_read_sets(path, 0))


def _reference_parser(text):
    """The per-record parser the block parser replaced, kept as its
    oracle: a ``Read.from_text`` per record."""
    stream = io.StringIO(text, newline="")
    reads = []
    while True:
        header = stream.readline()
        if not header:
            return reads
        header = header.rstrip("\r\n")
        if not header:
            continue
        assert header.startswith("@")
        bases = stream.readline().rstrip("\r\n")
        plus = stream.readline().rstrip("\r\n")
        quality = stream.readline().rstrip("\r\n")
        assert plus.startswith("+") and len(quality) == len(bases)
        reads.append(read_from_text(bases, quality, header=header[1:]))


def _same_columns(got, want):
    assert got.headers == want.headers
    assert got.codes.dtype == want.codes.dtype
    assert np.array_equal(got.codes, want.codes)
    assert np.array_equal(got.offsets, want.offsets)
    assert (got.quality is None) == (want.quality is None)
    if got.quality is not None:
        assert got.quality.dtype == want.quality.dtype
        assert np.array_equal(got.quality, want.quality)


_printable = st.characters(min_codepoint=32, max_codepoint=126)
_eol = st.sampled_from(["\n", "\r\n"])


@st.composite
def _fastq_text(draw):
    """FASTQ text with everything the parser tolerates: CRLF, blank
    lines between records, the header repeated on ``+``, zero-length
    reads, lower-case bases, score lines starting with ``@``, and no
    trailing newline."""
    parts = []
    for _ in range(draw(st.integers(min_value=0, max_value=9))):
        header = draw(st.text(_printable, max_size=12))
        bases = draw(st.text(alphabet="ACGTNacgtn", max_size=24))
        scores = draw(st.text(
            st.characters(min_codepoint=33, max_codepoint=126),
            min_size=len(bases), max_size=len(bases)))
        if bases and draw(st.booleans()):
            scores = "@" + scores[1:]
        plus = "+" + (header if draw(st.booleans()) else "")
        parts += [draw(_eol)] * draw(st.integers(min_value=0, max_value=2))
        for line in ("@" + header, bases, plus, scores):
            parts += [line, draw(_eol)]
    if parts and draw(st.booleans()):
        parts.pop()                         # no trailing newline
    return "".join(parts)


class TestBlockParser:
    """One vectorized pass per block; its oracle is the per-record
    parser it replaced."""

    @given(_fastq_text(), st.integers(min_value=1, max_value=11))
    def test_matches_per_record_oracle(self, text, block_reads):
        reads = _reference_parser(text)
        _same_columns(fastq.parse(text), ReadSet(reads))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.fastq"
            path.write_bytes(text.encode("ascii"))
            whole = fastq.read_file(path)
            chunks = list(fastq.iter_read_sets(path, block_reads))
        _same_columns(whole, ReadSet(reads))
        assert whole.name == "x"
        assert [len(chunk) for chunk in chunks] == [
            min(block_reads, len(reads) - lo)
            for lo in range(0, len(reads), block_reads)]
        for lo, chunk in zip(range(0, len(reads), block_reads), chunks):
            _same_columns(chunk, ReadSet(reads[lo:lo + block_reads]))
            assert chunk.name == "x" and chunk._views is None


class TestWrite:
    def test_roundtrip(self):
        rs = fastq.parse(SAMPLE)
        assert fastq.write(rs) == SAMPLE

    def test_placeholder_quality(self):
        rs = ReadSet([read_from_text("ACG", header="q")])
        text = fastq.write(rs)
        assert text == "@q\nACG\n+\nIII\n"

    def test_header_generated_when_missing(self):
        rs = ReadSet([read_from_text("A", "J")])
        assert fastq.write(rs).startswith("@read0\n")


def _oracle(read_set, first_index=0):
    """The per-record renderer: what the block renderer must equal."""
    return "".join(format_read(read, first_index + i)
                   for i, read in enumerate(read_set))


#: One read: bases (zero-length and N included), whether it carries
#: scores, and a header (empty = the ``read{k}`` fallback).
_reads = st.lists(st.tuples(
    st.text(alphabet="ACGTN", max_size=40), st.booleans(),
    st.sampled_from(["", "r", "run1:7:1101", "x y"])), max_size=12)

#: Stored headers of different lengths, and the fallback (``""``).
_headers = st.sampled_from(["", "r", "run1:7:1101", "x y",
                            "SRR062634.7:1101:15/1"])


@st.composite
def _fixed_reads(draw):
    """A fixed-length set, which ``_reads`` almost never draws: every
    read ``L`` bases (``L = 0`` and one read included), numbered from a
    first index whose fallback names cross 9 -> 10 or 99 -> 100, with
    no scores, all scores or mixed scores.  Returns the set's spec and
    its first index."""
    size = draw(st.integers(min_value=0, max_value=30))
    n_reads = draw(st.integers(min_value=1, max_value=12))
    scores = draw(st.sampled_from(["none", "all", "mixed"]))
    spec = [(draw(st.text(alphabet="ACGTN", min_size=size, max_size=size)),
             scores == "all" or scores == "mixed" and draw(st.booleans()),
             draw(_headers))
            for _ in range(n_reads)]
    first_index = draw(st.sampled_from([0, 5, 8, 9, 95, 98, 99]))
    return spec, first_index


def _read_set(spec, score_seed=0):
    rng = np.random.default_rng(score_seed)
    return ReadSet([
        read_from_text(bases, header=header) if not scored else Read(
            read_from_text(bases).codes,
            rng.integers(0, 61, len(bases)).astype(np.uint8), header)
        for bases, scored, header in spec], name="h")


def _renders_like_oracle(read_set, first_index):
    rendered = fastq.render(read_set, first_index)
    assert isinstance(rendered, bytes)
    assert rendered == fastq.write(read_set, first_index).encode("ascii") \
        == _oracle(read_set, first_index).encode("ascii")


class TestBlockRenderer:
    """``fastq.render`` is the one block renderer, with ``fastq.write``
    its text; their oracle is ``format_read`` record by record."""

    @given(_reads, st.integers(min_value=0, max_value=10**6))
    def test_matches_per_record_oracle(self, spec, first_index):
        _renders_like_oracle(_read_set(spec), first_index)

    @given(_fixed_reads())
    def test_fixed_length_matches_per_record_oracle(self, drawn):
        """A set whose reads share one length renders through the
        record-tail array."""
        spec, first_index = drawn
        listed = _read_set(spec)
        assert listed.is_fixed_length
        _renders_like_oracle(listed, first_index)

    @given(_reads, st.booleans(), st.integers(min_value=0, max_value=99))
    def test_batch_backed_equals_list_backed(self, spec, scored, k):
        """A set over a decoder's columns renders like the one packed
        from a list, and neither builds a ``Read`` to do it."""
        listed = _read_set([(b, scored, h) for b, _, h in spec])
        backed = ReadSet.from_columns(listed.codes, listed.offsets,
                                      listed.quality, listed.headers, "h")
        assert fastq.write(backed, k) == fastq.write(listed, k)
        assert backed._views is None and listed._views is None
        assert fastq.write(backed, k) == _oracle(listed, k)
        again = pickle.loads(pickle.dumps(backed))
        assert again == backed
        assert fastq.write(again, k) == fastq.write(backed, k)

    def test_empty_set(self):
        assert fastq.write(ReadSet()) == ""
        assert fastq.render(ReadSet()) == b""

    def test_mixed_scores_take_the_placeholder_per_read(self):
        rs = ReadSet([read_from_text("AC", "!5", header="a"),
                      read_from_text("GT", header="b")])
        assert fastq.write(rs) == "@a\nAC\n+\n!5\n@b\nGT\n+\nII\n"

    def test_out_of_range_code_raises(self):
        # A fixed-length set, then a variable-length one.
        for lengths in ((3, 3), (3, 1)):
            bad = ReadSet([Read(np.array([0, 1, 7][:n], dtype=np.uint8))
                           for n in lengths])
            with pytest.raises(SequenceError, match="invalid DNA code 7"):
                fastq.render(bad)

    def test_non_ascii_score_raises(self):
        for lengths in ((2, 2), (2, 1)):
            rs = ReadSet([Read(np.zeros(n, dtype=np.uint8),
                               np.array([10, 120][:n], dtype=np.uint8))
                          for n in lengths])
            with pytest.raises(UnicodeError):
                fastq.render(rs)
            with pytest.raises(UnicodeError):
                fastq.write(rs)

    def test_non_ascii_header_raises(self):
        for lengths in ((2, 2), (2, 1)):
            rs = ReadSet([Read(np.zeros(n, dtype=np.uint8), header=header)
                          for n, header in zip(lengths, ("a", "r\xe9"))])
            with pytest.raises(UnicodeError):
                fastq.render(rs)

    def test_large_set_matches_per_record_oracle(self):
        """Past 2**18 bases, fixed-length and variable-length, with
        stored and fallback names and mixed scores."""
        for lengths in ([100] * 2700, [90, 110] * 1350):
            rs = _read_set([(("ACGTN" * 22)[:n], i % 2 == 0,
                             "" if i % 3 else f"h{i}")
                            for i, n in enumerate(lengths)], score_seed=3)
            assert rs.total_bases > 1 << 18
            _renders_like_oracle(rs, 5)


class TestFileIO:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "x.fastq"
        rs = fastq.parse(SAMPLE)
        fastq.write_file(rs, path)
        back = fastq.read_file(path)
        assert fastq.write(back) == SAMPLE
        assert back.name == "x"

    def test_file_written_in_pieces_is_the_whole_render(self, tmp_path,
                                                        monkeypatch):
        """A set of more than ``WRITE_READS`` reads is rendered a piece
        at a time; fallback names keep counting across pieces."""
        rs = _read_set([("ACGTN"[:i % 6], i % 2 == 0, "" if i % 3 else "h")
                        for i in range(11)], score_seed=1)
        monkeypatch.setattr(fastq, "WRITE_READS", 3)
        path = tmp_path / "x.fastq"
        fastq.write_file(rs, path)
        assert path.read_bytes() == fastq.render(rs) \
            == _oracle(rs).encode("ascii")

    def test_dataset_roundtrip(self, tmp_path, rs2_small):
        path = tmp_path / "rs2.fastq"
        fastq.write_file(rs2_small.read_set, path)
        back = fastq.read_file(path)
        assert len(back) == len(rs2_small.read_set)
        for a, b in zip(back, rs2_small.read_set):
            assert a.text == b.text
            assert a.quality_text == b.quality_text
