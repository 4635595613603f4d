"""Unit tests for repro.genomics.reads."""

import pickle

import numpy as np
import pytest

from repro.genomics import fastq
from repro.genomics import sequence as seq
from repro.genomics.reads import (PHRED_OFFSET, PLACEHOLDER_SCORE, Read,
                                  ReadSet)
from tests.conftest import read_from_text


def _read(bases="ACGT", qual=None, header="r"):
    return read_from_text(bases, qual, header=header)


class TestRead:
    def test_from_text_roundtrip(self):
        read = _read("ACGTN", "IIII!")
        assert read.text == "ACGTN"
        assert read.quality_text == "IIII!"
        assert len(read) == 5

    def test_quality_length_mismatch(self):
        with pytest.raises(ValueError):
            Read(seq.encode("ACGT"), np.array([30], dtype=np.uint8))

    def test_quality_below_offset_rejected(self):
        with pytest.raises(ValueError):
            fastq.parse("@r\nAC\n+\nI\x20\n")

    def test_no_quality_access(self):
        with pytest.raises(ValueError):
            _ = _read("ACG").quality_text

    def test_equality_includes_quality(self):
        assert _read("ACGT", "IIII") == _read("ACGT", "IIII")
        assert _read("ACGT", "IIII") != _read("ACGT", "JJJJ")
        assert _read("ACGT", "IIII") != _read("ACGT")
        assert _read("ACGT") == _read("ACGT")

    def test_reverse_complement_flips_quality(self):
        read = _read("AACG", "IJKL")
        rc = read.reverse_complement()
        assert rc.text == "CGTT"
        assert rc.quality_text == "LKJI"

    def test_phred_offset(self):
        read = _read("A", "!")
        assert read.quality[0] == 0
        assert PHRED_OFFSET == 33


def _scored(bases, header="r", seed=0):
    rng = np.random.default_rng(seed)
    return Read(seq.encode(bases),
                rng.integers(0, 41, len(bases)).astype(np.uint8), header)


class TestReadSet:
    def test_iteration_and_indexing(self):
        rs = ReadSet([_read("AC"), _read("GT")])
        assert len(rs) == 2
        assert [r.text for r in rs] == ["AC", "GT"]
        assert rs[1].text == "GT"

    def test_has_quality(self):
        """One rule: the column exists when any read carries a score."""
        assert ReadSet([_read("AC", "II")]).has_quality
        assert not ReadSet([_read("AC")]).has_quality
        assert ReadSet([_read("AC", "II"), _read("GT")]).has_quality
        assert not ReadSet([_read("", "")]).has_quality
        assert not ReadSet().has_quality

    def test_list_roundtrip(self):
        """``ReadSet(list).reads`` is the list back, under the rule for
        scores: in a set that has them a read without takes the
        placeholder and a zero-length read an empty slice."""
        scored = [_scored("ACGT", "a"), _scored("", "b"), _scored("N", "")]
        assert ReadSet(scored).reads == scored
        assert [r.header for r in ReadSet(scored)] == ["a", "b", ""]
        bare = [_read("ACGT"), _read(""), _read("NN")]
        assert ReadSet(bare).reads == bare
        assert ReadSet(bare).quality is None
        mixed = ReadSet([scored[0], _read("GT"), _read(""), scored[2]])
        assert mixed.reads == [
            scored[0], Read(seq.encode("GT"), [PLACEHOLDER_SCORE] * 2),
            Read(seq.encode(""), []), scored[2]]
        # Zero-length reads alone carry no score: no column, either way.
        assert ReadSet([_read("", "")]).reads == [_read("")]

    def test_total_bases_and_lengths(self):
        rs = ReadSet([_read("ACGT"), _read("AC")])
        assert rs.total_bases == 6
        assert rs.read_lengths().tolist() == [4, 2]

    def test_fixed_length_detection(self):
        assert ReadSet([_read("ACGT"), _read("TTTT")]).is_fixed_length
        assert not ReadSet([_read("ACGT"), _read("AC")]).is_fixed_length
        assert ReadSet().is_fixed_length

    def test_fastq_size_estimate(self):
        rs = ReadSet([read_from_text("ACGT", "IIII", header="x")])
        # "@x\nACGT\n+\nIIII\n" = 15 bytes
        assert rs.uncompressed_fastq_bytes() == 15

    def test_subset(self):
        rs = ReadSet([_read("A"), _read("C"), _read("G")], name="x")
        sub = rs.subset([2, 0])
        assert [r.text for r in sub] == ["G", "A"]
        assert sub.name == "x"


class TestReadBatch:
    """The column operations: pack, views, slice, gather, concat."""

    def test_pack_and_views_roundtrip(self):
        reads = [_scored("ACGT", "a"), _scored("", "b"), _scored("NNG", "")]
        rs = ReadSet(reads, name="x")
        assert len(rs) == 3
        assert rs.offsets.tolist() == [0, 4, 4, 7]
        assert rs.read_lengths().tolist() == [4, 0, 3]
        assert rs.headers == ["a", "b", ""]
        views = rs.reads
        assert views == reads
        assert [r.header for r in views] == ["a", "b", ""]
        # Views, not copies: they share the columns' memory.
        assert np.shares_memory(views[0].codes, rs.codes)
        assert np.shares_memory(views[2].quality, rs.quality)
        # The decoders' constructor wraps the same columns uncopied.
        twin = ReadSet.from_columns(rs.codes, rs.offsets, rs.quality,
                                    rs.headers, name="x")
        assert twin == rs and twin.codes is rs.codes

    def test_slice_is_a_view_and_take_gathers(self):
        reads = [_scored("ACGT", "a"), _scored("GG", "b"),
                 _scored("TTTAA", "c"), _scored("C", "d")]
        rs = ReadSet(reads)
        middle = rs.subset(range(1, 3))
        assert middle.reads == reads[1:3]
        assert middle.offsets.tolist() == [0, 2, 7]
        assert np.shares_memory(middle.codes, rs.codes)
        assert np.shares_memory(middle.quality, rs.quality)
        assert len(rs.subset(range(2, 2))) == 0
        for indices in ([3, 0, 0, 2], np.array([3, 0, 0, -2])):
            picked = rs.subset(indices)
            assert picked.reads == [reads[3], reads[0], reads[0], reads[2]]
            assert picked.headers == ["d", "a", "a", "c"]
            assert not np.shares_memory(picked.codes, rs.codes)
        assert len(rs.subset([])) == 0

    def test_fixed_length_gather_takes_rows(self):
        """A fixed-length set gathers whole rows; the result equals the
        run gather of a variable-length set holding the same reads."""
        reads = [_scored("ACGT", "a"), _scored("GGCA", "b"),
                 _scored("TTNA", "c"), _scored("CCCC", "d")]
        rs, ragged = ReadSet(reads), ReadSet(reads + [_scored("A", "e")])
        for indices in ([3, 0, 0, 2], np.array([-1, 1]), []):
            picked = rs.subset(indices)
            want = ragged.subset(np.arange(4)[indices])
            assert picked == want and picked.reads == want.reads
            assert picked.offsets.tolist() == want.offsets.tolist()
            assert not np.shares_memory(picked.codes, rs.codes)
        assert ReadSet([_scored("", "x"), _scored("", "y")]).subset(
            [1, 0]).headers == ["y", "x"]

    def test_concat(self):
        a = ReadSet([_scored("ACGT", "a"), _scored("G", "b")])
        b = ReadSet([_scored("TT", "c")])
        joined = ReadSet.concat([a, ReadSet(), b], name="j")
        assert joined.reads == a.reads + b.reads
        assert joined.headers == ["a", "b", "c"] and joined.name == "j"
        assert not np.shares_memory(joined.codes, a.codes)
        empty = ReadSet.concat([])
        assert len(empty) == 0 and empty.quality is None

    def test_part_without_scores_takes_the_placeholder(self):
        joined = ReadSet.concat([ReadSet([_scored("AC")]),
                                 ReadSet([_read("GT")])])
        assert joined.quality[2:].tolist() == [PLACEHOLDER_SCORE] * 2
        assert ReadSet([_read("GT")]).quality is None


class TestBatchBackedReadSet:
    """A set answers from its columns, builds its ``Read`` views only
    when asked, and otherwise behaves exactly like the list it packed."""

    READS = [_scored("ACGT", "a", 1), _scored("TTGCA", "b", 2),
             _scored("G", "", 3)]

    def test_columnar_answers_do_not_materialize(self):
        rs = ReadSet(self.READS, name="x")
        assert len(rs) == 3
        assert rs.total_bases == 10
        assert rs.read_lengths().tolist() == [4, 5, 1]
        assert rs.has_quality
        assert not rs.is_fixed_length
        sub = rs.subset(range(1, 3))
        per_read = rs.read_codes()       # what a mapper's map_batch takes
        assert [c.tolist() for c in per_read] \
            == [r.codes.tolist() for r in self.READS]
        assert all(np.shares_memory(c, rs.codes) for c in per_read)
        assert ReadSet().read_codes() == []
        assert rs._views is None and sub._views is None
        assert sub.reads == self.READS[1:3]
        assert sub.name == "x"

    def test_quality_less_and_empty(self):
        rs = ReadSet([_read("AC"), _read("GT")])
        assert not rs.has_quality
        assert rs.is_fixed_length
        assert rs[0].quality is None
        empty = ReadSet()
        assert len(empty) == 0 and not empty.has_quality
        assert empty.is_fixed_length and list(empty) == []

    def test_public_surface_matches_the_list(self):
        rs = ReadSet(self.READS, name="x")
        assert rs == ReadSet(list(self.READS), name="x")
        assert rs.reads == self.READS
        assert [r.header for r in rs] == ["a", "b", ""]
        assert rs[1].text == "TTGCA" and rs[-1].text == "G"
        assert rs.reads is rs.reads                  # built once
        assert rs.subset([2, 0]).reads == [self.READS[2], self.READS[0]]
        assert rs.subset(range(2, 0, -1)).reads \
            == [self.READS[2], self.READS[1]]
        # '@' header (or a one-character fallback) and four newlines,
        # '+', bases and scores: the per-read count, kept as the oracle.
        assert rs.uncompressed_fastq_bytes() == sum(
            1 + (len(r.header) or 1) + 1 + len(r) + 1 + 2 + len(r) + 1
            for r in self.READS)
        with pytest.raises(IndexError):
            rs.subset(range(2, 5))
        assert rs != ReadSet(list(self.READS), name="other")

    def test_pickle_ships_the_columns(self):
        rs = ReadSet(self.READS, name="x")
        _ = rs.reads                        # materialized views stay home
        again = pickle.loads(pickle.dumps(rs))
        assert again._views is None
        assert again == rs and again.name == "x"
        assert [r.header for r in again] == ["a", "b", ""]
        # A slice ships its own reads, not the set it views.
        assert len(pickle.dumps(rs.subset(range(2, 3)))) \
            < len(pickle.dumps(rs))

    def test_encode_chunk_pickles_as_three_arrays(self):
        """What a ``workers>1`` encode ships per block: 1024 x 100 bp
        with scores and headers is its columns plus small change."""
        rng = np.random.default_rng(7)
        chunk = ReadSet([
            Read(rng.integers(0, 4, 100).astype(np.uint8),
                 rng.integers(0, 41, 100).astype(np.uint8), f"run1.{i}")
            for i in range(1024)], name="chunk")
        blob = pickle.dumps(chunk)
        assert len(blob) <= 230_000
        assert pickle.loads(blob) == chunk
