"""Unit tests for repro.genomics.reads."""

import pickle

import numpy as np
import pytest

from repro.genomics import sequence as seq
from repro.genomics.reads import (PHRED_OFFSET, PLACEHOLDER_SCORE, Read,
                                  ReadBatch, ReadSet)


def _read(bases="ACGT", qual=None, header="r"):
    return Read.from_text(bases, qual, header=header)


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
            Read.from_text("AC", quality="I\x20")

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


class TestReadSet:
    def test_iteration_and_indexing(self):
        rs = ReadSet([_read("AC"), _read("GT")])
        assert len(rs) == 2
        assert [r.text for r in rs] == ["AC", "GT"]
        assert rs[1].text == "GT"

    def test_append_extend(self):
        rs = ReadSet()
        rs.append(_read("A"))
        rs.extend([_read("C"), _read("G")])
        assert len(rs) == 3

    def test_has_quality(self):
        assert ReadSet([_read("AC", "II")]).has_quality
        assert not ReadSet([_read("AC")]).has_quality
        assert not ReadSet([_read("AC", "II"), _read("GT")]).has_quality
        assert not ReadSet().has_quality

    def test_total_bases_and_lengths(self):
        rs = ReadSet([_read("ACGT"), _read("AC")])
        assert rs.total_bases == 6
        assert rs.read_lengths().tolist() == [4, 2]

    def test_fixed_length_detection(self):
        assert ReadSet([_read("ACGT"), _read("TTTT")]).is_fixed_length
        assert not ReadSet([_read("ACGT"), _read("AC")]).is_fixed_length
        assert ReadSet().is_fixed_length

    def test_fastq_size_estimate(self):
        rs = ReadSet([Read.from_text("ACGT", "IIII", header="x")])
        # "@x\nACGT\n+\nIIII\n" = 15 bytes
        assert rs.uncompressed_fastq_bytes() == 15

    def test_subset(self):
        rs = ReadSet([_read("A"), _read("C"), _read("G")], name="x")
        sub = rs.subset([2, 0])
        assert [r.text for r in sub] == ["G", "A"]
        assert sub.name == "x"


def _scored(bases, header="r", seed=0):
    rng = np.random.default_rng(seed)
    return Read(seq.encode(bases),
                rng.integers(0, 41, len(bases)).astype(np.uint8), header)


def _columns(reads, name="x"):
    """A batch-backed set over the same reads (and the listed twin)."""
    listed = ReadSet(list(reads), name=name)
    return ReadSet(name=name, batch=listed.batch), listed


class TestReadBatch:
    def test_pack_and_views_roundtrip(self):
        reads = [_scored("ACGT", "a"), _scored("", "b"), _scored("NNG", "")]
        batch = ReadBatch.pack(reads)
        assert len(batch) == 3
        assert batch.offsets.tolist() == [0, 4, 4, 7]
        assert batch.lengths.tolist() == [4, 0, 3]
        assert batch.headers == ["a", "b", ""]
        views = batch.reads()
        assert views == reads
        assert [r.header for r in views] == ["a", "b", ""]
        # Views, not copies: they share the columns' memory.
        assert np.shares_memory(views[0].codes, batch.codes)
        assert np.shares_memory(views[2].quality, batch.quality)

    def test_nbytes_is_the_columns(self):
        batch = ReadBatch.pack([_scored("ACGT", "ab"), _scored("AC", "")])
        assert batch.nbytes == 6 + 6 + 3 * 8 + 2
        bare = ReadBatch.pack([_read("ACGT", header="ab")])
        assert bare.quality is None
        assert bare.nbytes == 4 + 2 * 8 + 2

    def test_slice_is_a_view_and_take_gathers(self):
        reads = [_scored("ACGT", "a"), _scored("GG", "b"),
                 _scored("TTTAA", "c"), _scored("C", "d")]
        batch = ReadBatch.pack(reads)
        middle = batch.slice(1, 3)
        assert middle.reads() == reads[1:3]
        assert middle.offsets.tolist() == [0, 2, 7]
        assert np.shares_memory(middle.codes, batch.codes)
        assert len(batch.slice(2, 2)) == 0
        picked = batch.take([3, 0, 0, 2])
        assert picked.reads() == [reads[3], reads[0], reads[0], reads[2]]
        assert picked.headers == ["d", "a", "a", "c"]
        assert len(batch.take([])) == 0

    def test_concat(self):
        a = ReadBatch.pack([_scored("ACGT", "a"), _scored("G", "b")])
        b = ReadBatch.pack([_scored("TT", "c")])
        joined = ReadBatch.concat([a, ReadBatch.pack([]), b])
        assert joined.reads() == a.reads() + b.reads()
        assert joined.headers == ["a", "b", "c"]
        empty = ReadBatch.concat([])
        assert len(empty) == 0 and empty.quality is None

    def test_part_without_scores_takes_the_placeholder(self):
        joined = ReadBatch.concat([ReadBatch.pack([_scored("AC")]),
                                   ReadBatch.pack([_read("GT")])])
        assert joined.quality[2:].tolist() == [PLACEHOLDER_SCORE] * 2
        assert ReadBatch.pack([_read("GT")]).quality is None


class TestBatchBackedReadSet:
    """A decoded block: answers from the columns, materializes lazily,
    and otherwise behaves exactly like the list-backed set."""

    READS = [_scored("ACGT", "a", 1), _scored("TTGCA", "b", 2),
             _scored("G", "", 3)]

    def test_columnar_answers_do_not_materialize(self):
        backed, listed = _columns(self.READS)
        assert len(backed) == len(listed) == 3
        assert backed.total_bases == listed.total_bases == 10
        assert backed.read_lengths().tolist() \
            == listed.read_lengths().tolist()
        assert backed.has_quality and listed.has_quality
        assert not backed.is_fixed_length
        assert backed.uncompressed_dna_bytes() == 10
        sub = backed.subset(range(1, 3))
        assert backed._reads is None and sub._reads is None
        assert sub == listed.subset(range(1, 3))
        assert sub.name == "x"

    def test_quality_less_and_empty(self):
        backed, listed = _columns([_read("AC"), _read("GT")])
        assert not backed.has_quality and not listed.has_quality
        assert backed.is_fixed_length
        assert backed[0].quality is None
        empty, _ = _columns([])
        assert len(empty) == 0 and not empty.has_quality
        assert empty.is_fixed_length and list(empty) == []

    def test_public_surface_matches_the_list(self):
        backed, listed = _columns(self.READS)
        assert backed == listed and listed == backed
        assert backed.reads == listed.reads
        assert [r.header for r in backed] == ["a", "b", ""]
        assert backed[1].text == "TTGCA" and backed[-1].text == "G"
        assert backed.reads is backed.reads          # built once
        assert backed.subset([2, 0]) == listed.subset([2, 0])
        assert backed.subset(range(2, 0, -1)) \
            == listed.subset(range(2, 0, -1))
        assert backed.uncompressed_fastq_bytes() \
            == listed.uncompressed_fastq_bytes()
        with pytest.raises(IndexError):
            backed.subset(range(2, 5))
        assert backed != ReadSet(list(self.READS), name="other")

    def test_append_extend_behave_as_on_a_list(self):
        backed, listed = _columns(self.READS)
        for rs in (backed, listed):
            rs.append(_scored("CC", "new"))
            rs.extend([_read("A"), _read("T")])
        assert len(backed) == len(listed) == 6
        assert backed == listed
        assert backed.total_bases == listed.total_bases == 14
        assert not backed.has_quality      # two reads carry no scores
        assert backed[3].header == "new"
        # The set now renders and pickles what it holds.
        assert pickle.loads(pickle.dumps(backed)) == listed

    def test_pickle_ships_the_columns(self):
        backed, listed = _columns(self.READS)
        _ = backed.reads                    # materialized views stay home
        again = pickle.loads(pickle.dumps(backed))
        assert again._reads is None
        assert again == listed and again.name == "x"
        assert [r.header for r in again] == ["a", "b", ""]
        assert pickle.loads(pickle.dumps(listed)) == listed
