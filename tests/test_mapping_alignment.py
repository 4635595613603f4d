"""Unit tests for repro.mapping.alignment."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.genomics import sequence as seq
from repro.mapping import alignment, batch
from repro.mapping.alignment import (DEL, INS, SUB, global_align,
                                     prefix_free_align, suffix_free_align)
from repro.mapping.batch import MapperStats, solve_extension_jobs
from repro.mapping.mapper import AlignmentJob

from tests.conftest import EditOp, apply_ops, edit_ops, solved_results


def enc(text):
    return seq.encode(text)


def ops_of(read, res):
    """An alignment's op columns as :class:`EditOp` s, bases from
    ``read``."""
    return edit_ops(read, res.kind, res.read_pos, res.length)


class TestGlobalAlign:
    def test_identical(self):
        res = global_align(enc("ACGTACGT"), enc("ACGTACGT"))
        assert res.cost == 0
        assert res.kind == res.read_pos == res.length == []

    def test_single_substitution(self):
        res = global_align(enc("ACGA"), enc("ACGT"))
        assert res.cost == 1
        assert len(res.kind) == 1
        op = ops_of(enc("ACGA"), res)[0]
        assert op.kind == SUB and op.read_pos == 3
        assert op.bases.tolist() == [0]

    def test_insertion_block_merged(self):
        res = global_align(enc("ACGGGGT"), enc("ACT"))
        ins_ops = [op for op in ops_of(enc("ACGGGGT"), res) if op.kind == INS]
        assert sum(op.length for op in ins_ops) == 4
        assert any(op.length >= 3 for op in ins_ops)

    def test_deletion_block_merged(self):
        res = global_align(enc("ACT"), enc("ACGGGGT"))
        del_ops = [op for op in ops_of(enc("ACT"), res) if op.kind == DEL]
        assert sum(op.length for op in del_ops) == 4

    def test_empty_read(self):
        res = global_align(enc(""), enc("ACG"))
        assert res.cost == 3
        assert res.kind == [DEL] and res.length == [3]

    def test_empty_consensus(self):
        res = global_align(enc("ACG"), enc(""))
        assert res.cost == 3
        assert res.kind == [INS] and res.length == [3]

    def test_reconstruction(self):
        read, cons = enc("AATTCCGG"), enc("AAGTCCG")
        res = global_align(read, cons)
        rebuilt = apply_ops(cons, ops_of(read, res), read.size)
        assert np.array_equal(rebuilt, read)


class TestPrefixFreeAlign:
    def test_finds_offset(self):
        cons = enc("TTTTTTACGT")
        res = prefix_free_align(enc("ACGT"), cons)
        assert res.cost == 0
        assert res.cons_used_start == 6

    def test_reconstruction_from_offset(self):
        cons = enc("GGGGGACGTACGT")
        read = enc("ACGAACGT")
        res = prefix_free_align(read, cons)
        window = cons[res.cons_used_start:]
        rebuilt = apply_ops(window, ops_of(read, res), read.size)
        assert np.array_equal(rebuilt, read)


class TestSuffixFreeAlign:
    def test_ignores_trailing_consensus(self):
        cons = enc("ACGTTTTTTT")
        res = suffix_free_align(enc("ACG"), cons)
        assert res.cost == 0
        assert res.cons_used_end == 3

    def test_no_trailing_deletions(self):
        cons = enc("ACGTACGTAA")
        res = suffix_free_align(enc("ACGT"), cons)
        assert all(kind != DEL or at < 4
                   for kind, at in zip(res.kind, res.read_pos))
        assert res.cost == 0


class TestApplyOps:
    def test_out_of_order_rejected(self):
        cons = enc("ACGT")
        ops = [EditOp(SUB, 2, 1, enc("A")), EditOp(SUB, 0, 1, enc("C"))]
        # apply_ops sorts, so this must still work.
        out = apply_ops(cons, ops, 4)
        assert out.tolist() == [1, 1, 0, 3]


@st.composite
def mutated_pair(draw):
    """A consensus window and a read derived from it by random edits."""
    cons_text = draw(st.text(alphabet="ACGT", min_size=20, max_size=80))
    cons = enc(cons_text)
    read = list(cons_text)
    n_edits = draw(st.integers(min_value=0, max_value=5))
    rng_choices = st.sampled_from("ACGT")
    for _ in range(n_edits):
        if not read:
            break
        kind = draw(st.sampled_from(["sub", "ins", "del"]))
        pos = draw(st.integers(min_value=0, max_value=len(read) - 1))
        if kind == "sub":
            read[pos] = draw(rng_choices)
        elif kind == "ins":
            read.insert(pos, draw(rng_choices))
        else:
            read.pop(pos)
    return enc("".join(read)), cons


class TestAlignmentProperties:
    @settings(max_examples=60, deadline=None)
    @given(mutated_pair())
    def test_global_alignment_is_lossless(self, pair):
        read, cons = pair
        res = global_align(read, cons)
        rebuilt = apply_ops(cons, ops_of(read, res), read.size)
        assert np.array_equal(rebuilt, read)

    @settings(max_examples=40, deadline=None)
    @given(mutated_pair())
    def test_cost_bounded_by_length_sum(self, pair):
        read, cons = pair
        res = global_align(read, cons)
        assert 0 <= res.cost <= read.size + cons.size

    @settings(max_examples=40, deadline=None)
    @given(mutated_pair())
    def test_ops_sorted_and_in_range(self, pair):
        read, cons = pair
        res = global_align(read, cons)
        assert len(res.kind) == len(res.read_pos) == len(res.length)
        assert res.read_pos == sorted(res.read_pos)
        for at in res.read_pos:
            assert 0 <= at <= read.size


# ----------------------------------------------------------------------
# Traceback oracle: the backpointer DP and walk the distance traceback
# replaced.  Each cell's move is stored when the cell is filled and the
# walk follows it; the aligners re-derive the same move from distances.
# ----------------------------------------------------------------------

BP_DIAG, BP_UP, BP_LEFT = 0, 1, 2


def oracle_dp_matrix(read_seg, cons_seg, free_start):
    """``(last_row, back)``: the DP's last row and its backpointers."""
    n, m = read_seg.size, cons_seg.size
    back = np.empty((n + 1, m + 1), dtype=np.uint8)
    back[0, :] = BP_LEFT
    back[:, 0] = BP_UP
    back[0, 0] = BP_DIAG
    if m == 0:
        return np.array([n], dtype=np.int32), back
    row = (np.zeros(m + 1, dtype=np.int32) if free_start
           else np.arange(m + 1, dtype=np.int32))
    cols = np.arange(1, m + 1, dtype=np.int32)
    for i in range(1, n + 1):
        diag = row[:-1] + (read_seg[i - 1] != cons_seg)
        up = row[1:] + 1
        best = np.minimum(diag, up)
        nxt = np.empty(m + 1, dtype=np.int32)
        nxt[0] = i
        np.subtract(best, cols, out=nxt[1:])
        np.minimum.accumulate(nxt, out=nxt)
        nxt[1:] += cols
        back[i, 1:] = np.where(nxt[1:] < best, BP_LEFT,
                               np.where(diag <= up, BP_DIAG, BP_UP))
        row = nxt
    return row, back


def oracle_trace_ops(read_seg, cons_seg, back, end_i, end_j, free_start):
    """Follow backpointers from (end_i, end_j); returns (ops, start_j)."""
    raw = []
    i, j = end_i, end_j
    while i > 0 or j > 0:
        if free_start and i == 0:
            break
        code = back[i, j]
        if code == BP_DIAG and i > 0 and j > 0:
            i -= 1
            j -= 1
            if read_seg[i] != cons_seg[j]:
                raw.append((SUB, i))
        elif code == BP_UP and i > 0:
            i -= 1
            raw.append((INS, i))
        else:
            j -= 1
            raw.append((DEL, i))
    raw.reverse()
    ops = []
    idx = 0
    while idx < len(raw):
        kind, pos = raw[idx]
        if kind == SUB:
            ops.append(EditOp(SUB, pos, 1, read_seg[pos:pos + 1].copy()))
            idx += 1
        elif kind == INS:
            run = 1
            while (idx + run < len(raw) and raw[idx + run][0] == INS
                   and raw[idx + run][1] == pos + run):
                run += 1
            ops.append(EditOp(INS, pos, run, read_seg[pos:pos + run].copy()))
            idx += run
        else:
            run = 1
            while (idx + run < len(raw) and raw[idx + run][0] == DEL
                   and raw[idx + run][1] == pos):
                run += 1
            ops.append(EditOp(DEL, pos, run))
            idx += run
    return ops, j


def oracle_align(read_seg, cons_seg, flavour):
    """``(ops, cost, cons_used_start, cons_used_end)`` of one flavour."""
    free_start = flavour == "prefix_free"
    last, back = oracle_dp_matrix(read_seg, cons_seg, free_start)
    end_j = int(np.argmin(last)) if flavour == "suffix_free" \
        else cons_seg.size
    ops, start_j = oracle_trace_ops(read_seg, cons_seg, back, read_seg.size,
                                    end_j, free_start)
    return ops, int(last[end_j]), start_j, end_j


_FLAVOURS = {"global": global_align, "prefix_free": prefix_free_align,
             "suffix_free": suffix_free_align}


def _key(ops, cost, start, end):
    return ([(op.kind, op.read_pos, op.length, op.bases.tobytes())
             for op in ops], cost, start, end)


@st.composite
def segment_pair(draw):
    """Two segments over a 2-letter (tie-heavy), 4-letter or 5-letter
    (``N`` equals only ``N``) alphabet: unrelated, or the read an edited
    copy of the consensus; either may be empty.  Windows range past the
    64 columns of one row word."""
    alphabet = draw(st.sampled_from(["AC", "ACGT", "ACGTN"]))
    cons = draw(st.text(alphabet=alphabet, max_size=140))
    if draw(st.booleans()):
        return draw(st.text(alphabet=alphabet, max_size=140)), cons
    read = list(cons)
    for _ in range(draw(st.integers(0, 6))):
        pos = draw(st.integers(0, len(read)))
        kind = draw(st.sampled_from(["sub", "ins", "del"]))
        if kind == "ins" or not read:
            read.insert(pos, draw(st.sampled_from(alphabet)))
        elif kind == "sub":
            read[min(pos, len(read) - 1)] = draw(st.sampled_from(alphabet))
        else:
            read.pop(min(pos, len(read) - 1))
    return "".join(read), cons


class TestTracebackOracle:
    """One traceback over bit-vector rows: every aligner and the batched
    solver (lanes and wide jobs alike) equal the backpointer oracle op
    for op."""

    @settings(max_examples=200, deadline=None)
    @given(pair=segment_pair())
    @example(pair=("AC" * 150, "GT" * 150))        # costs past 255
    @example(pair=("ACCA" * 75, "CAAC" * 80))
    @example(pair=("", "ACGT"))
    @example(pair=("ACGT", ""))
    @example(pair=("", ""))
    # Windows of 63, 64 and 65 columns: the last lane bit, a full lane
    # word, and the first window past it (a Python-int row).
    @example(pair=("ACGTTACG" * 7 + "AGTCA", "ACGTACGA" * 7 + "CGTACGT"))
    @example(pair=("ACGTTACG" * 8, "ACGTACGA" * 8))
    @example(pair=("ACGTTACG" * 8 + "C", "ACGTACGA" * 8 + "T"))
    # A full-word window under a read longer than it.
    @example(pair=("ACGTAACGTC" * 10, "ACGTACGTTC" * 6 + "ACGT"))
    # suffix_free first-minimum ties: the last row's minimum recurs,
    # and the end is its first column.
    @example(pair=("AC", "AGC"))
    @example(pair=("AC" * 20, "CA" * 32))
    @example(pair=("CA" * 40, "AC" * 35))
    def test_aligners_equal_backpointer_oracle(self, pair):
        read, cons = enc(pair[0]), enc(pair[1])
        jobs, want = [], []
        for flavour, align in _FLAVOURS.items():
            want.append(_key(*oracle_align(read, cons, flavour)))
            res = align(read, cons)
            assert _key(ops_of(read, res), res.cost, res.cons_used_start,
                        res.cons_used_end) == want[-1], flavour
            jobs.append(AlignmentJob(read, cons, flavour))
        # A shorter sibling of each job shares its chunk of lanes (it
        # stops stepping first).
        for flavour in _FLAVOURS:
            jobs.append(AlignmentJob(read[:read.size // 2], cons, flavour))
            want.append(_key(*oracle_align(read[:read.size // 2], cons,
                                           flavour)))
        got = solved_results(solve_extension_jobs(jobs, MapperStats()))
        assert [_key(ops_of(job.read_seg, r), r.cost, r.cons_used_start,
                     r.cons_used_end) for job, r in zip(jobs, got)] == want

    @settings(max_examples=60, deadline=None)
    @given(pairs=st.lists(segment_pair(), min_size=1, max_size=10),
           one_lane_chunks=st.booleans())
    def test_lane_walk_equals_backpointer_oracle(self, pairs,
                                                 one_lane_chunks):
        """Sibling lanes of many lengths share a chunk (they stop
        stepping, and stop walking, at different steps), or each lane
        is a chunk of its own (``_LANE_CHUNK_BYTES = 1``)."""
        self._assert_lanes_equal_oracle(pairs, one_lane_chunks)

    # Each case runs in all three flavours, alone and beside the others.
    _EDGES = [
        ("ACGT", ""), ("", ""),                       # m = 0
        ("ACGT", "G"), ("G", "T"),                    # m = 1
        ("", "ACGT"), ("", "ACGT" * 16),              # n = 0
        ("ACGTTACG" * 7 + "AGTCA", "ACGTACGA" * 7 + "CGTACGT"),   # m = 63
        ("ACGTTACG" * 8, "ACGTACGA" * 8),             # m = 64
        ("AC" * 45, "CA" * 32),                       # n > m = 64
        ("ANNGTNCA", "ACNGTTNA"), ("NNNN", "NANN"),   # N on both sides
        ("AC", "AGC"), ("AC" * 20, "CA" * 32),        # first-minimum ties
        ("CA" * 40, "AC" * 32),
        ("TTTTACGT", "ACGT"), ("GGACGTAC", "CGTAC"),  # INS run to column 0
        ("ACGT", "TTTTACGT"), ("ACGTA", "GGTACGTA"),  # DEL run to row 0
    ]

    @pytest.mark.parametrize("one_lane_chunks", [False, True])
    @pytest.mark.parametrize("case", range(len(_EDGES)))
    def test_lane_walk_edges(self, case, one_lane_chunks):
        self._assert_lanes_equal_oracle([self._EDGES[case]],
                                        one_lane_chunks)

    @pytest.mark.parametrize("one_lane_chunks", [False, True])
    def test_lane_walk_edges_as_siblings(self, one_lane_chunks):
        self._assert_lanes_equal_oracle(self._EDGES, one_lane_chunks)

    def test_lane_walk_ends_runs_at_the_table_edges(self):
        """The column-0 insertion and the row-0 deletion, as the lane
        walk writes them: the walk matches its way to column 0 (row 0)
        and the read bases (window bases) left are one op."""
        jobs = [AlignmentJob(enc("TTTTACGT"), enc("ACGT"), "global"),
                AlignmentJob(enc("ACGT"), enc("TTTTACGT"), "global")]
        got = solved_results(solve_extension_jobs(jobs, MapperStats()))
        assert [(r.kind, r.read_pos, r.length) for r in got] \
            == [([INS], [0], [4]), ([DEL], [0], [4])]

    @staticmethod
    def _assert_lanes_equal_oracle(pairs, one_lane_chunks):
        jobs, want = [], []
        for read, cons in pairs:
            read, cons = enc(read), enc(cons)
            for flavour in _FLAVOURS:
                jobs.append(AlignmentJob(read, cons, flavour))
                want.append(_key(*oracle_align(read, cons, flavour)))
        with pytest.MonkeyPatch.context() as patch:
            if one_lane_chunks:
                patch.setattr(batch, "_LANE_CHUNK_BYTES", 1)
            got = solved_results(solve_extension_jobs(jobs, MapperStats()))
        assert [_key(ops_of(job.read_seg, r), r.cost, r.cons_used_start,
                     r.cons_used_end) for job, r in zip(jobs, got)] == want

    def test_suffix_free_ties_end_at_the_first_minimum(self):
        """The last row of ``AC`` against ``AGC`` is 2, 1, 1, 1: the
        read ends at column 1, as in the oracle."""
        read, cons = enc("AC"), enc("AGC")
        assert oracle_dp_matrix(read, cons, False)[0].tolist() == [2, 1, 1, 1]
        res = suffix_free_align(read, cons)
        assert (res.cost, res.cons_used_end) == (1, 1)

    def test_lane_ends_equal_the_dp_oracle(self):
        """``step_lanes`` ends a ``prefix_free`` lane in its window's
        last column and a ``suffix_free`` lane at the first minimum of
        its last row, at that cell's distance, as the scalar DP does:
        lanes of 0..70 read bases against windows of 0, 1, 63 and 64
        columns, stepped side by side, with ``N`` in reads and windows
        (``N`` matches ``N``)."""
        rng = np.random.default_rng(13)
        lanes = []
        for m in (0, 1, 63, 64):
            for n in (0, 1, 2, 20, 40, 63, 64, 70):
                codes = rng.choice(5, max(n, m) + 8,
                                   p=[0.22] * 4 + [0.12]).astype(np.uint8)
                read = codes[:n].copy()
                edits = rng.random(n) < 0.15
                read[edits] = rng.integers(0, 5, int(edits.sum()))
                shift = int(rng.integers(0, 8))
                win = codes[shift:shift + m]
                lanes += [(read, win, True), (read, win, False)]
        assert any(seq.N_CODE in read for read, _, _ in lanes)
        assert any(seq.N_CODE in win for _, win, _ in lanes)
        lanes.sort(key=lambda lane: -lane[0].size)
        n = np.array([read.size for read, _, _ in lanes])
        m = np.array([win.size for _, win, _ in lanes])
        free_start = np.array([free for _, _, free in lanes])
        start = np.cumsum(n + 1) - (n + 1)
        reads = np.zeros(int((n + 1).sum()), dtype=np.uint8)
        cons = np.full((len(lanes), batch._LANE_BITS), batch._CONS_PAD,
                       dtype=np.uint8)
        for r, (read, win, _) in enumerate(lanes):
            reads[start[r] + 1:start[r] + 1 + read.size] = read
            cons[r, :win.size] = win
        _, _, end_j, cost = alignment.step_lanes(reads, cons, n, m,
                                                 free_start, ~free_start)
        want = []
        for read, win, free in lanes:
            last, _ = oracle_dp_matrix(read, win, free)
            end = win.size if free else int(np.argmin(last))
            want.append((end, int(last[end])))
        assert list(zip(end_j.tolist(), cost.tolist())) == want
