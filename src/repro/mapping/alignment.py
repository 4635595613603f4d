"""Pairwise alignment with edit-script traceback.

Produces the mismatch information SAGe encodes: ordered edit operations in
read coordinates, as integer columns (``kind``, ``read_pos``,
``length``; an op's bases are the read's own).  Three flavours are
provided:

- :func:`global_align` — both sequences aligned end to end (used to fill
  gaps between chained anchors);
- :func:`prefix_free_align` — the read segment aligns to a *suffix* of the
  consensus window (free leading consensus gap; used for read heads, and
  it is what turns an anchor chain into a matching position);
- :func:`suffix_free_align` — the read segment aligns to a *prefix* of the
  consensus window (free trailing consensus gap; used for read tails).

Edit operations use the reconstruction semantics of DESIGN.md §3:
substitution consumes one base of both sequences, insertion consumes read
bases only, deletion consumes consensus bases only.

All three run one unit-cost recurrence in bit-vector form (Myers'
algorithm in Hyyro's formulation; GenASM, Senol Cali, makes the same
move in hardware): a DP row is two words, its +1 and -1 column steps
(:func:`row_step`), and a traceback walks those words back by one rule.
Two functions step rows, and only two: :func:`dp_rows` one job's,
as Python ints, and :func:`step_lanes` a chunk of one-word jobs' side
by side in ``uint64`` lanes.  There are two walks, and only two:
:func:`trace_ops` walks one job (the scalar aligners, and the batch
mapper's jobs wider than 64 columns), and :func:`trace_lanes` walks a
stepped chunk of lanes all back at once, one cell per numpy step, into
one :class:`SolvedJobs` table.  A ``suffix_free`` job ends at the
first minimum of its last row: :func:`first_minimum` walks a
Python-int row's words a byte at a time, and :func:`step_lanes` takes
each lane's from its words' unpacked steps.  The batch mapper's flank
check (stage 3) needs only each lane's end column and cost, so it
calls :func:`step_lanes` and walks nothing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

#: Edit operation kinds: the numbers of every op ``kind`` column, from
#: :func:`trace_ops` to ``MappedBlock.kind``.
SUB, INS, DEL = 0, 1, 2


@dataclass
class AlignmentResult:
    """Outcome of one alignment call: its ops as columns, in read order
    and read-segment coordinates (a substitution's length is 1, an
    indel block's its run)."""

    kind: list[int]
    read_pos: list[int]
    length: list[int]
    cost: int                 # edit distance (unit costs)
    cons_used_start: int      # first consensus offset consumed (window-rel)
    cons_used_end: int        # one past the last consensus offset consumed


class SolvedJobs(NamedTuple):
    """Solved alignments as one table of columns: per job its ``cost``,
    the consensus span it used (``cons_used_start`` /
    ``cons_used_end``) and its ops ``op_lo`` .. ``op_lo + n_ops``; per
    op ``kind``, ``read_pos`` and ``length``, as in
    :class:`AlignmentResult`.  A job's ops are contiguous and in read
    order; the jobs' op ranges may lie in any order."""

    cost: np.ndarray
    cons_used_start: np.ndarray
    cons_used_end: np.ndarray
    op_lo: np.ndarray
    n_ops: np.ndarray
    kind: np.ndarray
    read_pos: np.ndarray
    length: np.ndarray

    @classmethod
    def of(cls, results: list[AlignmentResult]) -> "SolvedJobs":
        """The table of ``results``, job after job."""
        cost, start, end, n_ops = np.array(
            [(res.cost, res.cons_used_start, res.cons_used_end,
              len(res.kind)) for res in results],
            dtype=np.int64).reshape(-1, 4).T
        kind, read_pos, length = np.array(
            [op for res in results
             for op in zip(res.kind, res.read_pos, res.length)],
            dtype=np.int64).reshape(-1, 3).T
        return cls(cost, start, end, np.cumsum(n_ops) - n_ops, n_ops,
                   kind.astype(np.int8), read_pos, length)


# ----------------------------------------------------------------------
# Bit-vector rows (Myers / Hyyro) and the traceback over them
# ----------------------------------------------------------------------

def row_step(pos: Any, neg: Any, eq: Any) -> tuple[Any, Any]:
    """DP row ``i`` from row ``i - 1``, as bit-vectors; returns its
    ``(pos, neg)`` words.

    A row is stored as its column steps: bit ``j - 1`` of ``pos`` is set
    when ``D[i][j] - D[i][j-1]`` is +1, of ``neg`` when it is -1 (0
    otherwise); ``D[i][0] = i``.  ``eq`` has bit ``j - 1`` set when the
    read base of row ``i`` equals consensus base ``j - 1``.  This is
    Myers' recurrence (in Hyyro's form) with the read as the text and
    the consensus window as the pattern; the steps down column 0 are all
    +1, hence the 1 shifted in.  The words are ``uint64`` arrays (one
    problem per lane) or Python ints (one problem); carries and shifts
    only move upwards, so bits past a problem's width never reach the
    bits inside it, and callers ignore or mask them.
    """
    xv = eq | neg
    xh = (((eq & pos) + pos) ^ pos) | eq
    up = neg | ~(xh | pos)          # +1 steps down each column
    down = pos & xh                 # -1 steps down each column
    up = (up << 1) | 1
    down = down << 1
    return down | ~(xv | up), up & xv


def dp_rows(read_seg: np.ndarray, cons_seg: np.ndarray,
            free_start: bool) -> tuple[list[int], list[int]]:
    """Every DP row of one problem as Python-int words, ``(pos, neg)``
    with ``pos[i]`` / ``neg[i]`` row ``i`` (see :func:`row_step`);
    ``free_start`` makes row 0 all zeros (else ``D[0][j] = j``)."""
    full = (1 << cons_seg.size) - 1
    codes = read_seg.tolist()
    # The eq word of each code the read holds: bit j where cons_seg[j]
    # is that code.
    eqs = [int.from_bytes(row.tobytes(), "little") for row in np.packbits(
        cons_seg[None, :] == np.arange(max(codes, default=0) + 1)[:, None],
        axis=1, bitorder="little")]
    p, q = (0 if free_start else full), 0
    pos, neg = [p], [q]
    for code in codes:
        p, q = row_step(p, q, eqs[code])
        p &= full
        q &= full
        pos.append(p)
        neg.append(q)
    return pos, neg


@functools.cache
def _byte_dip(pos: int, neg: int) -> tuple[int, int, int]:
    """``(dip, at, step)`` of one byte of a row's words: the lowest
    prefix sum of its eight column steps, the first column (1..8) that
    reaches it, and the sum of all eight (at most 3**8 byte pairs, as
    the words share no bit)."""
    run, dip, at = 0, 9, 0
    for c in range(8):
        run += (pos >> c & 1) - (neg >> c & 1)
        if run < dip:
            dip, at = run, c + 1
    return dip, at, run


def first_minimum(pos: int, neg: int, m: int) -> int:
    """The column of the first minimum of a DP row (columns 0..m), from
    its words as Python ints (no bit at or past ``m`` set), walked a
    byte at a time."""
    size = (m + 7) // 8
    best = low = end = 0         # distances relative to column 0's
    for b, (p, q) in enumerate(zip(pos.to_bytes(size, "little"),
                                   neg.to_bytes(size, "little"))):
        dip, at, step = _byte_dip(p, q)
        if low + dip < best:
            best, end = low + dip, 8 * b + at
        low += step
    return end


def trace_ops(read_seg: np.ndarray, cons_seg: np.ndarray, pos: list[int],
              neg: list[int], end_i: int, end_j: int, free_start: bool
              ) -> tuple[tuple[list[int], list[int], list[int]], int, int]:
    """Walk the DP back from (end_i, end_j); returns (ops, start_j,
    cost), ``ops`` the ``(kind, read_pos, length)`` columns in read
    order and ``cost`` the distance of cell (end_i, end_j).

    ``pos[i]`` / ``neg[i]`` are row ``i``'s words (:func:`row_step`;
    bits past ``end_j`` are never read).  Each move is re-derived with
    the recurrence's tie-breaks (left only when strictly below both
    other candidates, else the diagonal when no worse than up).  A
    match is always the diagonal.  At a mismatch, with ``base`` the
    distance of cell (i-1, j-1): up when cell (i-1, j) is below
    ``base`` (bit ``j - 1`` of ``neg[i-1]`` is set), else left when
    cell (i, j) equals ``base`` (counted from ``pos[i-1]`` /
    ``neg[i-1]``'s prefix popcounts), else the diagonal.  Every
    mismatch move lowers the distance by exactly 1, so the walk carries
    cell (i, j)'s distance instead of recounting it.
    Runs of insertions / deletions become one op each (§5.1.1 indel
    blocks).
    """
    read, cons = read_seg.tobytes(), cons_seg.tobytes()
    kinds: list[int] = []    # the op columns, last op first
    at: list[int] = []
    lengths: list[int] = []
    kind = -1                # the previous move's op kind (-1: a match)
    i, j = end_i, end_j
    below = (1 << j) - 1
    cost = dist = (i + (pos[i] & below).bit_count()
                   - (neg[i] & below).bit_count())
    while i and j:
        if read[i - 1] == cons[j - 1]:
            # A run of matches needs no distances: skip it 8 at a time.
            i -= 1
            j -= 1
            while i >= 8 and j >= 8 and read[i - 8:i] == cons[j - 8:j]:
                i -= 8
                j -= 8
            kind = -1
            continue
        below = (1 << (j - 1)) - 1
        if neg[i - 1] >> (j - 1) & 1:
            i -= 1
            if kind == INS:
                at[-1] = i
                lengths[-1] += 1
            else:
                kind = INS
                kinds.append(INS)
                at.append(i)
                lengths.append(1)
        elif dist - i + 1 == ((pos[i - 1] & below).bit_count()
                              - (neg[i - 1] & below).bit_count()):
            j -= 1
            if kind == DEL:
                lengths[-1] += 1
            else:
                kind = DEL
                kinds.append(DEL)
                at.append(i)
                lengths.append(1)
        else:
            i -= 1
            j -= 1
            kind = SUB
            kinds.append(SUB)
            at.append(i)
            lengths.append(1)
        dist -= 1
    # Neither run extends the last op: the loop ended on a move that
    # consumed consensus (j = 0) or read (i = 0), or never ran.
    if i:                    # column 0: the rest of the read is inserted
        kinds.append(INS)
        at.append(0)
        lengths.append(i)
    elif j and not free_start:   # row 0: leading consensus is deleted
        kinds.append(DEL)
        at.append(0)
        lengths.append(j)
        j = 0
    return (kinds[::-1], at[::-1], lengths[::-1]), j, cost


#: ``_MASKS[c]``: a row word's low ``c`` bits set (c = 0..64).
_MASKS = np.array([(1 << c) - 1 for c in range(65)], dtype=np.uint64)


def step_lanes(reads: np.ndarray, cons: np.ndarray, n: np.ndarray,
               m: np.ndarray, free_start: np.ndarray, free_end: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Step a chunk of one-word lanes' rows forward together; returns
    ``(pos, neg, end_j, cost)``: every row's two words
    (:func:`row_step`), stored where the row's read base is, and each
    lane's end column and the distance of its cell there.

    Lane ``r`` has ``n[r]`` read bases (``n`` descending) and a window
    of ``m[r]`` <= 64 columns, ``cons[r, :m[r]]`` (``cons`` is 64
    columns wide); its rows 0..n[r] are stored from ``start[r] =
    sum(n[:r] + 1)`` on, and the read base of its row ``i`` is
    ``reads[start[r] + i]``.  ``free_start`` / ``free_end`` mark the
    ``prefix_free`` / ``suffix_free`` lanes.  The lanes still stepping
    at row ``i`` are the first ``active[i]``.

    A ``suffix_free`` lane ends at the first minimum of its last row
    (prefix sums of the row's unpacked column steps), any other in its
    last column.
    """
    k = n.size
    start = np.cumsum(n + 1) - (n + 1)
    # Lane r's eq word for base code c is eq[r * n_codes + c].
    n_codes = int(reads.max(initial=0)) + 1
    eq = np.packbits(cons[:, None, :]
                     == np.arange(n_codes, dtype=np.uint8)[None, :, None],
                     axis=2, bitorder="little").view("<u8").reshape(-1)
    eq_at = np.arange(k, dtype=np.int64) * n_codes
    active = np.searchsorted(-n, -np.arange(int(n[0]) + 1), side="right")
    pos = np.empty(reads.size, dtype=np.uint64)
    neg = np.empty(reads.size, dtype=np.uint64)
    p = np.where(free_start, np.uint64(0), ~np.uint64(0))   # D[0][j]: 0, j
    q = np.zeros(k, dtype=np.uint64)
    pos[start], neg[start] = p, q
    for i in range(1, active.size):
        a = int(active[i])
        at = start[:a] + i
        p, q = row_step(p[:a], q[:a], eq[eq_at[:a] + reads[at]])
        pos[at], neg[at] = p, q

    last = start + n
    inside = _MASKS[m]
    last_pos, last_neg = pos[last] & inside, neg[last] & inside
    end_j = m.copy()
    if free_end.any():
        steps = np.unpackbits(
            np.stack([last_pos[free_end], last_neg[free_end]])
            .astype("<u8").view(np.uint8).reshape(2, -1, 8),
            axis=2, bitorder="little").astype(np.int8)
        dist = np.zeros((steps.shape[1], _MASKS.size), dtype=np.int8)
        np.cumsum(steps[0] - steps[1], axis=1, out=dist[:, 1:])
        end_j[free_end] = dist.argmin(axis=1)
    below = _MASKS[end_j]
    cost = n + (np.bitwise_count(last_pos & below).astype(np.int64)
                - np.bitwise_count(last_neg & below))
    return pos, neg, end_j, cost


def trace_lanes(reads: np.ndarray, cons: np.ndarray, n: np.ndarray,
                m: np.ndarray, free_start: np.ndarray,
                free_end: np.ndarray) -> SolvedJobs:
    """Align a chunk of one-word lanes, laid out as :func:`step_lanes`
    takes them: their rows stepped forward and their ends found by it,
    then walked back together; returns their alignments, lane after
    lane, equal to what :func:`dp_rows`, :func:`trace_ops` and the
    aligners' end columns give one job at a time.

    Each numpy step moves every live lane back one cell by
    :func:`trace_ops`'s rule and tie-breaks, until its row or column is
    0.  Every mismatch move lowers the distance by 1, so a lane makes
    ``cost`` less its tail's length of them; each is written, as its
    row and whether it is an insertion or a deletion, into the lane's
    own ``cost`` slots from the top down, which leaves them in read
    order, and the tail (column 0's insertion, or row 0's deletion when
    the start is not free) into the slot below.  Runs of insertions /
    deletions then become one op each.
    """
    pos, neg, end_j, cost = step_lanes(reads, cons, n, m, free_start,
                                       free_end)
    k = n.size
    start = np.cumsum(n + 1) - (n + 1)
    last = start + n

    # Lane r's slots are top[r] - cost[r] .. top[r]; ``at`` holds the
    # index of row i - 1 after each move, at least -1 (-2: an unused
    # slot).
    top = np.cumsum(cost)
    at = np.full(int(top[-1]), -2,
                 dtype=np.int32 if reads.size < 1 << 31 else np.int64)
    is_ins = np.zeros(at.size, dtype=bool)
    is_del = np.zeros(at.size, dtype=bool)
    # Where each walk ends, (i, j); a walked lane's is kept as its row
    # index and j - 1 until the walk is over.
    i_end, j_end = n.copy(), end_j.copy()
    walked = lane = np.flatnonzero((n > 0) & (end_j > 0))
    # Per live lane: the index of its row i - 1 and of its row 0, its
    # column j - 1 and that column's index in ``cons``, dist - i + 1
    # (within -63..65, kept modulo 256 as are the popcount differences
    # it is compared with) and its next free slot, plus one.
    row, base, col = last[lane] - 1, start[lane], end_j[lane] - 1
    cpos = lane * cons.shape[1] + col
    e = (cost - n + 1)[lane].astype(np.uint8)
    slot = top[lane]
    read_of_row = reads[1:]
    window = cons.reshape(-1)
    while lane.size:
        mism = read_of_row[row] != window[cpos]
        above_neg, above_pos = neg[row], pos[row]
        below = _MASKS[col]
        up = (above_neg & (below + 1)) != 0
        left = (np.bitwise_count(above_pos & below)
                - np.bitwise_count(above_neg & below)) == e
        ins = mism & up
        dele = mism & (left > up)
        takes_read, takes_cons = ~dele, ~ins
        row -= takes_read
        col -= takes_cons
        cpos -= takes_cons
        e += takes_read
        e -= mism
        ev = np.flatnonzero(mism)
        slot -= mism
        w = slot[ev]
        at[w] = row[ev]
        is_ins[w] = ins[ev]
        is_del[w] = dele[ev]
        alive = (row >= base) & (col >= 0)
        if not alive.all():
            dead = ~alive
            gone = lane[dead]
            i_end[gone] = row[dead]
            j_end[gone] = col[dead]
            lane, row, base, col, cpos, e, slot = (
                x[alive] for x in (lane, row, base, col, cpos, e, slot))
    i_end[walked] -= start[walked] - 1
    j_end[walked] += 1

    del pos, neg

    # The tails: a walk ends in column 0 with read bases left, or in
    # row 0 (or, never walked, with an empty read or window).  Neither
    # extends the op next to it: the move that ended the walk consumed
    # what the tail does not.
    tail = np.where(j_end == 0, i_end, np.where(free_start, 0, j_end))
    has = np.flatnonzero(tail)
    t = (top - cost + tail - 1)[has]
    at[t] = start[has] - 1                  # read position 0, below
    used = np.flatnonzero(at > -2)
    owner = np.searchsorted(top, used, side="right")
    at = at[used] - (start - 1)[owner]
    kind = np.full(used.size, SUB, dtype=np.int8)
    kind[is_ins[used]] = INS
    kind[is_del[used]] = DEL
    t = np.searchsorted(used, t)
    kind[t] = np.where(j_end == 0, INS, DEL)[has]
    length = np.ones(used.size, dtype=np.int64)
    length[t] = tail[has]
    # An insertion extends the run before it when it sits one base
    # past it, a deletion when it sits at the same base.
    joins = np.zeros(used.size, dtype=bool)
    joins[1:] = ((owner[1:] == owner[:-1]) & (kind[1:] == kind[:-1])
                 & (kind[1:] != SUB)
                 & (at[1:] - at[:-1] == (kind[1:] == INS)))
    first = np.flatnonzero(~joins)
    n_ops = np.bincount(owner[first], minlength=k)
    return SolvedJobs(cost, np.where(free_start, j_end, 0), end_j,
                      np.cumsum(n_ops) - n_ops, n_ops, kind[first],
                      at[first],
                      np.add.reduceat(length, first) if first.size
                      else length)


def _align(read_seg: np.ndarray, cons_seg: np.ndarray, free_start: bool,
           free_end: bool) -> AlignmentResult:
    """One alignment: the DP rows, its end column, and the traceback."""
    read_seg = np.asarray(read_seg, dtype=np.uint8)
    cons_seg = np.asarray(cons_seg, dtype=np.uint8)
    n, m = read_seg.size, cons_seg.size
    pos, neg = dp_rows(read_seg, cons_seg, free_start)
    end_j = first_minimum(pos[n], neg[n], m) if free_end else m
    ops, start_j, cost = trace_ops(read_seg, cons_seg, pos, neg, n, end_j,
                                   free_start)
    return AlignmentResult(*ops, cost, start_j, end_j)


def global_align(read_seg: np.ndarray,
                 cons_seg: np.ndarray) -> AlignmentResult:
    """Align both segments end to end; unit-cost edit distance."""
    return _align(read_seg, cons_seg, free_start=False, free_end=False)


def prefix_free_align(read_seg: np.ndarray,
                      cons_seg: np.ndarray) -> AlignmentResult:
    """Align the read segment to a suffix of the consensus window."""
    return _align(read_seg, cons_seg, free_start=True, free_end=False)


def suffix_free_align(read_seg: np.ndarray,
                      cons_seg: np.ndarray) -> AlignmentResult:
    """Align the read segment to a prefix of the consensus window."""
    return _align(read_seg, cons_seg, free_start=False, free_end=True)
