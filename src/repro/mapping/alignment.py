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
(:func:`row_step`), and :func:`trace_ops` — the one traceback — walks
those words back.  The scalar aligners hold a row in Python ints
(:func:`dp_rows`); the batch mapper runs many rows side by side in
``uint64`` lanes through the same :func:`row_step`.  :func:`dp_last_rows`
is the batch mapper's flank check, which needs costs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

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


def row_dtype(n: int, m: int) -> type:
    """Integer type of the DP rows of an ``n`` x ``m`` problem.

    No cell exceeds ``i + j`` (a path of ``i`` insertions and ``j``
    deletions reaches it), so ``int16`` holds every row unless
    ``n + m`` does not fit in it.
    """
    return np.int16 if n + m <= np.iinfo(np.int16).max else np.int32


def dp_last_rows(read_rows: np.ndarray, read_lens: np.ndarray,
                 win_rows: np.ndarray,
                 free_start: bool | np.ndarray) -> np.ndarray:
    """The unit-cost edit-distance DP over a plane of problems, one numpy
    row step per DP row of all of them; returns each problem's own last
    row (row ``read_lens[p]``, exact, one row per problem).

    This is the batch mapper's flank check (stage 3), which needs costs
    and end columns only; alignments are traced from bit-vector rows
    (:func:`row_step`).
    Rows index read positions (0..n), columns consensus positions
    (0..m); ``free_start`` (one flag, or one per problem) makes leading
    consensus gaps free (row 0 all zeros).  ``read_rows`` / ``win_rows``
    are padded 2-D inputs whose padding matches nothing; a cell depends
    only on cells above and to its left, so padding past a problem's own
    rectangle never reaches the cells inside it.

    Rows are carried as ``S[i][j] = D[i][j] - j``, which turns the left
    dependency ``D[i][j] = min(best, D[i][j-1] + 1)`` into a plain prefix
    minimum over ``min(S[i-1][j-1] - match, S[i-1][j] + 1)``, with
    ``S[i][0] = i``.
    """
    n_prob, n_max = read_rows.shape
    m_max = win_rows.shape[1]
    dtype = row_dtype(n_max, m_max)
    cols = np.arange(m_max + 1, dtype=dtype)
    prev = np.empty((n_prob, m_max + 1), dtype=dtype)
    prev[:] = np.where(np.reshape(free_start, (-1, 1)), -cols, 0)
    last: np.ndarray = prev + cols
    ends = set(read_lens.tolist())
    row = np.empty_like(prev)
    diag = np.empty((n_prob, m_max), dtype=dtype)
    match = np.empty(diag.shape, dtype=bool)
    for i in range(1, n_max + 1):
        np.equal(read_rows[:, i - 1, None], win_rows, out=match)
        np.subtract(prev[:, :-1], match, out=diag)
        np.add(prev, 1, out=row)          # up; column 0 becomes i
        np.minimum(row[:, 1:], diag, out=row[:, 1:])
        np.minimum.accumulate(row, axis=1, out=row)
        if i in ends:
            done = read_lens == i
            last[done] = row[done] + cols
        prev, row = row, prev
    return last


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


def first_minima(last_pos: list[int], last_neg: list[int],
                 m: np.ndarray) -> list[int]:
    """The column of each last row's first minimum (columns 0..m[p] of
    problem ``p``), from the row's words (no bit at or past ``m[p]``
    set)."""
    size = max(1, (int(m.max()) + 7) // 8)
    pos, neg = (np.unpackbits(np.frombuffer(b"".join(
        word.to_bytes(size, "little") for word in words), dtype=np.uint8)
        .reshape(m.size, size), axis=1, bitorder="little")
        for words in (last_pos, last_neg))
    dist = np.zeros((m.size, 8 * size + 1), dtype=np.int32)
    np.cumsum(pos.astype(np.int32) - neg, axis=1, out=dist[:, 1:])
    dist[np.arange(dist.shape[1])[None, :] > m[:, None]] = \
        np.iinfo(np.int32).max
    ends: list[int] = dist.argmin(axis=1).tolist()
    return ends


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


def _align(read_seg: np.ndarray, cons_seg: np.ndarray, free_start: bool,
           free_end: bool) -> AlignmentResult:
    """One alignment: the DP rows, its end column, and the traceback."""
    read_seg = np.asarray(read_seg, dtype=np.uint8)
    cons_seg = np.asarray(cons_seg, dtype=np.uint8)
    n, m = read_seg.size, cons_seg.size
    pos, neg = dp_rows(read_seg, cons_seg, free_start)
    end_j = first_minima([pos[n]], [neg[n]], np.array([m]))[0] \
        if free_end else m
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
