"""Pairwise alignment with edit-script traceback.

Produces the mismatch information SAGe encodes: ordered edit operations in
read coordinates.  Three flavours are provided:

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Edit operation kinds.
SUB = "sub"
INS = "ins"
DEL = "del"


@dataclass
class EditOp:
    """One edit operation, in read-segment coordinates."""

    kind: str                 # 'sub' | 'ins' | 'del'
    read_pos: int             # position in the read segment
    length: int = 1           # block length (indel blocks; subs are 1)
    bases: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.uint8))


@dataclass
class AlignmentResult:
    """Outcome of one alignment call."""

    ops: list[EditOp]
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
                 win_rows: np.ndarray, free_start: bool | np.ndarray,
                 cube: np.ndarray | None = None) -> np.ndarray:
    """The unit-cost edit-distance DP over a plane of problems, one numpy
    row step per DP row of all of them; returns each problem's own last
    row (row ``read_lens[p]``, exact, one row per problem).

    Rows index read positions (0..n), columns consensus positions
    (0..m); ``free_start`` (one flag, or one per problem) makes leading
    consensus gaps free (row 0 all zeros).  ``read_rows`` / ``win_rows``
    are padded 2-D inputs whose padding matches nothing; a cell depends
    only on cells above and to its left, so padding past a problem's own
    rectangle never reaches the cells inside it.  ``cube``, when given,
    is the (problems, rows + 1, columns + 1) ``uint8`` array that
    receives every row's distances mod 256 — what :func:`trace_ops`
    walks.

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
    if cube is not None:
        np.add(prev, cols, out=cube[:, 0], casting="unsafe")
    last = prev + cols
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
        if cube is not None:
            np.add(row, cols, out=cube[:, i], casting="unsafe")
        if i in ends:
            done = read_lens == i
            last[done] = row[done] + cols
        prev, row = row, prev
    return last


def trace_ops(read_seg: np.ndarray, cons_seg: np.ndarray, dist, width: int,
              end_i: int, end_j: int,
              free_start: bool) -> tuple[list[EditOp], int]:
    """Walk the DP back from (end_i, end_j); returns (ops, start_j).

    ``dist[i * width + j]`` is cell (i, j)'s distance mod 256 (a flat
    ``memoryview`` of a job's plane, which may be wider than the
    problem: only cells inside ``[0..end_i] x [0..end_j]`` are read).
    Each move is re-derived from the distances with the recurrence's
    tie-breaks (left only when strictly below both other candidates,
    else the diagonal when no worse than up).  A match is always the
    diagonal.  At a mismatch, with ``base`` the distance of cell
    (i-1, j-1): up when cell (i-1, j) is below ``base``, else left when
    the cell equals ``base``, else the diagonal.  Adjacent cells of a
    unit-cost DP differ by at most 1, so those differences are exact
    mod 256.  Runs of insertions / deletions become one op each
    (§5.1.1 indel blocks).
    """
    read, cons = read_seg.tobytes(), cons_seg.tobytes()
    steps: list[list] = []   # [kind, read_pos, length], last op first
    kind = None              # the previous move's op kind
    i, j = end_i, end_j
    while i and j:
        if read[i - 1] == cons[j - 1]:
            # A run of matches needs no distances: skip it 8 at a time.
            i -= 1
            j -= 1
            while i >= 8 and j >= 8 and read[i - 8:i] == cons[j - 8:j]:
                i -= 8
                j -= 8
            kind = None
            continue
        at = i * width + j
        base = dist[at - width - 1]
        if (dist[at - width] - base) & 255 == 255:
            i -= 1
            if kind == INS:
                steps[-1][1] = i
                steps[-1][2] += 1
            else:
                steps.append([INS, i, 1])
                kind = INS
        elif dist[at] == base:
            j -= 1
            if kind == DEL:
                steps[-1][2] += 1
            else:
                steps.append([DEL, i, 1])
                kind = DEL
        else:
            i -= 1
            j -= 1
            steps.append([SUB, i, 1])
            kind = SUB
    # Neither run extends the last op: the loop ended on a move that
    # consumed consensus (j = 0) or read (i = 0), or never ran.
    if i:                    # column 0: the rest of the read is inserted
        steps.append([INS, 0, i])
    elif j and not free_start:   # row 0: leading consensus is deleted
        steps.append([DEL, 0, j])
        j = 0
    ops = [EditOp(kind, pos, length, read_seg[pos:pos + length].copy())
           if kind != DEL else EditOp(DEL, pos, length)
           for kind, pos, length in reversed(steps)]
    return ops, j


def _align(read_seg: np.ndarray, cons_seg: np.ndarray, free_start: bool,
           free_end: bool) -> AlignmentResult:
    """One alignment: the DP, its end column, and the traceback."""
    read_seg = np.asarray(read_seg, dtype=np.uint8)
    cons_seg = np.asarray(cons_seg, dtype=np.uint8)
    n, m = read_seg.size, cons_seg.size
    cube = np.empty((1, n + 1, m + 1), dtype=np.uint8)
    last = dp_last_rows(read_seg[None, :], np.array([n]), cons_seg[None, :],
                        free_start, cube)[0]
    end_j = int(np.argmin(last)) if free_end else m
    ops, start_j = trace_ops(read_seg, cons_seg, memoryview(cube).cast("B"),
                             m + 1, n, end_j, free_start)
    return AlignmentResult(ops, int(last[end_j]), start_j, end_j)


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
