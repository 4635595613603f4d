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


#: Backpointer codes in the traceback matrix (shared with the batched
#: kernel in ``mapping.batch``, whose cube :func:`trace_ops` walks too).
BP_DIAG = 0
BP_UP = 1      # consumed a read base (insertion)
BP_LEFT = 2    # consumed a consensus base (deletion)


def _dp_matrix(read_seg: np.ndarray, cons_seg: np.ndarray,
               free_start: bool) -> tuple[np.ndarray, np.ndarray]:
    """Fill the edit-distance DP; returns ``(last_row, back)``.

    Rows index read positions (0..n), columns consensus positions (0..m).
    ``free_start`` makes leading consensus gaps free (row 0 all zeros).
    Only the backpointer matrix is kept whole (one byte per cell); the
    distances live in two rolling rows, and ``last_row`` is row ``n``.
    This is the oracle ``mapping.batch``'s batched kernel is held to.
    """
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
        # Left dependency row[j] = min(best[j], row[j-1] + 1) unrolls to a
        # prefix-min with unit carry: row[j] = j + min_{t<=j}(cand[t] - t)
        # where cand[0] is the first-column value.
        nxt = np.empty(m + 1, dtype=np.int32)
        nxt[0] = i
        np.subtract(best, cols, out=nxt[1:])
        np.minimum.accumulate(nxt, out=nxt)
        nxt[1:] += cols
        back[i, 1:] = np.where(nxt[1:] < best, BP_LEFT,
                               np.where(diag <= up, BP_DIAG, BP_UP))
        row = nxt
    return row, back


def trace_ops(read_seg: np.ndarray, cons_seg: np.ndarray,
              back: np.ndarray, end_i: int, end_j: int,
              free_start: bool) -> tuple[list[EditOp], int]:
    """Walk backpointers from (end_i, end_j); returns (ops, start_j).

    ``back`` may be wider than the problem (a padded slice of a batched
    backpointer cube): only cells inside ``[0..end_i] x [0..end_j]`` are
    read.
    """
    raw: list[tuple[str, int]] = []  # (kind, read_pos) single-base steps
    i, j = end_i, end_j
    while i > 0 or j > 0:
        if free_start and i == 0:
            break  # leading consensus bases are free
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

    # Merge runs of insertions/deletions into blocks (§5.1.1 indel blocks).
    ops: list[EditOp] = []
    idx = 0
    while idx < len(raw):
        kind, pos = raw[idx]
        if kind == SUB:
            ops.append(EditOp(SUB, pos, 1,
                              read_seg[pos:pos + 1].copy()))
            idx += 1
        elif kind == INS:
            run = 1
            while (idx + run < len(raw) and raw[idx + run][0] == INS
                   and raw[idx + run][1] == pos + run):
                run += 1
            ops.append(EditOp(INS, pos, run,
                              read_seg[pos:pos + run].copy()))
            idx += run
        else:  # DEL
            run = 1
            while (idx + run < len(raw) and raw[idx + run][0] == DEL
                   and raw[idx + run][1] == pos):
                run += 1
            ops.append(EditOp(DEL, pos, run))
            idx += run
    return ops, j


def global_align(read_seg: np.ndarray,
                 cons_seg: np.ndarray) -> AlignmentResult:
    """Align both segments end to end; unit-cost edit distance."""
    read_seg = np.asarray(read_seg, dtype=np.uint8)
    cons_seg = np.asarray(cons_seg, dtype=np.uint8)
    last_row, back = _dp_matrix(read_seg, cons_seg, free_start=False)
    ops, start_j = trace_ops(read_seg, cons_seg, back,
                             read_seg.size, cons_seg.size, False)
    return AlignmentResult(ops, int(last_row[cons_seg.size]),
                           start_j, cons_seg.size)


def prefix_free_align(read_seg: np.ndarray,
                      cons_seg: np.ndarray) -> AlignmentResult:
    """Align the read segment to a suffix of the consensus window."""
    read_seg = np.asarray(read_seg, dtype=np.uint8)
    cons_seg = np.asarray(cons_seg, dtype=np.uint8)
    last_row, back = _dp_matrix(read_seg, cons_seg, free_start=True)
    ops, start_j = trace_ops(read_seg, cons_seg, back,
                             read_seg.size, cons_seg.size, True)
    return AlignmentResult(ops, int(last_row[cons_seg.size]),
                           start_j, cons_seg.size)


def suffix_free_align(read_seg: np.ndarray,
                      cons_seg: np.ndarray) -> AlignmentResult:
    """Align the read segment to a prefix of the consensus window."""
    read_seg = np.asarray(read_seg, dtype=np.uint8)
    cons_seg = np.asarray(cons_seg, dtype=np.uint8)
    last_row, back = _dp_matrix(read_seg, cons_seg, free_start=False)
    end_j = int(np.argmin(last_row))
    ops, start_j = trace_ops(read_seg, cons_seg, back,
                             read_seg.size, end_j, False)
    return AlignmentResult(ops, int(last_row[end_j]), start_j, end_j)


def apply_ops(cons_seg: np.ndarray, ops: list[EditOp],
              read_length: int) -> np.ndarray:
    """Reconstruct a read segment from consensus bases + edit ops.

    This is the reference implementation of the decoder's reconstruction
    loop, used in tests to validate alignment output.
    """
    cons_seg = np.asarray(cons_seg, dtype=np.uint8)
    out = np.empty(read_length, dtype=np.uint8)
    read_ptr = 0
    cons_ptr = 0
    for op in sorted(ops, key=lambda o: o.read_pos):
        gap = op.read_pos - read_ptr
        if gap < 0:
            raise ValueError("ops out of order")
        out[read_ptr:op.read_pos] = cons_seg[cons_ptr:cons_ptr + gap]
        read_ptr += gap
        cons_ptr += gap
        if op.kind == SUB:
            out[read_ptr] = op.bases[0]
            read_ptr += 1
            cons_ptr += 1
        elif op.kind == INS:
            out[read_ptr:read_ptr + op.length] = op.bases
            read_ptr += op.length
        else:  # DEL
            cons_ptr += op.length
    tail = read_length - read_ptr
    out[read_ptr:] = cons_seg[cons_ptr:cons_ptr + tail]
    return out
