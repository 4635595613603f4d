"""Algorithm 1 — tuning bit-count class boundaries per read set (§5.1.1).

Given a histogram of required bit counts (how many bits each value in an
array needs), choose up to ``MAX_CLASSES`` boundary widths ``W = (x_1 <
x_2 < … < x_d)`` so that values needing ``b`` bits, ``x_{i-1} < b <= x_i``,
are stored with ``x_i`` bits — minimizing total encoded size (array bits +
guide bits + table overhead).  The search is the paper's exhaustive loop
over ``d`` with an early-exit convergence threshold ``ε``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..genomics.reads import run_index
from .prefix_codes import MAX_CLASSES, AssociationTable

#: Convergence threshold ε of Algorithm 1.
DEFAULT_EPSILON = 0.01

#: Serialized Association Table overhead in bits (3 + 6 per class).
_TABLE_HEADER_BITS = 3
_TABLE_ENTRY_BITS = 6


def bit_count_histogram(values: np.ndarray | list[int],
                        max_bits: int = 32) -> np.ndarray:
    """Histogram ``H[b]`` of how many values need exactly ``b`` bits.

    Index 0 is unused (a value needs at least one bit); the histogram has
    ``max_bits + 1`` entries.
    """
    values = np.asarray(values, dtype=np.int64)
    hist = np.zeros(max_bits + 1, dtype=np.int64)
    if values.size == 0:
        return hist
    if values.min() < 0:
        raise ValueError("values must be non-negative")
    bits = np.ones(values.shape, dtype=np.int64)
    mask = values > 0
    bits[mask] = np.floor(np.log2(values[mask])).astype(np.int64) + 1
    if bits.max() > max_bits:
        raise ValueError(
            f"value needs {int(bits.max())} bits > max_bits={max_bits}")
    np.add.at(hist, bits, 1)
    return hist


@dataclass(frozen=True)
class TuningResult:
    """Outcome of Algorithm 1 for one array."""

    boundaries: tuple[int, ...]    # sorted class widths (x_1 < … < x_d)
    encoded_bits: int              # estimated total size at these boundaries
    table: AssociationTable        # frequency-ordered class table

    @property
    def n_classes(self) -> int:
        return len(self.boundaries)


def _extend(combos: np.ndarray, m: int) -> np.ndarray:
    """The ``r + 1``-combinations of ``range(m)`` in lexicographic order,
    from the ``r``-combinations ``combos`` (rows, in that order): each
    row followed by every larger index."""
    last = combos[:, -1] if combos.shape[1] else np.full(len(combos), -1)
    more = m - 1 - last
    return np.column_stack((np.repeat(combos, more, axis=0),
                            run_index(last + 1, more)))


def tune(hist: np.ndarray, epsilon: float = DEFAULT_EPSILON,
         max_classes: int = MAX_CLASSES) -> TuningResult:
    """Run Algorithm 1 on a bit-count histogram.

    Iterates class counts ``d = 1..max_classes``; for each ``d`` it
    exhaustively evaluates boundary tuples drawn from the histogram's
    support (every tuple must end at the maximum occupied bit count so
    all values remain representable).  Exits early once adding a class
    improves the best size by less than ``epsilon`` (relative).

    A tuple's size is its data bits, plus guide bits for
    frequency-ranked unary codes (the class holding the most values
    gets the 1-bit code, the next a 2-bit code, and so on), plus the
    table.  A level's tuples are scored as one array, their class counts
    differences of one prefix sum; the first (lexicographic) tuple of
    least size wins, and a level replaces the best only when strictly
    smaller.
    """
    hist = np.asarray(hist, dtype=np.int64)
    support = [int(b) for b in np.nonzero(hist)[0] if b > 0]
    if not support:
        # Empty array: single 1-bit class keeps the decoder well-defined.
        table = AssociationTable((1,))
        return TuningResult((1,), _TABLE_HEADER_BITS + _TABLE_ENTRY_BITS,
                            table)
    max_bits = support[-1]

    # Rare bins (well under 0.1%) cannot shift the optimum's shape but
    # explode the combination space; fold them into the next bin up.
    total = int(hist[support].sum())
    if len(support) > 16:
        keep = [b for b in support
                if hist[b] >= max(1, total // 4096) or b == max_bits]
        support = sorted(set(keep) | {max_bits})

    # below[b]: values needing at most b bits (index 0 is unused).
    below = np.cumsum(hist) - hist[0]
    interior = np.array([b for b in support if b != max_bits],
                        dtype=np.int64)
    combos = np.empty((1, 0), dtype=np.int64)   # the one 0-combination
    best_size: int | None = None
    last_best: int | None = None
    best_bounds = best_counts = combos[0]

    for d in range(1, max_classes + 1):
        bounds = np.column_stack((interior[combos],
                                  np.full(len(combos), max_bits)))
        counts = np.diff(below[bounds], axis=1, prepend=0)
        ranked = -np.sort(-counts, axis=1)
        sizes = ((counts * bounds).sum(axis=1)
                 + ranked @ np.arange(1, d + 1)
                 + _TABLE_HEADER_BITS + _TABLE_ENTRY_BITS * d)
        pick = int(sizes.argmin())
        if best_size is None or sizes[pick] < best_size:
            best_size = int(sizes[pick])
            best_bounds, best_counts = bounds[pick], counts[pick]
        if last_best is not None \
                and (last_best - best_size) / max(best_size, 1) < epsilon:
            break
        last_best = best_size
        if d - 1 >= interior.size:
            break  # no more boundaries available
        combos = _extend(combos, interior.size)

    assert best_size is not None
    table = AssociationTable.from_histogram(best_bounds.tolist(),
                                            best_counts.tolist())
    return TuningResult(tuple(best_bounds.tolist()), best_size, table)


def tune_values(values: np.ndarray | list[int],
                epsilon: float = DEFAULT_EPSILON,
                max_classes: int = MAX_CLASSES) -> TuningResult:
    """Convenience wrapper: histogram then :func:`tune`."""
    return tune(bit_count_histogram(values), epsilon=epsilon,
                max_classes=max_classes)
