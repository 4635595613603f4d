"""Unit tests for repro.core.tuning (Algorithm 1)."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.prefix_codes import MAX_CLASSES, AssociationTable
from repro.core.tuning import (DEFAULT_EPSILON, TuningResult,
                               bit_count_histogram, tune, tune_values)


def _encoded_size(hist, boundaries):
    """Total bits to encode the histogram's values at given boundaries,
    one slice sum per class (frequency-ranked unary guide codes)."""
    counts = []
    prev = 0
    for bound in boundaries:
        counts.append(int(hist[prev + 1:bound + 1].sum()))
        prev = bound
    data_bits = sum(c * w for c, w in zip(counts, boundaries))
    guide_bits = sum(c * (rank + 1)
                     for rank, c in enumerate(sorted(counts, reverse=True)))
    return data_bits + guide_bits + 3 + 6 * len(boundaries), counts


def reference_tune(hist, epsilon=DEFAULT_EPSILON, max_classes=MAX_CLASSES):
    """Algorithm 1 one boundary tuple at a time: the oracle ``tune``'s
    prefix-sum scoring is held to (same support fold, same strict ``<``
    tie-break, same ε exit)."""
    hist = np.asarray(hist, dtype=np.int64)
    support = [int(b) for b in np.nonzero(hist)[0] if b > 0]
    if not support:
        return TuningResult((1,), 9, AssociationTable((1,)))
    max_bits = support[-1]
    total = int(hist[support].sum())
    if len(support) > 16:
        keep = [b for b in support
                if hist[b] >= max(1, total // 4096) or b == max_bits]
        support = sorted(set(keep) | {max_bits})
    best_size = best_bounds = last_best = None
    interior = [b for b in support if b != max_bits]
    for d in range(1, max_classes + 1):
        for combo in combinations(interior, d - 1):
            bounds = combo + (max_bits,)
            size, _ = _encoded_size(hist, bounds)
            if best_size is None or size < best_size:
                best_size, best_bounds = size, bounds
        if last_best is not None \
                and (last_best - best_size) / max(best_size, 1) < epsilon:
            break
        last_best = best_size
        if d - 1 >= len(interior):
            break
    counts = _encoded_size(hist, best_bounds)[1]
    return TuningResult(best_bounds, best_size,
                        AssociationTable.from_histogram(list(best_bounds),
                                                        counts))


class TestBitCount:
    @pytest.mark.parametrize("value,bits", [
        (0, 1), (1, 1), (2, 2), (3, 2), (4, 3), (255, 8), (256, 9)])
    def test_known_values(self, value, bits):
        assert np.flatnonzero(bit_count_histogram([value])).tolist() \
            == [bits]

    def test_negative(self):
        with pytest.raises(ValueError):
            bit_count_histogram([0, -1])


class TestHistogram:
    def test_counts_by_needed_bits(self):
        hist = bit_count_histogram([0, 1, 2, 3, 4, 7, 8])
        assert hist[1] == 2   # 0 and 1 need one bit
        assert hist[2] == 2   # 2 and 3
        assert hist[3] == 2   # 4 and 7
        assert hist[4] == 1   # 8

    def test_empty(self):
        assert bit_count_histogram([]).sum() == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bit_count_histogram([-1])

    def test_max_bits_enforced(self):
        with pytest.raises(ValueError):
            bit_count_histogram([1 << 40], max_bits=32)

    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1,
                    max_size=200))
    def test_total_preserved(self, values):
        assert bit_count_histogram(values).sum() == len(values)


class TestTune:
    def test_single_bin(self):
        hist = np.zeros(33, dtype=np.int64)
        hist[5] = 100
        result = tune(hist)
        assert result.boundaries == (5,)

    def test_empty_histogram(self):
        result = tune(np.zeros(33, dtype=np.int64))
        assert result.boundaries == (1,)

    def test_covers_max_bits(self):
        hist = np.zeros(33, dtype=np.int64)
        hist[3] = 1000
        hist[12] = 1
        result = tune(hist)
        assert result.boundaries[-1] == 12

    def test_two_modes_get_two_classes(self):
        hist = np.zeros(33, dtype=np.int64)
        hist[2] = 10_000
        hist[9] = 10_000
        result = tune(hist)
        assert result.boundaries == (2, 9)

    def test_single_class_when_merging_is_cheaper(self):
        # All mass at adjacent widths: one class avoids guide overhead.
        hist = np.zeros(33, dtype=np.int64)
        hist[7] = 500
        hist[8] = 500
        result = tune(hist)
        assert result.boundaries == (8,)

    def test_encoded_size_is_achievable(self):
        rng = np.random.default_rng(0)
        values = (rng.geometric(0.2, 2000) - 1).tolist()
        result = tune_values(values)
        # Re-cost the chosen boundaries by encoding every value.
        _, code_widths, field_widths = result.table.guide_codes(values)
        total = int(code_widths.sum() + field_widths.sum())
        # The tuner's estimate assumes range-based class assignment; the
        # encoder picks the cheapest class, so it can only do better.
        assert total <= result.encoded_bits

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=4000), min_size=1,
                    max_size=300))
    def test_epsilon_never_beats_exhaustive_by_much(self, values):
        hist = bit_count_histogram(values)
        fast = tune(hist)
        best = tune(hist, epsilon=-1.0)      # no early exit
        assert best.encoded_bits <= fast.encoded_bits
        # ε-early-exit loses at most a few percent.
        assert fast.encoded_bits <= best.encoded_bits * 1.10 + 64

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                    max_size=300))
    def test_all_values_representable(self, values):
        result = tune_values(values)
        result.table.classify(sorted(set(values)))  # must not raise

    @settings(max_examples=60, deadline=None)
    # Levels that tie: the strict ``<`` keeps the fewer classes.
    @example(bins={1: 3, 4: 9}, exhaustive=False, max_classes=MAX_CLASSES)
    @example(bins={1: 9, 4: 6, 7: 10}, exhaustive=True,
             max_classes=MAX_CLASSES)
    @given(bins=st.dictionaries(st.integers(1, 32),
                                st.integers(1, 5_000), min_size=1,
                                max_size=28),
           exhaustive=st.booleans(),
           max_classes=st.integers(1, MAX_CLASSES))
    def test_prefix_sums_equal_the_slicing_oracle(self, bins, exhaustive,
                                                  max_classes):
        """Random histograms with up to 28 occupied bins, folded or not
        (mostly not: the fold needs a bin under 1/4096 of the values):
        the same boundaries, ``encoded_bits`` and table as scoring one
        tuple at a time.  Without the ε exit only up to 14 bins, where
        the oracle's walk stays short."""
        hist = np.zeros(33, dtype=np.int64)
        hist[list(bins)] = list(bins.values())
        epsilon = -1.0 if exhaustive and len(bins) <= 14 \
            else DEFAULT_EPSILON
        assert tune(hist, epsilon, max_classes) \
            == reference_tune(hist, epsilon, max_classes)

    def test_large_support_is_pruned_but_valid(self):
        rng = np.random.default_rng(1)
        values = np.concatenate([
            rng.integers(0, 4, 5000),
            rng.integers(0, 2**28, 20)]).tolist()
        result = tune_values(values)
        assert result.boundaries[-1] >= max(values).bit_length()
        result.table.classify(values)       # must not raise
