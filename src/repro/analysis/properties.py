"""Dataset property analysis — the statistics behind Figs. 7 and 10.

One mapping pass over a read set produces every distribution the paper
uses to motivate its encodings: bit counts of delta-encoded mismatch
positions (Property 1), mismatch counts per read (Property 2), indel
block lengths and the bases they hold (Property 3), and bit counts of
delta-encoded matching positions after reordering (Property 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..core.tuning import bit_count_histogram
from ..genomics.reads import ReadSet, run_index
from ..mapping import DEFAULT_MAPPER, MapperConfig, make_mapper
from ..mapping.alignment import SUB


@dataclass
class PropertyReport:
    """Raw values gathered from one mapping pass."""

    mismatch_pos_deltas: np.ndarray
    mismatch_counts: np.ndarray
    indel_block_lengths: np.ndarray
    matching_pos_deltas: np.ndarray
    n_unmapped: int = 0
    n_chimeric: int = 0
    n_reads: int = 0

    # -- Fig 7(a): bit counts of delta-encoded mismatch positions ------

    def mismatch_pos_bitcount_hist(self, max_bits: int = 32) -> np.ndarray:
        return bit_count_histogram(self.mismatch_pos_deltas, max_bits)

    # -- Fig 7(b): mismatch counts per read ----------------------------

    def mismatch_count_hist(self) -> np.ndarray:
        if self.mismatch_counts.size == 0:
            return np.zeros(1, dtype=np.int64)
        return np.bincount(self.mismatch_counts)

    # -- Fig 7(c): CDF of indel block lengths ---------------------------

    def indel_length_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        lengths = np.sort(self.indel_block_lengths)
        if lengths.size == 0:
            return np.array([1]), np.array([1.0])
        unique, counts = np.unique(lengths, return_counts=True)
        return unique, np.cumsum(counts) / lengths.size

    # -- Fig 7(d): CDF of bases held by blocks of each length -----------

    def indel_bases_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        lengths = np.sort(self.indel_block_lengths)
        if lengths.size == 0:
            return np.array([1]), np.array([1.0])
        unique, counts = np.unique(lengths, return_counts=True)
        bases = unique * counts
        return unique, np.cumsum(bases) / bases.sum()

    # -- Fig 10: bit counts of delta-encoded matching positions ---------

    def matching_pos_bitcount_hist(self, max_bits: int = 32) -> np.ndarray:
        return bit_count_histogram(self.matching_pos_deltas, max_bits)

    def matching_pos_bitcount_fractions(self) -> np.ndarray:
        hist = self.matching_pos_bitcount_hist()
        total = max(1, hist.sum())
        return hist / total


class PropertyAccumulator:
    """The Fig. 7 / Fig. 10 property analysis as a streaming sink.

    Fed one decoded block at a time it produces the same
    :class:`PropertyReport` a whole-dataset pass would; only per-read
    statistics are retained between blocks.  Blocks are mapped on
    :data:`~repro.mapping.batch.DEFAULT_MAPPER`.
    """

    #: Property aggregation maps base codes only (no quality, no
    #: headers); the distributions are order-insensitive.
    requires = ("sequence",)

    def __init__(self, reference: np.ndarray,
                 mapper_config: MapperConfig | None = None):
        self._mapper = make_mapper(DEFAULT_MAPPER, reference, mapper_config)
        self._pos_deltas: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []
        self._indel_lengths: list[np.ndarray] = []
        self._first_positions: list[np.ndarray] = []
        self._n_unmapped = 0
        self._n_chimeric = 0
        self._n_reads = 0

    def consume(self, index: int, block: ReadSet) -> None:
        """Map one block and fold its reads' statistics in."""
        mapped = self._mapper.map_batch(block.codes, block.offsets)
        n = len(mapped)
        self._n_reads += n
        self._n_unmapped += int(mapped.unmapped.sum())
        self._n_chimeric += int(
            (np.bincount(mapped.seg_row, minlength=n) > 1).sum())
        heads = np.diff(mapped.seg_row, prepend=-1) != 0
        self._first_positions.append(mapped.cons_start[heads])
        self._counts.append(np.bincount(mapped.seg_row[mapped.op_seg],
                                        minlength=n)[~mapped.unmapped])
        # Ops read after read, a read's segments by read start; a
        # mismatch position is a delta from the previous one in its
        # segment.
        segments = np.lexsort((mapped.read_start, mapped.seg_row))
        first_op = np.searchsorted(mapped.op_seg, segments)
        ops = run_index(first_op, np.searchsorted(
            mapped.op_seg, segments, "right") - first_op)
        pos = mapped.read_pos[ops]
        opens = np.diff(mapped.op_seg[ops], prepend=-1) != 0
        self._pos_deltas.append(pos - np.where(opens, 0, np.roll(pos, 1)))
        self._indel_lengths.append(
            mapped.length[ops][mapped.kind[ops] != SUB])

    def finish(self) -> PropertyReport:
        """The distributions accumulated so far."""
        return PropertyReport(
            mismatch_pos_deltas=_joined(self._pos_deltas),
            mismatch_counts=_joined(self._counts),
            indel_block_lengths=_joined(self._indel_lengths),
            matching_pos_deltas=np.diff(
                np.sort(_joined(self._first_positions)), prepend=0),
            n_unmapped=self._n_unmapped, n_chimeric=self._n_chimeric,
            n_reads=self._n_reads)


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """Per-block columns as one ``int64`` column, in block order."""
    return np.concatenate([np.empty(0, dtype=np.int64), *parts])


@dataclass
class MappingRateReport:
    """Outcome of a streaming mapping-rate pass."""

    n_reads: int = 0
    n_mapped: int = 0

    @property
    def n_unmapped(self) -> int:
        return self.n_reads - self.n_mapped

    @property
    def mapping_rate(self) -> float:
        return self.n_mapped / max(1, self.n_reads)


class MappingRateSink:
    """Maps every streamed block (on
    :data:`~repro.mapping.batch.DEFAULT_MAPPER`) and tallies the
    mapping rate."""

    #: Maps base codes only: no quality, headers, or order decode — an
    #: aggregate rate is insensitive to read order.
    requires = ("sequence",)

    def __init__(self, reference: np.ndarray,
                 mapper_config: MapperConfig | None = None):
        self._mapper = make_mapper(DEFAULT_MAPPER, reference, mapper_config)
        self._report = MappingRateReport()

    def consume(self, index: int, block: ReadSet) -> None:
        mapped = self._mapper.map_batch(block.codes, block.offsets)
        self._report.n_reads += len(mapped)
        self._report.n_mapped += int((~mapped.unmapped).sum())

    def finish(self) -> MappingRateReport:
        return self._report


def analyze(reads: ReadSet | Iterable[ReadSet], reference: np.ndarray,
            mapper_config: MapperConfig | None = None) -> PropertyReport:
    """Gather the Fig. 7 / Fig. 10 statistics for a read set.

    Accepts either a materialized :class:`ReadSet` or any iterable of
    :class:`ReadSet` blocks (e.g. ``SAGeDataset.blocks()``), which is
    analyzed without ever holding the whole dataset.
    """
    sink = PropertyAccumulator(reference, mapper_config)
    for index, block in enumerate(
            [reads] if isinstance(reads, ReadSet) else reads):
        sink.consume(index, block)
    return sink.finish()
