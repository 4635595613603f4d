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

from ..core.options import EngineOptions
from ..core.tuning import bit_count_histogram
from ..genomics.reads import ReadSet
from ..mapping import MapperConfig, make_mapper
from ..mapping.alignment import DEL, INS


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
    statistics are retained between blocks.  ``options`` is the session
    whose mapper kernel maps the blocks (``None``: ``"auto"``).
    """

    #: Property aggregation maps base codes only (no quality, no
    #: headers); the distributions are order-insensitive.
    requires = ("sequence",)

    def __init__(self, reference: np.ndarray,
                 mapper_config: MapperConfig | None = None, *,
                 options: EngineOptions | None = None):
        self._mapper = make_mapper(options.mapper if options else None,
                                   reference, mapper_config)
        self._pos_deltas: list[int] = []
        self._counts: list[int] = []
        self._indel_lengths: list[int] = []
        self._first_positions: list[int] = []
        self._n_unmapped = 0
        self._n_chimeric = 0
        self._n_reads = 0

    def consume(self, index: int, block: ReadSet) -> None:
        """Map one block and fold its reads' statistics in."""
        self._n_reads += len(block)
        for mapping in self._mapper.map_batch(block.read_codes()):
            if mapping.unmapped:
                self._n_unmapped += 1
                continue
            if mapping.is_chimeric:
                self._n_chimeric += 1
            self._first_positions.append(mapping.segments[0].cons_start)
            n_mismatches = 0
            for segment in sorted(mapping.segments,
                                  key=lambda s: s.read_start):
                prev = 0
                for op in segment.ops:
                    n_mismatches += 1
                    self._pos_deltas.append(op.read_pos - prev)
                    prev = op.read_pos
                    if op.kind in (INS, DEL):
                        self._indel_lengths.append(op.length)
            self._counts.append(n_mismatches)

    def finish(self) -> PropertyReport:
        """The distributions accumulated so far."""
        first_positions = sorted(self._first_positions)
        deltas = np.diff(np.array([0] + first_positions, dtype=np.int64))
        return PropertyReport(
            mismatch_pos_deltas=np.array(self._pos_deltas,
                                         dtype=np.int64),
            mismatch_counts=np.array(self._counts, dtype=np.int64),
            indel_block_lengths=np.array(self._indel_lengths,
                                         dtype=np.int64),
            matching_pos_deltas=deltas, n_unmapped=self._n_unmapped,
            n_chimeric=self._n_chimeric, n_reads=self._n_reads)


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
    """Maps every streamed block and tallies the mapping rate."""

    #: Maps base codes only: no quality, headers, or order decode — an
    #: aggregate rate is insensitive to read order.
    requires = ("sequence",)

    def __init__(self, reference: np.ndarray,
                 mapper_config: MapperConfig | None = None, *,
                 options: EngineOptions | None = None):
        self._mapper = make_mapper(options.mapper if options else None,
                                   reference, mapper_config)
        self._report = MappingRateReport()

    def consume(self, index: int, block: ReadSet) -> None:
        mappings = self._mapper.map_batch(block.read_codes())
        self._report.n_reads += len(mappings)
        self._report.n_mapped += sum(not m.unmapped for m in mappings)

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
