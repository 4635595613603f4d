"""Read and read-set containers.

A :class:`Read` is one sequenced fragment: DNA codes, optional quality
scores, and a header.  A :class:`ReadSet` is the unit of compression and
analysis throughout the library (the paper's "read set"): the reads of
one block as flat columns, with :class:`Read` objects as views of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import sequence as seq

#: Phred+33 offset used for quality score characters.
PHRED_OFFSET = 33

#: Highest representable Phred score (Illumina-style cap).
MAX_PHRED = 60

#: Score printed (as ``"I"``) for a read without quality scores, as
#: accurate sequencers that skip quality reporting do (§5.1).
PLACEHOLDER_SCORE = ord("I") - PHRED_OFFSET


@dataclass
class Read:
    """A single sequencing read."""

    codes: np.ndarray
    quality: np.ndarray | None = None
    header: str = ""

    def __post_init__(self) -> None:
        self.codes = np.asarray(self.codes, dtype=np.uint8)
        if self.quality is not None:
            self.quality = np.asarray(self.quality, dtype=np.uint8)
            if self.quality.shape != self.codes.shape:
                raise ValueError("quality length must match sequence length")

    def __len__(self) -> int:
        return int(self.codes.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Read):
            return NotImplemented
        if not np.array_equal(self.codes, other.codes):
            return False
        if (self.quality is None) != (other.quality is None):
            return False
        if self.quality is not None and not np.array_equal(
                self.quality, other.quality):
            return False
        return True

    @property
    def text(self) -> str:
        """The read's bases as an upper-case string."""
        return seq.decode(self.codes)

    @property
    def quality_text(self) -> str:
        """The read's quality scores as a Phred+33 string."""
        if self.quality is None:
            raise ValueError("read has no quality scores")
        return (self.quality + PHRED_OFFSET).tobytes().decode("ascii")

    @classmethod
    def from_text(cls, bases: str, quality: str | None = None,
                  header: str = "") -> "Read":
        """Build a read from a base string and optional Phred+33 string."""
        codes = seq.encode(bases)
        qual = None
        if quality is not None:
            raw = np.frombuffer(quality.encode("ascii"), dtype=np.uint8)
            if (raw < PHRED_OFFSET).any():
                raise ValueError("quality string has characters below '!'")
            qual = (raw - PHRED_OFFSET).astype(np.uint8)
        return cls(codes=codes, quality=qual, header=header)

    def reverse_complement(self) -> "Read":
        """Reverse-complemented copy (quality reversed alongside)."""
        qual = None if self.quality is None else self.quality[::-1].copy()
        return Read(seq.reverse_complement(self.codes), qual, self.header)


def run_index(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat index of every element of the runs
    ``starts[i] : starts[i] + lengths[i]``, run after run."""
    ends = np.cumsum(lengths)
    index = np.arange(ends[-1] if ends.size else 0)
    index += np.repeat(starts - (ends - lengths), lengths)
    return index


class ReadSet:
    """An ordered collection of reads, held as columns — the unit of
    (de)compression.

    Read ``i`` owns ``codes[offsets[i]:offsets[i + 1]]`` and the same
    slice of ``quality``, and is named ``headers[i]``.  The columns are
    the set: what a block decode produces, what crosses a process
    boundary, what the decoded-block cache holds, what the FASTQ
    renderer reads and what a sink consumes.  ``ReadSet(reads, name=)``
    packs a list once; :attr:`reads`, iteration and indexing hand out
    :class:`Read` views of the columns, built on first use.

    Scores: ``quality`` exists when any read carries at least one
    score and is ``None`` otherwise.  In a set that has it, a read
    without scores takes :data:`PLACEHOLDER_SCORE` (what FASTQ prints
    for it) and a zero-length read owns a zero-length slice.
    """

    def __init__(self, reads: "Iterable[Read] | None" = None,
                 name: str = "") -> None:
        reads = list(reads or ())
        self._assign(*_join([r.codes for r in reads],
                            [r.quality for r in reads],
                            [r.codes.size for r in reads],
                            [r.header for r in reads]), name)

    def _assign(self, codes: np.ndarray, offsets: np.ndarray,
                quality: np.ndarray | None, headers: "list[str]",
                name: str) -> None:
        self.name = name
        self.codes = codes            # flat uint8, offsets[-1] long
        self.offsets = offsets        # int64, len + 1, offsets[0] == 0
        self.quality = quality if quality is not None and quality.size \
            else None                 # flat uint8, aligned with codes
        self.headers = headers
        self._views: "list[Read] | None" = None

    @classmethod
    def from_columns(cls, codes: np.ndarray, offsets: np.ndarray,
                     quality: np.ndarray | None, headers: "list[str]",
                     name: str = "") -> "ReadSet":
        """A set over columns a decoder already holds (not copied)."""
        self = cls.__new__(cls)
        self._assign(codes, offsets, quality, headers, name)
        return self

    @classmethod
    def concat(cls, sets: "Iterable[ReadSet]", name: str = "") -> "ReadSet":
        """One set holding the reads of ``sets`` in order (copied),
        named ``name`` or else as the first of them."""
        sets = list(sets)
        return cls.from_columns(
            *_join([s.codes for s in sets], [s.quality for s in sets],
                   np.concatenate([s.read_lengths() for s in sets] or [[]]),
                   [h for s in sets for h in s.headers]),
            name or (sets[0].name if sets else ""))

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_views": None}    # views stay home

    def __repr__(self) -> str:
        return f"ReadSet(name={self.name!r}, n_reads={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReadSet):
            return NotImplemented
        return self.name == other.name and self.reads == other.reads

    @property
    def reads(self) -> "list[Read]":
        """One :class:`Read` per row; its arrays are views of the
        columns."""
        views = self._views
        if views is None:
            bounds = self.offsets.tolist()
            spans = list(zip(bounds, bounds[1:]))
            codes, quality = self.codes, self.quality
            qualities = [None] * len(spans) if quality is None \
                else [quality[s:e] for s, e in spans]
            # Built locally and assigned once: a thread racing this one
            # on a cached block sees None or a complete list.
            views = self._views = [
                Read(codes[s:e], q, h)
                for (s, e), q, h in zip(spans, qualities, self.headers)]
        return views

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __iter__(self) -> Iterator[Read]:
        return iter(self.reads)

    def __getitem__(self, idx: int) -> Read:
        return self.reads[idx]

    @property
    def has_quality(self) -> bool:
        """True when the set has a ``quality`` column."""
        return self.quality is not None

    @property
    def nbytes(self) -> int:
        """Resident bytes of the columns, header text included."""
        quality = 0 if self.quality is None else self.quality.nbytes
        return (self.codes.nbytes + self.offsets.nbytes + quality
                + sum(map(len, self.headers)))

    @property
    def total_bases(self) -> int:
        """Total number of bases across all reads."""
        return int(self.offsets[-1])

    @property
    def is_fixed_length(self) -> bool:
        """True when all reads share one length (typical short-read sets)."""
        lengths = self.read_lengths()
        return bool((lengths == lengths[:1]).all())

    def read_lengths(self) -> np.ndarray:
        """Array of per-read lengths."""
        return np.diff(self.offsets)

    def read_codes(self) -> "list[np.ndarray]":
        """Per-read views of the ``codes`` column — what a mapper's
        ``map_batch`` takes.  No :class:`Read` is built."""
        bounds = self.offsets.tolist()
        return [self.codes[s:e] for s, e in zip(bounds, bounds[1:])]

    def uncompressed_dna_bytes(self) -> int:
        """Size of the DNA payload stored as 1 ASCII byte per base."""
        return self.total_bases

    def uncompressed_fastq_bytes(self) -> int:
        """Approximate FASTQ size: header + bases + separator + qualities."""
        # '@' header '\n' bases '\n' '+' '\n' scores '\n'
        return (sum(len(header) or 1 for header in self.headers)
                + 6 * len(self) + 2 * self.total_bases)

    def subset(self, indices: Iterable[int]) -> "ReadSet":
        """New read set of the selected reads: a contiguous ``range``
        is a view of this set's columns, anything else a gather."""
        if isinstance(indices, range) and indices.step == 1 \
                and 0 <= indices.start <= indices.stop <= len(self):
            lo, hi = indices.start, indices.stop
            start, stop = int(self.offsets[lo]), int(self.offsets[hi])
            quality = None if self.quality is None \
                else self.quality[start:stop]
            return ReadSet.from_columns(
                self.codes[start:stop], self.offsets[lo:hi + 1] - start,
                quality, self.headers[lo:hi], self.name)
        if not isinstance(indices, np.ndarray):
            indices = np.array(list(indices), dtype=np.int64)
        picks = np.arange(len(self))[indices]       # bounds, negatives
        lengths = self.read_lengths()[picks]
        offsets = np.zeros(picks.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        source = run_index(self.offsets[picks], lengths)
        quality = None if self.quality is None else self.quality[source]
        return ReadSet.from_columns(
            self.codes[source], offsets, quality,
            [self.headers[i] for i in picks.tolist()], self.name)


def _join(codes: list, quality: list, lengths,
          headers: "list[str]") -> tuple:
    """Concatenate column parts into ``(codes, offsets, quality,
    headers)`` under :class:`ReadSet`'s rule for scores."""
    offsets = np.zeros(len(headers) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(np.asarray(lengths, dtype=np.int64))
    scores = None
    if any(part is not None and part.size for part in quality):
        scores = np.concatenate([
            np.full(bases.size, PLACEHOLDER_SCORE, dtype=np.uint8)
            if part is None else part
            for bases, part in zip(codes, quality)])
    flat = np.concatenate(codes) if codes else np.empty(0, dtype=np.uint8)
    return flat, offsets, scores, headers
