"""Spring/NanoSpring analog — genomics-specific baseline compressor.

Same consensus+mismatch front end as the state of the art (§2.2): reorder
reads by matching position, delta-encode, serialize mismatch information
into byte streams, then hand those streams to a *back-end general-purpose
compressor* (our DEFLATE-like coder) — the architecture of Spring [43],
NanoSpring [48], PgRC [50].  The back-end is exactly what SAGe removes:
its decode needs large windows and random accesses, which is what makes
(N)Spring heavy (26 GB working set, 0.7 GB/s class decode — modeled in
``repro.pipeline.configs``).

A read set is mapped in one ``map_batch`` call, and every stream is
written from the :class:`~repro.mapping.mapper.MappedBlock` columns it
returns.

Quality scores use the same codec as SAGe (§5.1.5: "SAGe's quality score
(de)compression is based on the same software used in Spring").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import deflate
from ..core import quality as quality_codec
from ..core.formats import pack_bits
from ..genomics import sequence as seq
from ..genomics.reads import ReadSet, run_index
from ..mapping.alignment import DEL
from ..mapping.mapper import MapperConfig, ReadMapper


def _varints(values) -> bytes:
    """Every value as an LEB128 varint, back to back."""
    values = np.asarray(values, dtype=np.int64).reshape(-1, 1)
    if (values < 0).any():
        raise ValueError("varints are unsigned")
    n_bytes = 1 + ((values >> np.arange(7, 63, 7)) > 0).sum(1, keepdims=True)
    at = np.arange(9)                   # 7-bit groups, least first
    groups = ((values >> 7 * at) & 0x7F) | np.where(at < n_bytes - 1, 0x80, 0)
    return groups[at < n_bytes].astype(np.uint8).tobytes()


@dataclass
class SpringArchive:
    """A Spring-analog compressed read set."""

    streams: dict[str, deflate.DeflateBlob]
    quality: quality_codec.QualityBlob | None
    n_mapped: int
    n_unmapped: int
    fixed_length: int              # 0 => variable lengths
    consensus_length: int
    name: str = ""
    permutation: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))

    def dna_byte_size(self) -> int:
        """Compressed DNA payload size (everything but quality)."""
        return sum(blob.byte_size for blob in self.streams.values()) + 64


class SpringCompressor:
    """Consensus-based compressor with a general-purpose back end."""

    def __init__(self, consensus: np.ndarray, with_quality: bool = True):
        self.consensus = np.asarray(consensus, dtype=np.uint8)
        self.with_quality = with_quality
        self.mapper = ReadMapper(self.consensus, MapperConfig(
            max_segments=1, unmapped_cost_fraction=0.80))

    def compress(self, read_set: ReadSet) -> SpringArchive:
        mapped = self.mapper.map_batch(read_set.codes, read_set.offsets)
        lengths = read_set.read_lengths()
        fixed = read_set.is_fixed_length and len(read_set) > 0
        fixed_length = int(lengths[0]) if fixed else 0

        # One segment per mapped read (max_segments=1): segment i is the
        # i-th mapped row.  Order them by matching position, then row.
        rows = np.flatnonzero(~mapped.unmapped)
        order = np.argsort(mapped.cons_start, kind="stable")
        rows, cons_start = rows[order], mapped.cons_start[order]
        unmapped = np.flatnonzero(mapped.unmapped)
        permutation = np.concatenate([rows, unmapped])

        per_segment = np.bincount(mapped.op_seg, minlength=rows.size)
        n_ops = per_segment[order]
        ops = run_index((np.cumsum(per_segment) - per_segment)[order], n_ops)
        seg, kind, length = (mapped.op_seg[ops], mapped.kind[ops],
                             mapped.length[ops])
        read_pos = mapped.read_pos[ops]
        # An op's position is a delta from its read's previous op.
        first = np.diff(seg, prepend=-1) != 0
        delta = np.where(first, read_pos, np.diff(read_pos, prepend=0))
        # An op carries its read bases (none for a deletion), N as 0.
        n_bases = np.where(kind == DEL, 0, length)
        bases = mapped.oriented(
            np.repeat(mapped.seg_row[seg], n_bases),
            run_index(mapped.read_start[seg] + read_pos, n_bases))
        bases[bases == seq.N_CODE] = 0

        clipped = (mapped.clip_s > 0) | (mapped.clip_e > 0)
        has_n = np.zeros(len(read_set), dtype=bool)
        has_n[np.searchsorted(read_set.offsets,
                              np.flatnonzero(read_set.codes == seq.N_CODE),
                              side="right") - 1] = True
        corner = bytearray()
        for row in rows[(clipped | has_n)[rows]].tolist():
            oriented = mapped.oriented(np.full(lengths[row], row),
                                       np.arange(lengths[row]))
            s_len, e_len = int(mapped.clip_s[row]), int(mapped.clip_e[row])
            if clipped[row]:
                corner += _varints([s_len, e_len])
                corner += pack_bits(np.concatenate(
                    [oriented[:s_len], oriented[oriented.size - e_len:]]), 3)
            if has_n[row]:
                n_at = np.flatnonzero(oriented == seq.N_CODE)
                corner += _varints([n_at.size, *np.diff(n_at, prepend=0)])

        unmapped_stream = bytearray()
        for lo, hi in zip(read_set.offsets[unmapped].tolist(),
                          read_set.offsets[unmapped + 1].tolist()):
            unmapped_stream += _varints([hi - lo])
            unmapped_stream += pack_bits(read_set.codes[lo:hi], 3)

        raw_streams = {
            "consensus": pack_bits(self.consensus, 2),
            "positions": _varints(np.diff(cons_start, prepend=0)),
            "counts": _varints(n_ops),
            "mm_positions": _varints(delta),
            # Each op's kind number (``alignment.SUB`` / ``INS`` / ``DEL``).
            "types": _varints(np.column_stack([kind, length])),
            "bases": bases.tobytes(),
            "lengths": b"" if fixed else _varints(lengths[rows]),
            "flags": (mapped.reverse | 2 * clipped
                      | 4 * has_n)[rows].astype(np.uint8).tobytes(),
            "corner": bytes(corner),
            "unmapped": bytes(unmapped_stream),
        }
        streams = {name: deflate.compress(raw)
                   for name, raw in raw_streams.items()}

        quality = None
        if self.with_quality and read_set.has_quality and len(read_set):
            quality = quality_codec.compress(
                read_set.subset(permutation).quality)

        return SpringArchive(
            streams=streams, quality=quality, n_mapped=int(rows.size),
            n_unmapped=int(unmapped.size), fixed_length=fixed_length,
            consensus_length=int(self.consensus.size),
            name=read_set.name, permutation=permutation)
