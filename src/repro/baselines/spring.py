"""Spring/NanoSpring analog — genomics-specific baseline compressor.

Same consensus+mismatch front end as the state of the art (§2.2): reorder
reads by matching position, delta-encode, serialize mismatch information
into byte streams, then hand those streams to a *back-end general-purpose
compressor* (our DEFLATE-like coder) — the architecture of Spring [43],
NanoSpring [48], PgRC [50].  The back-end is exactly what SAGe removes:
its decode needs large windows and random accesses, which is what makes
(N)Spring heavy (26 GB working set, 0.7 GB/s class decode — modeled in
``repro.pipeline.configs``).

Quality scores use the same codec as SAGe (§5.1.5: "SAGe's quality score
(de)compression is based on the same software used in Spring").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import deflate
from ..core import quality as quality_codec
from ..core.formats import pack_bits, unpack_bits
from ..genomics import sequence as seq
from ..genomics.reads import Read, ReadSet
from ..mapping.alignment import DEL, INS, SUB
from ..mapping.mapper import MapperConfig, ReadMapper

_TYPE_CHAR = {SUB: 0, INS: 1, DEL: 2}
_KIND_FROM_CHAR = {0: SUB, 1: INS, 2: DEL}


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


class _VarintReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self) -> int:
        shift = 0
        value = 0
        while True:
            byte = self.data[self.pos]
            self.pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7


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

    def byte_size(self) -> int:
        total = self.dna_byte_size()
        if self.quality is not None:
            total += self.quality.byte_size
        return total


class SpringCompressor:
    """Consensus-based compressor with a general-purpose back end."""

    def __init__(self, consensus: np.ndarray, with_quality: bool = True,
                 mapper: MapperConfig | None = None):
        self.consensus = np.asarray(consensus, dtype=np.uint8)
        self.with_quality = with_quality
        mapper_cfg = mapper or MapperConfig()
        mapper_cfg.max_segments = 1
        mapper_cfg.unmapped_cost_fraction = 0.80
        self.mapper = ReadMapper(self.consensus, mapper_cfg)

    def compress(self, read_set: ReadSet) -> SpringArchive:
        fixed = read_set.is_fixed_length and len(read_set) > 0
        fixed_length = len(read_set[0]) if fixed else 0

        mapped: list[tuple[int, int, object, np.ndarray]] = []
        unmapped: list[int] = []
        for idx, read in enumerate(read_set):
            mapping = self.mapper.map_read(read.codes)
            if mapping.unmapped:
                unmapped.append(idx)
            else:
                oriented = (seq.reverse_complement(read.codes)
                            if mapping.reverse else read.codes)
                mapped.append((mapping.segments[0].cons_start, idx,
                               mapping, oriented))
        mapped.sort(key=lambda item: (item[0], item[1]))
        permutation = [idx for _, idx, _, _ in mapped] + unmapped

        positions = bytearray()
        counts = bytearray()
        mm_positions = bytearray()
        types = bytearray()
        bases = bytearray()
        lengths = bytearray()
        flags = bytearray()          # rev + corner-ish info per read
        corner = bytearray()
        unmapped_stream = bytearray()

        prev_cons = 0
        for cons_start, idx, mapping, oriented in mapped:
            read = read_set[idx]
            _write_varint(positions, cons_start - prev_cons)
            prev_cons = cons_start
            if not fixed:
                _write_varint(lengths, len(read))
            segment = mapping.segments[0]
            flags.append((1 if mapping.reverse else 0)
                         | (2 if mapping.clip_start.size
                            or mapping.clip_end.size else 0)
                         | (4 if seq.contains_n(oriented) else 0))
            self._encode_corner(mapping, oriented, corner)
            _write_varint(counts, len(segment.ops))
            prev_pos = 0
            for op in segment.ops:
                _write_varint(mm_positions, op.read_pos - prev_pos)
                prev_pos = op.read_pos
                types.append(_TYPE_CHAR[op.kind])
                _write_varint(types, op.length)
                clean = op.bases.copy()
                clean[clean == seq.N_CODE] = 0
                bases.extend(int(b) for b in clean)

        for idx in unmapped:
            read = read_set[idx]
            _write_varint(unmapped_stream, len(read))
            unmapped_stream.extend(pack_bits(read.codes, 3))

        consensus_packed = pack_bits(self.consensus, 2)
        raw_streams = {
            "consensus": bytes(consensus_packed),
            "positions": bytes(positions), "counts": bytes(counts),
            "mm_positions": bytes(mm_positions), "types": bytes(types),
            "bases": bytes(bases), "lengths": bytes(lengths),
            "flags": bytes(flags), "corner": bytes(corner),
            "unmapped": bytes(unmapped_stream),
        }
        streams = {name: deflate.compress(raw)
                   for name, raw in raw_streams.items()}

        quality = None
        if self.with_quality and read_set.has_quality and len(read_set):
            scores = np.concatenate(
                [read_set[i].quality for i in permutation])
            quality = quality_codec.compress(scores)

        return SpringArchive(
            streams=streams, quality=quality, n_mapped=len(mapped),
            n_unmapped=len(unmapped), fixed_length=fixed_length,
            consensus_length=int(self.consensus.size),
            name=read_set.name,
            permutation=np.array(permutation, dtype=np.int64))

    @staticmethod
    def _encode_corner(mapping, oriented: np.ndarray,
                       corner: bytearray) -> None:
        if mapping.clip_start.size or mapping.clip_end.size:
            _write_varint(corner, int(mapping.clip_start.size))
            _write_varint(corner, int(mapping.clip_end.size))
            clip = np.concatenate([mapping.clip_start, mapping.clip_end])
            corner.extend(pack_bits(clip, 3))
        if seq.contains_n(oriented):
            n_positions = np.nonzero(oriented == seq.N_CODE)[0]
            _write_varint(corner, int(n_positions.size))
            prev = 0
            for pos in n_positions:
                _write_varint(corner, int(pos) - prev)
                prev = int(pos)


class SpringDecompressor:
    """Functional decompression of a Spring-analog archive."""

    def __init__(self, archive: SpringArchive):
        self.archive = archive
        raw = {name: deflate.decompress(blob)
               for name, blob in archive.streams.items()}
        self.consensus = unpack_bits(raw["consensus"], 2,
                                     archive.consensus_length)
        self.raw = raw

    def decompress(self) -> ReadSet:
        arch = self.archive
        cons = self.consensus
        positions = _VarintReader(self.raw["positions"])
        counts = _VarintReader(self.raw["counts"])
        mm_positions = _VarintReader(self.raw["mm_positions"])
        types = _VarintReader(self.raw["types"])
        bases = self.raw["bases"]
        lengths = _VarintReader(self.raw["lengths"])
        flags = self.raw["flags"]
        corner = _VarintReader(self.raw["corner"])
        unmapped = _VarintReader(self.raw["unmapped"])

        reads: list[np.ndarray] = []
        base_pos = 0
        prev_cons = 0
        for i in range(arch.n_mapped):
            length = arch.fixed_length or lengths.read()
            prev_cons += positions.read()
            flag = flags[i]
            reverse = bool(flag & 1)
            has_clip = bool(flag & 2)
            has_n = bool(flag & 4)
            clip_s = clip_e = np.empty(0, dtype=np.uint8)
            if has_clip:
                len_s = corner.read()
                len_e = corner.read()
                total = len_s + len_e
                nbytes = (3 * total + 7) // 8
                payload = corner.data[corner.pos:corner.pos + nbytes]
                corner.pos += nbytes
                clip = unpack_bits(payload, 3, total)
                clip_s, clip_e = clip[:len_s], clip[len_s:]
            core_len = length - int(clip_s.size) - int(clip_e.size)

            count = counts.read()
            out = np.empty(core_len, dtype=np.uint8)
            read_ptr = 0
            q = prev_cons
            pos = 0
            for _ in range(count):
                pos += mm_positions.read()
                gap = pos - read_ptr
                out[read_ptr:pos] = cons[q:q + gap]
                q += gap
                read_ptr = pos
                kind = _KIND_FROM_CHAR[types.read()]
                block = types.read()
                if kind == SUB:
                    out[read_ptr] = bases[base_pos]
                    base_pos += 1
                    read_ptr += 1
                    q += 1
                elif kind == INS:
                    out[read_ptr:read_ptr + block] = \
                        np.frombuffer(bases[base_pos:base_pos + block],
                                      dtype=np.uint8)
                    base_pos += block
                    read_ptr += block
                else:
                    q += block
            tail = core_len - read_ptr
            out[read_ptr:] = cons[q:q + tail]

            oriented = np.concatenate([clip_s, out, clip_e])
            if has_n:
                n_count = corner.read()
                prev = 0
                for _ in range(n_count):
                    prev += corner.read()
                    oriented[prev] = seq.N_CODE
            codes = seq.reverse_complement(oriented) if reverse \
                else oriented
            reads.append(codes.astype(np.uint8))

        for _ in range(arch.n_unmapped):
            length = unmapped.read()
            nbytes = (3 * length + 7) // 8
            payload = unmapped.data[unmapped.pos:unmapped.pos + nbytes]
            unmapped.pos += nbytes
            reads.append(unpack_bits(payload, 3, length))

        qualities: list[np.ndarray | None] = [None] * len(reads)
        if arch.quality is not None:
            scores = quality_codec.decompress(arch.quality)
            offset = 0
            for i, codes in enumerate(reads):
                qualities[i] = scores[offset:offset + codes.size] \
                    .astype(np.uint8)
                offset += codes.size
        name = arch.name or "spring"
        return ReadSet([Read(c, qualities[i], header=f"{name}.{i}")
                        for i, c in enumerate(reads)], name=name)
