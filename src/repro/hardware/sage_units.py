"""Functional + cycle model of SAGe's decompression hardware (§5.2).

Three units per SSD channel: the Scan Unit (SU) walks the position and
guide arrays through 8-bit shift registers; the Read Construction Unit
(RCU) walks the consensus and MBTA, emitting one reconstructed base per
cycle through a 150-bp chunk register; the Control Unit (CU) coordinates
them.  The functional behaviour *is* the software reference decoder —
this model runs its walk and derives cycle counts from the bits each
stream reader consumed, so output equivalence with
:class:`~repro.core.SAGeDecompressor` holds by construction and is
asserted in tests.

Throughput math (§8.2): the units run at 1 GHz and are deliberately
faster than NAND streaming, so end-to-end decompression is bounded by
flash bandwidth; both rates are reported so the pipeline can take the min.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.bitio import BitReader
from ..core.container import SAGeArchive
from ..core.decompressor import SAGeDecompressor
from ..core.formats import OutputFormat, bits_per_base
from ..genomics.reads import ReadSet
from . import area_power
from .ssd import SSDModel

#: SU consumes up to one 8-bit register refill per cycle per stream.
SU_BITS_PER_CYCLE = 8

#: RCU read register size (base pairs); longer reads go in chunks (§5.2).
#: Consensus copies move through the register a chunk per cycle, which is
#: what makes the units faster than NAND streaming (§8.2).
READ_REGISTER_BP = 150

#: CU hand-off overhead per read (cycles).
CU_CYCLES_PER_READ = 2

#: Block streams scanned by the SU vs consumed by the RCU (which also
#: walks the shared consensus).
SU_STREAMS = ("mpga", "mpa", "mmpga", "mmpa", "lengths", "side")
RCU_STREAMS = ("mbta", "corner", "unmapped")


@dataclass
class HardwareRunStats:
    """Byte/cycle accounting from one decompression run."""

    stream_bits: dict[str, int] = field(default_factory=dict)
    output_bases: int = 0
    n_reads: int = 0
    su_cycles: int = 0
    rcu_cycles: int = 0
    total_cycles: int = 0

    @property
    def compressed_bits(self) -> int:
        return sum(self.stream_bits.values())


@dataclass
class HardwareThroughput:
    """Decompression rates for one configuration."""

    unit_bases_per_s: float        # what the SU/RCU array can sustain
    nand_bases_per_s: float        # what flash streaming can feed
    output_format: OutputFormat

    @property
    def effective_bases_per_s(self) -> float:
        return min(self.unit_bases_per_s, self.nand_bases_per_s)

    @property
    def effective_output_bytes_per_s(self) -> float:
        return self.effective_bases_per_s \
            * bits_per_base(self.output_format) / 8.0


def _first_difference(a: np.ndarray | None,
                      b: np.ndarray | None) -> int | None:
    """Where two equal-length columns first disagree (``None``: they
    are equal; a column only one side has disagrees at 0)."""
    if a is None or b is None:
        return None if a is b else 0
    differing = np.flatnonzero(a != b)
    return int(differing[0]) if differing.size else None


class SAGeHardwareModel:
    """Per-channel SU/RCU/CU array attached to an SSD."""

    def __init__(self, ssd: SSDModel, channels: int | None = None,
                 clock_hz: float = area_power.CLOCK_HZ):
        self.ssd = ssd
        self.channels = channels if channels is not None else ssd.channels
        self.clock_hz = clock_hz

    # ------------------------------------------------------------------
    # Functional run with accounting
    # ------------------------------------------------------------------

    def run(self, archive: SAGeArchive) -> tuple[ReadSet, HardwareRunStats]:
        """Decode an archive, returning reads + cycle/byte accounting.

        Archives decode section by section — each block is an
        independent unit of work for a channel's SU/RCU array (§5.3) —
        and the per-block accounting is summed.  The units *are* the
        bit-serial reference walk: the reads come from the ``python``
        kernel's block decode, and the bits each unit consumed are the
        positions the same walk leaves its stream readers at.
        """
        decoder = SAGeDecompressor(archive, codec="python")
        # The consensus is stored once and striped to every channel, so
        # its fetch is counted once; each block's RCU still walks it end
        # to end — sequentially, because a block's reads are sorted by
        # matching position (§5.1.3).
        consensus_bits = archive.consensus[1]
        stats = HardwareRunStats(stream_bits={"consensus": consensus_bits})
        blocks: list[ReadSet] = []
        for index in range(archive.n_blocks):
            readers = {
                name: BitReader(payload, bits, name=name) for name,
                (payload, bits) in archive.block(index).streams.items()}
            codes = list(decoder.iter_read_codes(readers, index))
            consumed = {name: reader.position
                        for name, reader in readers.items()}
            for name, bits in consumed.items():
                stats.stream_bits[name] = \
                    stats.stream_bits.get(name, 0) + bits
            # The RCU walks the consensus (2 bits per copied base) as it
            # reconstructs; charge the full output for the register
            # traffic.
            output_bases = int(sum(c.size for c in codes))
            su_cycles = -(-sum(consumed[s] for s in SU_STREAMS)
                          // SU_BITS_PER_CYCLE)
            # RCU: scan MBTA/corner through an 8-bit register, emit bases
            # in 150-bp chunk copies (mismatch patches ride on the scan
            # cost).
            rcu_bits = consensus_bits + sum(consumed[s]
                                            for s in RCU_STREAMS)
            rcu_scan = -(-rcu_bits // SU_BITS_PER_CYCLE)
            rcu_emit = -(-output_bases // READ_REGISTER_BP)
            rcu_cycles = rcu_scan + rcu_emit
            stats.output_bases += output_bases
            stats.n_reads += len(codes)
            stats.su_cycles += su_cycles
            stats.rcu_cycles += rcu_cycles
            stats.total_cycles += (max(su_cycles, rcu_cycles)
                                   + CU_CYCLES_PER_READ * len(codes))
            blocks.append(decoder.decompress_block(index))
        return ReadSet.concat(blocks, name=archive.name), stats

    # ------------------------------------------------------------------
    # Validation against the software decoders
    # ------------------------------------------------------------------

    def verify(self, archive, *, options=None) -> bool:
        """Check functional equivalence with the software decode path.

        ``archive`` may be a :class:`SAGeArchive` or the
        :class:`repro.api.SAGeDataset` facade — the software side always
        decodes through the facade (the served path), so the functional
        model and the service API cannot drift.  Runs the
        cycle-accounted hardware decode and the (optionally parallel,
        via ``options=EngineOptions(workers=...)``) streaming software
        decode and compares base codes and quality scores column by
        column, naming the first read that differs.
        Returns ``True`` on success and raises
        :class:`ValueError` on the first mismatch — equivalence is the
        §5.2 contract that the SU/RCU walk *is* the reference decoder.
        """
        # Function-level: only this check sits on the facade, whose
        # engines (pipeline.endtoend) import this package at module level.
        from ..api.dataset import SAGeDataset
        if isinstance(archive, SAGeDataset):
            # Keep the caller's session (its options and cached
            # decoder) unless an explicit override was given.
            dataset = archive if options is None \
                else SAGeDataset(archive.archive, options=options)
        else:
            dataset = SAGeDataset(archive, options=options)
        hw_reads, _ = self.run(dataset.archive)
        sw_reads = dataset.read_set()
        if len(hw_reads) != len(sw_reads):
            raise ValueError(
                f"hardware model decoded {len(hw_reads)} reads, software "
                f"decoder {len(sw_reads)}")
        for what, column in (("base codes", "offsets"),
                             ("base codes", "codes"),
                             ("quality scores", "quality")):
            at = _first_difference(getattr(hw_reads, column),
                                   getattr(sw_reads, column))
            if at is not None:
                # offsets[i + 1] closes read i; flat element -> its read
                read = at - 1 if column == "offsets" else int(
                    np.searchsorted(hw_reads.offsets, at, "right")) - 1
                raise ValueError(f"read {read}: {what} diverge between "
                                 "hardware model and software decoder")
        return True

    # ------------------------------------------------------------------
    # Rate model
    # ------------------------------------------------------------------

    def throughput(self, archive: SAGeArchive,
                   stats: HardwareRunStats | None = None,
                   fmt: OutputFormat = OutputFormat.ASCII,
                   internal: bool = True) -> HardwareThroughput:
        """Sustained decompression rate for this archive's statistics.

        ``internal=True`` models NDP placement (mode 3): flash feeds the
        units at internal bandwidth.  ``internal=False`` models modes 1/2
        where compressed data crosses the external link first.
        """
        if stats is None:
            _, stats = self.run(archive)
        cycles_per_base = max(stats.total_cycles, 1) \
            / max(stats.output_bases, 1)
        per_channel = self.clock_hz / cycles_per_base
        unit_rate = per_channel * self.channels

        nand_bw = (self.ssd.internal_read_bandwidth if internal
                   else self.ssd.external_read_bandwidth)
        compressed_bytes = max(1, stats.compressed_bits // 8)
        bases_per_compressed_byte = stats.output_bases / compressed_bytes
        nand_rate = nand_bw * bases_per_compressed_byte
        return HardwareThroughput(unit_bases_per_s=unit_rate,
                                  nand_bases_per_s=nand_rate,
                                  output_format=fmt)

    def area_mm2(self) -> float:
        """Logic area of the unit array (Table 1)."""
        return area_power.total_area_mm2(self.channels)
