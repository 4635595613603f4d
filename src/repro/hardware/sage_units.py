"""Functional + cycle model of SAGe's decompression hardware (§5.2).

Three units per SSD channel: the Scan Unit (SU) walks the position and
guide arrays through 8-bit shift registers; the Read Construction Unit
(RCU) walks the consensus and MBTA, emitting one reconstructed base per
cycle through a 150-bp chunk register; the Control Unit (CU) coordinates
them.  The functional behaviour *is* the software decoder — this model
decodes each block once through :class:`~repro.core.SAGeDecompressor`,
so output equivalence holds by construction.  Cycle counts come from the
bits each unit is charged, which are its streams' stored lengths: the
reference walk consumes every stream in full (pinned by
``test_reference_walk_ends_at_every_stream_end`` in
``tests/test_hardware_units.py``).

Throughput math (§8.2): the units run at 1 GHz and are deliberately
faster than NAND streaming, so end-to-end decompression is bounded by
flash bandwidth; both rates are reported so the pipeline can take the min.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.container import SAGeArchive
from ..core.decompressor import SAGeDecompressor
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

    @property
    def effective_bases_per_s(self) -> float:
        return min(self.unit_bases_per_s, self.nand_bases_per_s)


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
        and the per-block accounting is summed.  Each block is decoded
        once, on the default decode kernel (``numpy``); its units
        are charged the stored length of every stream they walk, which
        is exactly what the reference walk consumes.  A block's parsed
        form is released once it is charged, so a walk over an opened
        archive leaves none behind.
        """
        decoder = SAGeDecompressor(archive)
        # The consensus is stored once and striped to every channel, so
        # its fetch is counted once; each block's RCU still walks it end
        # to end — sequentially, because a block's reads are sorted by
        # matching position (§5.1.3).
        consensus_bits = archive.consensus[1]
        stats = HardwareRunStats(stream_bits={"consensus": consensus_bits})
        blocks: list[ReadSet] = []
        for index in range(archive.n_blocks):
            block = decoder.decompress_block(index)
            bits = {name: archive.block(index).streams[name][1]
                    for name in SU_STREAMS + RCU_STREAMS}
            archive.release_block(index)
            for name, n in bits.items():
                stats.stream_bits[name] = stats.stream_bits.get(name, 0) + n
            # The RCU walks the consensus (2 bits per copied base) as it
            # reconstructs; charge the full output for the register
            # traffic.
            output_bases = int(block.offsets[-1])
            su_cycles = -(-sum(bits[s] for s in SU_STREAMS)
                          // SU_BITS_PER_CYCLE)
            # RCU: scan MBTA/corner through an 8-bit register, emit bases
            # in 150-bp chunk copies (mismatch patches ride on the scan
            # cost).
            rcu_bits = consensus_bits + sum(bits[s] for s in RCU_STREAMS)
            rcu_scan = -(-rcu_bits // SU_BITS_PER_CYCLE)
            rcu_emit = -(-output_bases // READ_REGISTER_BP)
            rcu_cycles = rcu_scan + rcu_emit
            stats.output_bases += output_bases
            stats.n_reads += len(block)
            stats.su_cycles += su_cycles
            stats.rcu_cycles += rcu_cycles
            stats.total_cycles += (max(su_cycles, rcu_cycles)
                                   + CU_CYCLES_PER_READ * len(block))
            blocks.append(block)
        return ReadSet.concat(blocks, name=archive.name), stats

    # ------------------------------------------------------------------
    # Rate model
    # ------------------------------------------------------------------

    def throughput(self, archive: SAGeArchive,
                   stats: HardwareRunStats | None = None,
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
                                  nand_bases_per_s=nand_rate)
