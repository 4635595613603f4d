"""DRAM bandwidth/energy models (Ramulator-class inputs, §7).

Two instances matter: the host's multi-channel DDR4 (where software
decompressors thrash — §3.2 notes they saturate at 32 threads on eight
channels), and the SSD's small, *single-channel* internal DRAM, over 95%
of which holds FTL mapping metadata — which is why SAGe streams flash
data through registers instead of buffering it there (§6 mode 3).
"""

from __future__ import annotations

from dataclasses import dataclass

GIB = float(1 << 30)


@dataclass(frozen=True)
class DRAMModel:
    """A DRAM subsystem: channels × per-channel bandwidth."""

    name: str
    channels: int
    channel_bandwidth_bytes_per_s: float
    capacity_bytes: float
    idle_power_w: float

    @property
    def peak_bandwidth(self) -> float:
        return self.channels * self.channel_bandwidth_bytes_per_s

    def effective_bandwidth(self, random_access: bool = False) -> float:
        """Streaming gets peak; random access a fraction of it."""
        return self.peak_bandwidth * (0.35 if random_access else 0.85)


#: Host memory: 8-channel DDR4-3200 (EPYC 7742 class), 1.5 TB.
HOST_DDR4 = DRAMModel("host DDR4-3200 x8", 8, 25.6e9, 1.5e12, 24.0)

#: SSD-internal DRAM: one LPDDR4 channel, 4 GB for a 4 TB drive, with
#: over 95% holding L2P mapping metadata.
SSD_INTERNAL_DRAM = DRAMModel("SSD internal LPDDR4 x1", 1, 4.26e9,
                              4e9, 0.35)

#: Fraction of SSD DRAM available to anything but mapping metadata.
SSD_DRAM_AVAILABLE_FRACTION = 0.05


def ssd_dram_free_bytes(model: DRAMModel = SSD_INTERNAL_DRAM) -> float:
    """Bytes of SSD DRAM actually available for data buffering."""
    return model.capacity_bytes * SSD_DRAM_AVAILABLE_FRACTION
