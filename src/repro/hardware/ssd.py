"""SSD model: channels, NAND geometry, FTL, and SAGe's data layout (§5.3).

The timing side feeds the pipeline simulator (MQSim-class inputs): internal
streaming bandwidth is the per-channel min(sense rate, bus rate) times the
channel count; external reads are additionally capped by the host link.

The functional side models the FTL change SAGe needs: genomic files are
striped round-robin across channels with *equal page offsets in the active
blocks* so multi-plane reads engage every channel.  Non-genomic data uses
the baseline allocation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dram import SSD_INTERNAL_DRAM, DRAMModel
from .interconnect import PCIE_GEN4_X8, SATA3, Link


@dataclass(frozen=True)
class NANDConfig:
    """Per-channel NAND geometry and timing (TLC class)."""

    page_bytes: int = 16384
    pages_per_block: int = 256
    blocks_per_channel: int = 64
    planes: int = 4
    read_latency_s: float = 60e-6          # tR
    channel_bus_bytes_per_s: float = 1.2e9  # ONFI transfer rate

    @property
    def sense_bandwidth(self) -> float:
        """Multi-plane pipelined sensing rate per channel."""
        return self.planes * self.page_bytes / self.read_latency_s

    @property
    def channel_bandwidth(self) -> float:
        """Per-channel streaming read rate."""
        return min(self.sense_bandwidth, self.channel_bus_bytes_per_s)


@dataclass
class SSDModel:
    """Timing model of one SSD."""

    name: str = "pcie-ssd"
    channels: int = 8
    nand: NANDConfig = field(default_factory=NANDConfig)
    external: Link = PCIE_GEN4_X8
    dram: DRAMModel = field(default_factory=lambda: SSD_INTERNAL_DRAM)
    active_power_w: float = 8.5
    idle_power_w: float = 2.0

    @property
    def internal_read_bandwidth(self) -> float:
        """Aggregate NAND streaming bandwidth (NDP sees this)."""
        return self.channels * self.nand.channel_bandwidth

    @property
    def external_read_bandwidth(self) -> float:
        """What the host sees: internal bandwidth capped by the link."""
        return min(self.internal_read_bandwidth,
                   self.external.bandwidth_bytes_per_s)


def pcie_ssd(channels: int = 8) -> SSDModel:
    """Performance-optimized PCIe SSD (PM1735 class)."""
    return SSDModel(name="pcie-ssd", channels=channels,
                    external=PCIE_GEN4_X8)


def sata_ssd(channels: int = 8) -> SSDModel:
    """Cost-optimized SATA SSD (870 EVO class)."""
    return SSDModel(name="sata-ssd", channels=channels, external=SATA3,
                    active_power_w=4.0, idle_power_w=1.2)


# ----------------------------------------------------------------------
# FTL with SAGe's genomic layout
# ----------------------------------------------------------------------


@dataclass
class _Page:
    """One physical page slot."""

    file: str | None = None
    logical_index: int = -1     # stripe/page index within the file
    valid: bool = False


class FTLError(RuntimeError):
    """Raised on allocation failures or layout violations."""


class SAGeFTL:
    """Functional FTL with genomic striping."""

    def __init__(self, channels: int = 8,
                 nand: NANDConfig | None = None):
        self.nand = nand or NANDConfig()
        self.channels = channels
        self.blocks = [[[_Page() for _ in range(self.nand.pages_per_block)]
                        for _ in range(self.nand.blocks_per_channel)]
                       for _ in range(channels)]
        # Shared cursor for genomic stripes: (block, page) aligned across
        # all channels; allocated lazily from free parallel units.
        self._stripe_block: int | None = None
        self._stripe_page = 0
        self._genomic_blocks: set[int] = set()
        self._regular_blocks: set[tuple[int, int]] = set()
        self.files: dict[str, dict] = {}

    # -- allocation ----------------------------------------------------

    def _pages_needed(self, nbytes: int) -> int:
        return max(1, (nbytes + self.nand.page_bytes - 1)
                   // self.nand.page_bytes)

    def _alloc_stripe(self) -> tuple[int, int]:
        """Next aligned (block, page) stripe slot across all channels."""
        if (self._stripe_block is None
                or self._stripe_page >= self.nand.pages_per_block):
            self._stripe_block = self._next_free_genomic_block()
            self._genomic_blocks.add(self._stripe_block)
            self._stripe_page = 0
        slot = (self._stripe_block, self._stripe_page)
        self._stripe_page += 1
        return slot

    def _place(self, name: str, logical: int, channel: int, block: int,
               page: int, placements: list) -> None:
        slot = self.blocks[channel][block][page]
        if slot.valid:
            raise FTLError("allocation collision")
        slot.file = name
        slot.logical_index = logical
        slot.valid = True
        placements.append((channel, block, page))

    def write_genomic(self, name: str, nbytes: int) -> None:
        """Stripe a genomic file across all channels (SAGe_Write path)."""
        if name in self.files:
            raise FTLError(f"file {name!r} already exists")
        n_pages = self._pages_needed(nbytes)
        n_stripes = (n_pages + self.channels - 1) // self.channels
        placements: list[tuple[int, int, int]] = []
        logical = 0
        for _ in range(n_stripes):
            block, page = self._alloc_stripe()
            for channel in range(self.channels):
                if logical >= n_pages:
                    break
                self._place(name, logical, channel, block, page,
                            placements)
                logical += 1
        self.files[name] = {"genomic": True, "bytes": nbytes,
                            "pages": placements}

    def _next_free_genomic_block(self) -> int:
        for block in range(self.nand.blocks_per_channel):
            if block in self._genomic_blocks:
                continue
            if any(self.blocks[ch][block][0].valid
                   for ch in range(self.channels)):
                continue
            if any((ch, block) in self._regular_blocks
                   for ch in range(self.channels)):
                continue
            return block
        raise FTLError("no free parallel unit for genomic data")

    def write_regular(self, name: str, nbytes: int) -> None:
        """Baseline allocation path for non-genomic data."""
        if name in self.files:
            raise FTLError(f"file {name!r} already exists")
        n_pages = self._pages_needed(nbytes)
        placements: list[tuple[int, int, int]] = []
        for logical in range(n_pages):
            channel = logical % self.channels
            placed = False
            for block in range(self.nand.blocks_per_channel):
                if block in self._genomic_blocks:
                    continue
                for page in range(self.nand.pages_per_block):
                    slot = self.blocks[channel][block][page]
                    if not slot.valid:
                        slot.file = name
                        slot.logical_index = logical
                        slot.valid = True
                        self._regular_blocks.add((channel, block))
                        placements.append((channel, block, page))
                        placed = True
                        break
                if placed:
                    break
            if not placed:
                raise FTLError("SSD full")
        self.files[name] = {"genomic": False, "bytes": nbytes,
                            "pages": placements}

    def delete(self, name: str) -> None:
        """Invalidate a file's pages."""
        info = self.files.pop(name, None)
        if info is None:
            raise FTLError(f"no such file {name!r}")
        for channel, block, page in info["pages"]:
            self.blocks[channel][block][page].valid = False

    # -- layout queries --------------------------------------------------

    def placements(self, name: str) -> list[tuple[int, int, int]]:
        """(channel, block, page) placements in logical order."""
        info = self.files[name]
        return sorted(info["pages"],
                      key=lambda p: self._logical_of(p))

    def _logical_of(self, placement: tuple[int, int, int]) -> int:
        channel, block, page = placement
        return self.blocks[channel][block][page].logical_index

    def stripe_aligned(self, name: str) -> bool:
        """§5.3 invariant: each stripe sits at one (block, page) offset
        across consecutive channels starting at channel 0."""
        info = self.files[name]
        if not info["genomic"]:
            return False
        by_logical = sorted(info["pages"], key=self._logical_of)
        for i, (channel, block, page) in enumerate(by_logical):
            stripe, lane = divmod(i, self.channels)
            if channel != lane:
                return False
            ref_channel, ref_block, ref_page = by_logical[
                stripe * self.channels]
            if (block, page) != (ref_block, ref_page):
                return False
        return True

    def channels_used_per_stripe(self, name: str) -> float:
        """Mean channels engaged per stripe (8.0 = full bandwidth)."""
        info = self.files[name]
        n_pages = len(info["pages"])
        n_stripes = (n_pages + self.channels - 1) // self.channels
        return n_pages / max(1, n_stripes)

