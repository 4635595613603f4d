"""Interconnect models: PCIe, SATA, CXL links (§6 integration modes).

Links carry bytes at an effective bandwidth; the pipeline model charges
transfer time and per-byte energy for every hop between the SSD, SAGe's
hardware, host DRAM, and the analysis accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass

GIB = float(1 << 30)


@dataclass(frozen=True)
class Link:
    """A point-to-point interconnect."""

    name: str
    bandwidth_bytes_per_s: float
    energy_pj_per_byte: float = 20.0

    def transfer_energy(self, nbytes: float) -> float:
        """Joules to move ``nbytes`` across the link."""
        return nbytes * self.energy_pj_per_byte * 1e-12


#: PCIe Gen4 x8 — PM1735-class external interface (~8 GB/s usable read).
PCIE_GEN4_X8 = Link("PCIe 4.0 x8", 8.0 * GIB, 18.0)

#: PCIe Gen3 x4 — mid-range NVMe class.
PCIE_GEN3_X4 = Link("PCIe 3.0 x4", 3.5 * GIB, 20.0)

#: SATA III — 870-EVO-class cost-optimized interface (~560 MB/s).
SATA3 = Link("SATA III", 0.56e9, 35.0)

#: CXL 2.0 x8 — alternative accelerator attach (§6 mode 1).
CXL2_X8 = Link("CXL 2.0 x8", 16.0 * GIB, 12.0)

#: On-chip attach for integration mode 2 (same-die, effectively free).
ON_CHIP = Link("on-chip", 64.0 * GIB, 0.5)
