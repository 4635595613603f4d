"""The SAGe storage device: interface commands over SSD + FTL + units.

Realizes §5.4's two commands end to end against the functional models:

- ``SAGe_Write``: place a compressed archive on the SSD with the striped
  genomic layout (§5.3) and record its FTL metadata.
- ``SAGe_Read``: stream the archive back through the per-channel
  SU/RCU/CU array (§5.2), returning reads *in the requested output
  format* plus a timing estimate (NAND streaming vs unit rate, capped by
  the external link for host-side delivery).

Non-genomic files coexist through the vendor FTL path, untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..core.container import SAGeArchive
from ..core.formats import OutputFormat, bits_per_base, encode_output
from ..genomics.reads import ReadSet
from .sage_units import HardwareRunStats, SAGeHardwareModel
from .ssd import SAGeFTL, SSDModel, pcie_ssd


class DeviceError(RuntimeError):
    """Raised on invalid device commands."""


@dataclass
class ReadCommandResult:
    """Outcome of one ``SAGe_Read`` command."""

    reads: ReadSet
    formatted: list | None
    output_format: OutputFormat
    stats: HardwareRunStats
    nand_time_s: float          # streaming the compressed bytes
    decode_time_s: float        # SU/RCU array time
    delivery_time_s: float      # formatted output over the external link

    @property
    def prepared_time_s(self) -> float:
        """End-to-end preparation latency (stages overlap; max rules)."""
        return max(self.nand_time_s, self.decode_time_s,
                   self.delivery_time_s)


@dataclass
class SAGeDevice:
    """An SSD with SAGe hardware and FTL support."""

    ssd: SSDModel = field(default_factory=pcie_ssd)

    def __post_init__(self) -> None:
        self.ftl = SAGeFTL(channels=self.ssd.channels, nand=self.ssd.nand)
        self.hardware = SAGeHardwareModel(self.ssd)
        self._archives: dict[str, SAGeArchive] = {}

    # ------------------------------------------------------------------
    # SAGe_Write
    # ------------------------------------------------------------------

    def sage_write(self, name: str, archive: SAGeArchive) -> int:
        """Store a compressed read set with the genomic layout.

        Returns the number of bytes written.  The FTL stripes the blob
        across channels at aligned page offsets so later reads engage
        the full internal bandwidth.
        """
        if name in self._archives:
            raise DeviceError(f"genomic file {name!r} already exists")
        blob = archive.to_bytes()
        self.ftl.write_genomic(name, len(blob))
        if not self.ftl.stripe_aligned(name):
            raise DeviceError("layout invariant violated on write")
        self._archives[name] = archive
        return len(blob)

    def write_regular(self, name: str, nbytes: int) -> None:
        """Vendor path for non-genomic data (untouched by SAGe)."""
        self.ftl.write_regular(name, nbytes)

    def delete(self, name: str) -> None:
        """Remove a file; genomic archives free their FTL pages."""
        self.ftl.delete(name)
        self._archives.pop(name, None)

    # ------------------------------------------------------------------
    # SAGe_Read
    # ------------------------------------------------------------------

    def sage_read(self, name: str,
                  fmt: OutputFormat = OutputFormat.ASCII,
                  materialize: bool = True) -> ReadCommandResult:
        """Decompress a stored read set into the requested format."""
        archive = self._archives.get(name)
        if archive is None:
            raise DeviceError(f"no genomic file {name!r}")

        reads, stats = self.hardware.run(archive)
        formatted = None
        if materialize:
            formatted = [encode_output(codes, fmt)
                         for codes in reads.read_codes()]

        compressed_bytes = stats.compressed_bits / 8.0
        nand_time = compressed_bytes / self.ssd.internal_read_bandwidth
        decode_time = stats.total_cycles / (
            self.hardware.clock_hz * self.ssd.channels)
        out_bytes = stats.output_bases * bits_per_base(fmt) / 8.0
        delivery_time = out_bytes / self.ssd.external.bandwidth_bytes_per_s
        return ReadCommandResult(
            reads=reads, formatted=formatted, output_format=fmt,
            stats=stats, nand_time_s=nand_time,
            decode_time_s=decode_time, delivery_time_s=delivery_time)

    def iter_batches(self, name: str,
                     batch_reads: int = 4096) -> Iterator[ReadSet]:
        """Stream decoded reads in batches (the pipeline's unit of work).

        Decompressed batches feed the analysis system directly — they
        are never written back to the SSD (§3.1).
        """
        archive = self._archives.get(name)
        if archive is None:
            raise DeviceError(f"no genomic file {name!r}")
        if batch_reads < 1:
            raise DeviceError(f"batch_reads must be >= 1, got {batch_reads!r}")
        from ..core.decompressor import SAGeDecompressor

        # Decode section by section: the blocks are the SSD's natural
        # streaming unit (§5.3); batches are slices of their columns.
        decoder = SAGeDecompressor(archive)
        pending = ReadSet(name=name)
        for index in range(archive.n_blocks):
            pending = ReadSet.concat(
                [pending, decoder.decompress_block(index, select="sequence")],
                name=name)
            cut = len(pending) - len(pending) % batch_reads
            for lo in range(0, cut, batch_reads):
                yield pending.subset(range(lo, lo + batch_reads))
            pending = pending.subset(range(cut, len(pending)))
        if len(pending):
            yield pending

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def genomic_files(self) -> list[str]:
        return sorted(self._archives)

    def layout_report(self, name: str) -> dict:
        """FTL placement summary for one genomic file."""
        if name not in self._archives:
            raise DeviceError(f"no genomic file {name!r}")
        return {
            "aligned": self.ftl.stripe_aligned(name),
            "channels_per_stripe":
                self.ftl.channels_used_per_stripe(name),
            "pages": len(self.ftl.files[name]["pages"]),
        }
