"""Data-preparation configurations and calibration constants (§7).

Every number here is a *model input*, named and sourced, exactly as the
paper feeds measured component latencies/throughputs into its simulator:

- software decompressor rates are best-thread-count, output-bases/s class
  numbers (Table 3: Spring-class decode is 0.7 GB/s and saturates at 32
  threads on eight DDR4 channels; pigz decode is serial-ish);
- (N)SprAC idealizes away the BWT stage of (N)Spring (§7), modeled as a
  1.3× decode-rate uplift;
- SAGeSW is SAGe's algorithm on the host CPU (§8.1: ~2.3× over (N)Spr
  end to end, up to 4× slower than SAGe hardware);
- the SAGe hardware rate of the end-to-end model is a constant too,
  :attr:`DatasetModel.sage_unit_bases_per_s` (the SU/RCU array of one
  8-channel SSD), scaled by channel and SSD count in
  :func:`repro.pipeline.endtoend._sage_unit_rate`; the unit model's own
  :meth:`repro.hardware.sage_units.SAGeHardwareModel.throughput`, run
  on a real archive, feeds only the Table 3 comparison.

Working-set sizes drive the resource-requirements comparison (Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..genomics.datasets import DatasetSpec, dataset_specs

GB = 1e9

#: FASTQ bytes per base (header + bases + '+' + quality, ~100 bp reads).
FASTQ_BYTES_PER_BASE = 2.27


@dataclass(frozen=True)
class PrepTool:
    """A data-preparation configuration."""

    name: str
    kind: str                        # 'software' | 'hardware' | 'ideal'
    short_bases_per_s: float = 0.0   # software decode rate, short reads
    long_bases_per_s: float = 0.0    # software decode rate, long reads
    reads_quality: bool = False      # must fetch+decode quality streams
    working_set_bytes: float = 0.0   # decode working set (Table 3)
    cpu_threads_fraction: float = 0.0  # share of the 128-core host busy

    def software_rate(self, long_reads: bool) -> float:
        """Decode rate at the best-performing thread count (§7)."""
        if self.kind == "ideal":
            return float("inf")
        if self.kind != "software":
            raise ValueError(f"{self.name} has no software rate")
        return self.long_bases_per_s if long_reads \
            else self.short_bases_per_s


#: pigz: block-parallel compress, serial-dominated decode; must decode
#: the full FASTQ text (bases + quality interleaved).
PIGZ = PrepTool("pigz", "software", short_bases_per_s=0.35 * GB,
                long_bases_per_s=0.35 * GB, reads_quality=True,
                working_set_bytes=0.5 * GB, cpu_threads_fraction=0.15)

#: Spring / NanoSpring: 0.7 GB/s-class decode, 26 GB working set,
#: random-access heavy (saturates at 32 threads / 8 DRAM channels).
NSPR = PrepTool("(N)Spr", "software", short_bases_per_s=1.2 * GB,
                long_bases_per_s=0.8 * GB, working_set_bytes=26 * GB,
                cpu_threads_fraction=0.50)

#: (N)Spring with an idealized BWT accelerator (§7 baseline iii).
NSPRAC = PrepTool("(N)SprAC", "software", short_bases_per_s=1.56 * GB,
                  long_bases_per_s=1.04 * GB, working_set_bytes=26 * GB,
                  cpu_threads_fraction=0.40)

#: SAGe's algorithm in software on the host (§8.1 SAGeSW).
SAGESW = PrepTool("SAGeSW", "software", short_bases_per_s=2.6 * GB,
                  long_bases_per_s=1.7 * GB, working_set_bytes=0.2 * GB,
                  cpu_threads_fraction=0.30)

#: Idealized zero-time decompressor (§7 baseline iv).
ZERO_TIME = PrepTool("0TimeDec", "ideal")

#: SAGe hardware paths; rates come from the hardware model.
SAGE_HW = PrepTool("SAGe", "hardware", working_set_bytes=128.0)
SAGE_SSD = PrepTool("SAGeSSD", "hardware", working_set_bytes=128.0)
SAGE_SSD_ISF = PrepTool("SAGeSSD+ISF", "hardware", working_set_bytes=128.0)

PREP_TOOLS = {tool.name: tool for tool in
              (PIGZ, NSPR, NSPRAC, SAGESW, ZERO_TIME, SAGE_HW, SAGE_SSD,
               SAGE_SSD_ISF)}

#: Canonical plotting order for Fig. 13-style tables.
PREP_ORDER = ("pigz", "(N)Spr", "(N)SprAC", "0TimeDec", "SAGeSW", "SAGe",
              "SAGeSSD", "SAGeSSD+ISF")


@dataclass
class DatasetModel:
    """Modeled quantities of one read set for the system simulator.

    Compression ratios may come from the paper's Table 2 (to reproduce
    at the paper's scale) or from measured archives of the synthetic
    analogs (the honest reproduction path used by the benchmarks).
    """

    label: str
    long_reads: bool
    total_bases: float
    mean_read_length: float
    dna_cr: dict[str, float] = field(default_factory=dict)
    qual_cr: dict[str, float] = field(default_factory=dict)
    isf_filter_fraction: float = 0.3
    sage_unit_bases_per_s: float = 50e9   # SU/RCU array rate (8 channels)

    def cr(self, tool: str) -> float:
        """DNA compression ratio for a prep tool."""
        key = _CR_KEY.get(tool, tool)
        if key not in self.dna_cr:
            raise KeyError(f"no CR for {tool!r} on {self.label}")
        return self.dna_cr[key]

    def compressed_bytes_per_base(self, tool_name: str) -> float:
        """Compressed bytes fetched from storage per input base."""
        tool = PREP_TOOLS[tool_name]
        dna = 1.0 / self.cr(tool_name)
        if tool.reads_quality:
            qual_cr = self.qual_cr.get(_CR_KEY.get(tool_name, tool_name),
                                       self.qual_cr.get("pigz", 2.0))
            return dna + 1.0 / qual_cr
        return dna


#: Which measured archive each tool's storage footprint comes from.
_CR_KEY = {"pigz": "pigz", "(N)Spr": "spring", "(N)SprAC": "spring",
           "0TimeDec": "spring", "SAGeSW": "sage", "SAGe": "sage",
           "SAGeSSD": "sage", "SAGeSSD+ISF": "sage"}


def dataset_from_paper(label: str) -> DatasetModel:
    """Build a DatasetModel from the paper's Table 2 numbers."""
    spec: DatasetSpec = dataset_specs()[label]
    paper = spec.paper
    total_bytes = paper.uncompressed_mb * 1e6
    total_bases = total_bytes / FASTQ_BYTES_PER_BASE
    return DatasetModel(
        label=label, long_reads=spec.kind == "long",
        total_bases=total_bases,
        mean_read_length=spec.profile.read_length,
        dna_cr={"pigz": paper.pigz_dna, "spring": paper.spring_dna,
                "sage": paper.sage_dna},
        qual_cr={"pigz": paper.pigz_qual, "spring": paper.spring_qual,
                 "sage": paper.sage_qual},
        isf_filter_fraction=spec.isf_filter_fraction)


def paper_dataset_models() -> dict[str, DatasetModel]:
    """All five RS models at paper scale."""
    return {label: dataset_from_paper(label)
            for label in ("RS1", "RS2", "RS3", "RS4", "RS5")}
