"""End-to-end system evaluation: prep → (ISF) → analysis (§7, §8.1).

Builds the batched pipeline for each data-preparation configuration,
runs it over a dataset model, and accounts energy per component.  All
stage rates are expressed in *input bases per second* so heterogeneous
stages (compressed I/O, decompression, filtering, link transfer,
mapping) compose directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.container import SAGeArchive
from ..core.options import DEFAULT_BLOCK_READS
from ..hardware import energy as energy_mod
from ..hardware.energy import (BWT_ACC, HOST_CPU, HOST_DRAM, SAGE_LOGIC,
                               EnergyLedger)
from ..hardware.ssd import SSDModel, pcie_ssd
from .accelerators import AnalysisAccelerator, ISFModel, gem
from .configs import PREP_TOOLS, DatasetModel, PrepTool
from .stages import PipelineResult, Stage, simulate_pipeline

#: Bytes per base crossing the host link after in-SSD preparation
#: (2-bit-packed output; SAGe_Read's format parameter, §5.4).
PACKED_OUTPUT_BYTES_PER_BASE = 0.25

#: Host-orchestration share of CPU idle power charged to hardware-prep
#: configurations (the host only queues commands; §7 energy method).
HW_PREP_HOST_IDLE_FRACTION = 0.10


@dataclass
class SystemConfig:
    """The evaluated platform."""

    ssd: SSDModel = field(default_factory=pcie_ssd)
    n_ssd: int = 1
    analysis: AnalysisAccelerator = field(default_factory=gem)

    @property
    def name(self) -> str:
        suffix = f" x{self.n_ssd}" if self.n_ssd > 1 else ""
        return f"{self.ssd.name}{suffix}"


@dataclass
class EndToEndResult:
    """Throughput + energy of one (prep, dataset, system) evaluation."""

    prep: str
    dataset: str
    pipeline: PipelineResult
    energy: EnergyLedger

    @property
    def throughput_bases_per_s(self) -> float:
        return self.pipeline.throughput_units_per_s

    @property
    def makespan_s(self) -> float:
        return self.pipeline.makespan_s

    @property
    def bottleneck(self) -> str:
        return self.pipeline.bottleneck


def _sage_unit_rate(dataset: DatasetModel, system: SystemConfig) -> float:
    """SU/RCU array rate across the system's SSD channels."""
    per_ssd = dataset.sage_unit_bases_per_s \
        * (system.ssd.channels / 8.0)
    return per_ssd * system.n_ssd


def build_stages(prep_name: str, dataset: DatasetModel,
                 system: SystemConfig) -> list[Stage]:
    """Pipeline stages, in input-bases/s, for one configuration."""
    tool = PREP_TOOLS[prep_name]
    ssd = system.ssd
    n = system.n_ssd
    analysis_rate = system.analysis.bases_per_s(dataset.long_reads)
    cbpb = dataset.compressed_bytes_per_base(prep_name)

    if tool.kind in ("software", "ideal"):
        io_rate = n * ssd.external_read_bandwidth / cbpb
        prep_rate = (float("inf") if tool.kind == "ideal"
                     else tool.software_rate(dataset.long_reads))
        return [Stage("io", io_rate),
                Stage("prep", prep_rate),
                Stage("analysis", analysis_rate)]

    if prep_name == "SAGe":
        # Mode 1/2: compressed data crosses the link, host-side units
        # decompress, accelerator consumes.
        io_rate = n * ssd.external_read_bandwidth / cbpb
        unit_rate = _sage_unit_rate(dataset, system)
        return [Stage("io", io_rate),
                Stage("prep", unit_rate),
                Stage("analysis", analysis_rate)]

    if prep_name == "SAGeSSD":
        # Mode 3 without filtering: decompress in-SSD, ship packed
        # output over the link.
        nand_rate = n * ssd.internal_read_bandwidth / cbpb
        unit_rate = _sage_unit_rate(dataset, system)
        link_rate = (n * ssd.external.bandwidth_bytes_per_s
                     / PACKED_OUTPUT_BYTES_PER_BASE)
        return [Stage("io", nand_rate),
                Stage("prep", unit_rate),
                Stage("link", link_rate),
                Stage("analysis", analysis_rate)]

    if prep_name == "SAGeSSD+ISF":
        isf = ISFModel(dataset.isf_filter_fraction)
        surviving = isf.surviving_fraction()
        nand_rate = n * ssd.internal_read_bandwidth / cbpb
        unit_rate = _sage_unit_rate(dataset, system)
        isf_rate = n * isf.bases_per_s(dataset.long_reads)
        link_rate = (n * ssd.external.bandwidth_bytes_per_s
                     / (PACKED_OUTPUT_BYTES_PER_BASE * surviving))
        analysis_eff = analysis_rate / surviving
        return [Stage("io", nand_rate),
                Stage("prep", unit_rate),
                Stage("isf", isf_rate),
                Stage("link", link_rate),
                Stage("analysis", analysis_eff)]

    raise KeyError(f"unknown prep configuration {prep_name!r}")


#: Upper bound on simulated batches: beyond this the pipeline recurrence
#: has long since converged to the bottleneck rate, and simulation cost
#: would scale with archive size for no fidelity gain.
MAX_SIM_BATCHES = 256


def _as_archive(archive) -> SAGeArchive:
    """Accept either a raw archive or the :class:`SAGeDataset` facade.

    The facade is the served path; letting the system model consume it
    directly keeps the functional model and the service API from
    drifting apart.
    """
    if isinstance(archive, SAGeArchive):
        return archive
    return archive.archive


def batches_from_archive(archive) -> int:
    """Pipeline batch count of a real archive: one batch per block.

    The container's independently decodable blocks are exactly the
    units that stream through the I/O → prep → analysis pipeline, so the
    simulator's ``n_batches`` is the archive's block count rather than a
    free parameter.  Accepts a :class:`SAGeArchive` or a
    :class:`repro.api.SAGeDataset`.
    """
    return max(1, min(MAX_SIM_BATCHES, _as_archive(archive).n_blocks))


def batches_for_dataset(dataset: DatasetModel,
                        block_reads: int = DEFAULT_BLOCK_READS) -> int:
    """Batch count a modeled dataset would have once block-compressed.

    Mirrors :func:`batches_from_archive` for paper-scale datasets that
    exist only as models: the read count implied by ``total_bases`` and
    ``mean_read_length``, partitioned into ``block_reads``-sized blocks.
    """
    reads = dataset.total_bases / max(1.0, dataset.mean_read_length)
    return int(max(1, min(MAX_SIM_BATCHES,
                          math.ceil(reads / block_reads))))


def evaluate(prep_name: str, dataset: DatasetModel,
             system: SystemConfig | None = None,
             n_batches: int | None = None, *,
             archive=None) -> EndToEndResult:
    """Run one configuration end to end and account energy.

    ``n_batches`` defaults to the dataset's real block structure: the
    block count of ``archive`` (a :class:`SAGeArchive` or a
    :class:`repro.api.SAGeDataset`) when one is given, otherwise the
    count a block-compressed version of ``dataset`` would have.
    """
    system = system or SystemConfig()
    if n_batches is None:
        n_batches = batches_from_archive(archive) if archive is not None \
            else batches_for_dataset(dataset)
    stages = build_stages(prep_name, dataset, system)
    pipeline = simulate_pipeline(stages, dataset.total_bases, n_batches)
    ledger = _account_energy(prep_name, dataset, system, pipeline)
    return EndToEndResult(prep=prep_name, dataset=dataset.label,
                          pipeline=pipeline, energy=ledger)


def _account_energy(prep_name: str, dataset: DatasetModel,
                    system: SystemConfig,
                    pipeline: PipelineResult) -> EnergyLedger:
    tool: PrepTool = PREP_TOOLS[prep_name]
    ledger = EnergyLedger(makespan_s=pipeline.makespan_s)
    span = pipeline.makespan_s

    io_busy = pipeline.stage("io").busy_s
    ssd_power = energy_mod.PowerSpec(
        "ssd", system.ssd.active_power_w * system.n_ssd,
        system.ssd.idle_power_w * system.n_ssd)
    analysis_busy = pipeline.stage("analysis").busy_s
    try:
        prep_busy = pipeline.stage("prep").busy_s
    except KeyError:
        prep_busy = 0.0

    ledger.charge_component(ssd_power, io_busy)
    ledger.charge_component(system.analysis.power, analysis_busy)

    if tool.kind == "software" or tool.kind == "ideal":
        # Host CPU + DRAM carry decompression (0TimeDec still stages
        # data through the host).
        cpu_busy = prep_busy * max(tool.cpu_threads_fraction, 0.1) \
            if tool.kind == "software" else 0.1 * span
        cpu = energy_mod.PowerSpec("host-cpu",
                                   HOST_CPU.active_w, HOST_CPU.idle_w)
        ledger.charge_component(cpu, cpu_busy)
        ledger.charge_component(HOST_DRAM, prep_busy)
        if prep_name == "(N)SprAC":
            ledger.charge_component(BWT_ACC, prep_busy)
        link_bytes = dataset.total_bases \
            * dataset.compressed_bytes_per_base(prep_name)
        ledger.charge_fixed(
            "link", system.ssd.external.transfer_energy(link_bytes))
    else:
        # Hardware prep: host only orchestrates, but platform DRAM
        # stays powered for the accelerator's staging buffers.
        orchestration = energy_mod.PowerSpec(
            "host-cpu", HOST_CPU.idle_w * HW_PREP_HOST_IDLE_FRACTION,
            HOST_CPU.idle_w * HW_PREP_HOST_IDLE_FRACTION)
        ledger.charge_component(orchestration, span)
        ledger.charge_component(HOST_DRAM, 0.0)
        ledger.charge_component(SAGE_LOGIC, prep_busy)
        if prep_name == "SAGe":
            link_bytes = dataset.total_bases \
                * dataset.compressed_bytes_per_base(prep_name)
        else:
            surviving = 1.0
            if prep_name == "SAGeSSD+ISF":
                surviving = 1.0 - dataset.isf_filter_fraction
            link_bytes = dataset.total_bases * surviving \
                * PACKED_OUTPUT_BYTES_PER_BASE
        ledger.charge_fixed(
            "link", system.ssd.external.transfer_energy(link_bytes))
    return ledger


def speedup_over(prep_name: str, baseline: str, dataset: DatasetModel,
                 system: SystemConfig | None = None) -> float:
    """Throughput ratio of a configuration over a baseline."""
    system = system or SystemConfig()
    a = evaluate(prep_name, dataset, system)
    b = evaluate(baseline, dataset, system)
    return a.throughput_bases_per_s / b.throughput_bases_per_s


def geometric_mean(values: list[float]) -> float:
    """GMean used throughout the paper's figures.

    Small inputs keep the exact running-product result; when the
    product over- or underflows a float (long lists of large/small
    speedups), the mean is accumulated in log space instead.
    """
    values = list(values)
    if not values:
        raise ValueError("need at least one value")
    if any(v < 0 for v in values):
        raise ValueError("geometric mean needs non-negative values")
    if any(v == 0 for v in values):
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    if 0.0 < product < math.inf:
        return product ** (1.0 / len(values))
    return math.exp(math.fsum(math.log(v) for v in values)
                    / len(values))
