"""Tests for the SAGe hardware model, area/power, energy, interconnect."""

import numpy as np
import pytest

from repro.api import EngineOptions
from repro.core import (BlockCompressor, SAGeCompressor, SAGeConfig,
                        SAGeDecompressor)
from repro.core.formats import OutputFormat
from repro.genomics.reads import ReadSet
from repro.hardware import area_power, dram, energy, interconnect
from repro.hardware.sage_units import (RCU_STREAMS, SU_STREAMS,
                                      SAGeHardwareModel)
from repro.hardware.ssd import pcie_ssd, sata_ssd


@pytest.fixture(scope="module")
def archive(rs2_small):
    return SAGeCompressor(rs2_small.reference,
                          SAGeConfig(with_quality=False)) \
        .compress(rs2_small.read_set)


class TestHardwareModel:
    def test_output_identical_to_software(self, archive):
        hw = SAGeHardwareModel(pcie_ssd())
        reads, _ = hw.run(archive)
        sw = SAGeDecompressor(archive).decompress()
        assert len(reads) == len(sw)
        for a, b in zip(reads, sw):
            assert np.array_equal(a.codes, b.codes)

    def test_stats_account_all_stream_bits(self, request):
        # The walk consumes every bit of every stream it reads, and the
        # units are charged exactly that — clip payloads, read as raw
        # bytes, included — on every analog, across blocks.
        hw = SAGeHardwareModel(pcie_ssd())
        for fixture in ("rs2_small", "rs3_small", "rs4_small", "rs5_small"):
            sim = request.getfixturevalue(fixture)
            archive = BlockCompressor(
                sim.reference, SAGeConfig(with_quality=False),
                options=EngineOptions(block_reads=64)) \
                .compress(sim.read_set)
            _, stats = hw.run(archive)
            expected = {"consensus": archive.consensus[1]}
            for index in range(archive.n_blocks):
                streams = archive.block(index).streams
                for name in SU_STREAMS + RCU_STREAMS:
                    expected[name] = expected.get(name, 0) \
                        + streams[name][1]
            assert {name: stats.stream_bits[name] for name in expected} \
                == expected, fixture

    def test_cycle_accounting_positive(self, archive):
        hw = SAGeHardwareModel(pcie_ssd())
        _, stats = hw.run(archive)
        assert stats.su_cycles > 0
        assert stats.rcu_cycles > 0
        assert stats.total_cycles >= max(stats.su_cycles,
                                         stats.rcu_cycles)

    def test_throughput_bounded_by_min(self, archive):
        hw = SAGeHardwareModel(pcie_ssd())
        _, stats = hw.run(archive)
        tp = hw.throughput(archive, stats)
        assert tp.effective_bases_per_s == pytest.approx(
            min(tp.unit_bases_per_s, tp.nand_bases_per_s))

    def test_sata_nand_feed_slower_externally(self, archive):
        hw = SAGeHardwareModel(sata_ssd())
        _, stats = hw.run(archive)
        internal = hw.throughput(archive, stats, internal=True)
        external = hw.throughput(archive, stats, internal=False)
        assert external.nand_bases_per_s < internal.nand_bases_per_s

    def test_packed_output_rate(self, archive):
        hw = SAGeHardwareModel(pcie_ssd())
        _, stats = hw.run(archive)
        ascii_tp = hw.throughput(archive, stats, fmt=OutputFormat.ASCII)
        packed_tp = hw.throughput(archive, stats,
                                  fmt=OutputFormat.TWO_BIT)
        assert packed_tp.effective_output_bytes_per_s \
            == pytest.approx(ascii_tp.effective_output_bytes_per_s / 4)


class TestHardwareVerify:
    @pytest.fixture(scope="class")
    def blocked(self, rs3_small):
        from repro.core import BlockCompressor, SAGeArchive
        archive = BlockCompressor(rs3_small.reference, SAGeConfig(),
                                  options=EngineOptions(block_reads=16)) \
            .compress(rs3_small.read_set)
        return SAGeArchive.from_bytes(archive.to_bytes())

    def test_verify_against_serial_decoder(self, archive):
        assert SAGeHardwareModel(pcie_ssd()).verify(archive)

    def test_verify_against_parallel_decoder(self, blocked):
        """Functional model output == parallel streaming decode."""
        hw = SAGeHardwareModel(pcie_ssd())
        assert hw.verify(blocked, options=EngineOptions(workers=2))

    def test_verify_detects_divergence(self, blocked, rs2_small):
        other = SAGeCompressor(rs2_small.reference,
                               SAGeConfig(with_quality=False)) \
            .compress(rs2_small.read_set)
        hw = SAGeHardwareModel(pcie_ssd())

        class Lying(SAGeHardwareModel):
            def run(self, archive):
                return SAGeHardwareModel.run(hw, other)

        with pytest.raises(ValueError):
            Lying(pcie_ssd()).verify(blocked,
                                     options=EngineOptions(workers=2))

    @pytest.mark.parametrize("column,what", [
        ("codes", "base codes"), ("quality", "quality scores")])
    def test_verify_names_the_first_divergent_read(self, blocked, column,
                                                   what):
        """The compare is over columns and still says which read."""
        hw = SAGeHardwareModel(pcie_ssd())

        class OneWrongElement(SAGeHardwareModel):
            def run(self, archive):
                reads, stats = SAGeHardwareModel.run(hw, archive)
                columns = {"codes": reads.codes, "quality": reads.quality}
                damaged = columns[column].copy()
                damaged[int(reads.offsets[5]) + 2] ^= 1
                columns[column] = damaged
                return ReadSet.from_columns(
                    columns["codes"], reads.offsets, columns["quality"],
                    reads.headers), stats

        with pytest.raises(ValueError, match=f"read 5: {what} diverge"):
            OneWrongElement(pcie_ssd()).verify(blocked)


class TestAreaPower:
    def test_table1_totals(self):
        # Paper: 0.002 mm² and 0.49 mW (+0.28 mW mode 3) at 8 channels.
        assert area_power.total_area_mm2(8) == pytest.approx(0.002328)
        assert area_power.total_power_mw(8) == pytest.approx(0.496)
        extra = area_power.total_power_mw(8, include_mode3=True) \
            - area_power.total_power_mw(8)
        assert extra == pytest.approx(0.28)

    def test_area_fraction_of_cores(self):
        # Paper: 0.7% of the three SSD-controller cores.
        assert area_power.area_fraction_of_ssd_cores() \
            == pytest.approx(0.007, rel=0.05)

    def test_rows_for_harness(self):
        rows = area_power.table1_rows()
        assert len(rows) == 5
        assert rows[-1]["unit"].startswith("Total")

    def test_scales_with_channels(self):
        assert area_power.total_power_mw(16) \
            == pytest.approx(2 * area_power.total_power_mw(8))


class TestEnergyLedger:
    def test_busy_idle_split(self):
        ledger = energy.EnergyLedger(makespan_s=10.0)
        spec = energy.PowerSpec("x", active_w=100.0, idle_w=10.0)
        ledger.charge_component(spec, busy_s=4.0)
        assert ledger.joules["x"] == pytest.approx(4 * 100 + 6 * 10)

    def test_busy_clamped_to_span(self):
        ledger = energy.EnergyLedger(makespan_s=2.0)
        spec = energy.PowerSpec("x", 50.0, 5.0)
        ledger.charge_component(spec, busy_s=10.0)
        assert ledger.joules["x"] == pytest.approx(100.0)

    def test_fixed_and_breakdown(self):
        ledger = energy.EnergyLedger(makespan_s=1.0)
        ledger.charge_fixed("link", 3.0)
        ledger.charge_fixed("link", 1.0)
        assert ledger.total_joules == pytest.approx(4.0)
        assert ledger.breakdown()["link"] == pytest.approx(1.0)


class TestInterconnectAndDram:
    def test_transfer_time(self):
        link = interconnect.Link("t", 1e9)
        assert link.transfer_time(2e9) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            link.transfer_time(-1)

    def test_transfer_energy(self):
        link = interconnect.Link("t", 1e9, energy_pj_per_byte=10.0)
        assert link.transfer_energy(1e9) == pytest.approx(0.01)

    def test_link_ordering(self):
        assert interconnect.SATA3.bandwidth_bytes_per_s \
            < interconnect.PCIE_GEN4_X8.bandwidth_bytes_per_s \
            < interconnect.CXL2_X8.bandwidth_bytes_per_s

    def test_host_dram_is_multichannel(self):
        assert dram.HOST_DDR4.peak_bandwidth \
            == 8 * dram.HOST_DDR4.channel_bandwidth_bytes_per_s

    def test_random_access_penalty(self):
        host = dram.HOST_DDR4
        assert host.effective_bandwidth(random_access=True) \
            < host.effective_bandwidth(random_access=False)

    def test_ssd_dram_mostly_metadata(self):
        free = dram.ssd_dram_free_bytes()
        assert free == pytest.approx(
            0.05 * dram.SSD_INTERNAL_DRAM.capacity_bytes)
