"""Tests for the SAGe hardware model, area/power, energy, interconnect."""

import itertools

import pytest

import repro.core.decompressor as decompressor_module
from repro.api import EngineOptions, SAGeDataset
from repro.core import (OptLevel, SAGeArchive, SAGeCompressor,
                        SAGeConfig, SAGeDecompressor)
from repro.core.bitio import BitReader
from repro.core.formats import OutputFormat
from repro.hardware import area_power, dram, energy, interconnect
from repro.hardware.device import SAGeDevice
from repro.hardware.sage_units import (RCU_STREAMS, SU_STREAMS,
                                      SAGeHardwareModel)
from repro.hardware.ssd import pcie_ssd, sata_ssd
from tests.conftest import assert_same_columns

ANALOGS = ("rs2_small", "rs3_small", "rs4_small", "rs5_small")


@pytest.fixture(scope="module")
def archive(rs2_small):
    return SAGeCompressor(rs2_small.reference,
                          SAGeConfig(with_quality=False)) \
        .compress(rs2_small.read_set)


class TestHardwareModel:
    def test_output_identical_to_software(self, archive):
        hw = SAGeHardwareModel(pcie_ssd())
        reads, _ = hw.run(archive)
        assert_same_columns(reads,
                            SAGeDecompressor(archive).decompress_block(0))

    def test_stats_account_all_stream_bits(self, request):
        # The walk consumes every bit of every stream it reads, and the
        # units are charged exactly that — clip payloads, read as raw
        # bytes, included — on every analog, across blocks.
        hw = SAGeHardwareModel(pcie_ssd())
        for fixture in ("rs2_small", "rs3_small", "rs4_small", "rs5_small"):
            sim = request.getfixturevalue(fixture)
            archive = SAGeCompressor(
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

    @pytest.mark.parametrize("fixture", ANALOGS)
    def test_reference_walk_ends_at_every_stream_end(self, request,
                                                     monkeypatch, fixture):
        """What the accounting relies on: the bit-serial walk leaves
        every stream reader it opens (all but ``order``'s, which it
        does not walk) at its stream's last bit, on every analog, level
        and format extension — so charging the stored lengths is
        charging what the walk consumes."""
        readers = []

        class RecordingReader(BitReader):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                readers.append(self)

        monkeypatch.setattr(decompressor_module, "BitReader",
                            RecordingReader)
        sim = request.getfixturevalue(fixture)
        for level, preserve_order, tuned in itertools.product(
                OptLevel, (False, True), (False, True)):
            config = SAGeConfig(level=level, with_quality=False,
                                preserve_order=preserve_order,
                                tuned_indel_lengths=tuned)
            archive = SAGeCompressor(
                sim.reference, config,
                options=EngineOptions(block_reads=64)) \
                .compress(sim.read_set)
            decoder = SAGeDecompressor(archive)
            for index in range(archive.n_blocks):
                readers.clear()
                list(decoder.iter_read_codes(index=index))
                streams = archive.block(index).streams
                walked = {reader.name: reader.position for reader in readers
                          if reader.name != "order"}
                assert walked == {name: bits for name, (_, bits)
                                  in streams.items() if name != "order"}, \
                    (level, preserve_order, tuned, index)

    def test_run_decodes_each_block_once(self, monkeypatch, rs4_small):
        """One session decode per block and no reference walk: the
        model decodes on the default (vectorized) kernel."""
        blocked = SAGeCompressor(
            rs4_small.reference, SAGeConfig(),
            options=EngineOptions(block_reads=64)).compress(
                rs4_small.read_set)
        decoded = []
        decode = SAGeDecompressor.decompress_block

        def counted(self, index, **kwargs):
            decoded.append(index)
            return decode(self, index, **kwargs)

        def walked(self, index=0):
            raise AssertionError("the hardware model re-walked a block")

        monkeypatch.setattr(SAGeDecompressor, "decompress_block", counted)
        monkeypatch.setattr(SAGeDecompressor, "iter_read_codes", walked)
        reads, stats = SAGeHardwareModel(pcie_ssd()).run(blocked)
        assert decoded == list(range(blocked.n_blocks))
        assert stats.n_reads == len(reads) == len(rs4_small.read_set)
        assert stats.output_bases == reads.codes.size

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
        # 2-bit output is a quarter of ASCII's bytes on the link.
        device = SAGeDevice(ssd=pcie_ssd())
        device.sage_write("a", archive)
        delivery = {fmt: device.sage_read("a", fmt=fmt, materialize=False)
                    .delivery_time_s
                    for fmt in (OutputFormat.ASCII, OutputFormat.TWO_BIT)}
        assert delivery[OutputFormat.TWO_BIT] \
            == pytest.approx(delivery[OutputFormat.ASCII] / 4)


class TestHardwareVerify:
    """The model's reads are the software decoders' reads, compared as
    columns against the facade's serial and parallel decodes."""

    @pytest.fixture(scope="class")
    def blocked(self, rs3_small):
        archive = SAGeCompressor(rs3_small.reference, SAGeConfig(),
                                 options=EngineOptions(block_reads=16)) \
            .compress(rs3_small.read_set)
        return SAGeArchive.from_bytes(archive.to_bytes())

    def test_verify_against_serial_decoder(self, archive):
        reads, _ = SAGeHardwareModel(pcie_ssd()).run(archive)
        assert_same_columns(reads, SAGeDataset(archive).read_set())

    def test_verify_against_parallel_decoder(self, blocked):
        """Functional model output == parallel streaming decode."""
        reads, _ = SAGeHardwareModel(pcie_ssd()).run(blocked)
        assert reads.quality is not None
        assert_same_columns(reads, SAGeDataset(
            blocked, options=EngineOptions(workers=2)).read_set())


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
    def test_transfer_energy(self):
        link = interconnect.Link("t", 1e9, energy_pj_per_byte=10.0)
        assert link.transfer_energy(1e9) == pytest.approx(0.01)

    def test_link_ordering(self):
        assert interconnect.SATA3.bandwidth_bytes_per_s \
            < interconnect.PCIE_GEN4_X8.bandwidth_bytes_per_s \
            < interconnect.CXL2_X8.bandwidth_bytes_per_s

    def test_host_dram_is_multichannel(self):
        # Eight host channels against the SSD's one (§6 mode 3).
        assert dram.HOST_DDR4.channels == 8
        assert dram.SSD_INTERNAL_DRAM.channels == 1

    def test_ssd_dram_mostly_metadata(self):
        # Over 95% of the SSD's DRAM holds mapping metadata, so SAGe
        # streams through registers instead of buffering there.
        assert dram.SSD_DRAM_AVAILABLE_FRACTION <= 0.05
