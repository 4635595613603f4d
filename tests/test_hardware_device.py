"""Tests for the SAGe storage device (§5.4 interface commands)."""

import numpy as np
import pytest

from repro.core import SAGeCompressor, SAGeConfig
from repro.core.formats import OutputFormat, decode_output
from repro.hardware.device import DeviceError, SAGeDevice
from repro.hardware.ssd import pcie_ssd, sata_ssd


@pytest.fixture(scope="module")
def loaded_device(rs3_small):
    device = SAGeDevice(ssd=pcie_ssd())
    archive = SAGeCompressor(rs3_small.reference,
                             SAGeConfig(with_quality=False)) \
        .compress(rs3_small.read_set)
    device.sage_write("rs3.sage", archive)
    return device, rs3_small


class TestSAGeWrite:
    def test_write_reports_bytes_and_layout(self, rs3_small):
        device = SAGeDevice()
        archive = SAGeCompressor(rs3_small.reference,
                                 SAGeConfig(with_quality=False)) \
            .compress(rs3_small.read_set)
        nbytes = device.sage_write("x.sage", archive)
        assert nbytes == len(archive.to_bytes())
        report = device.layout_report("x.sage")
        assert report["aligned"]
        assert report["pages"] >= 1

    def test_duplicate_rejected(self, loaded_device):
        device, sim = loaded_device
        archive = SAGeCompressor(sim.reference,
                                 SAGeConfig(with_quality=False)) \
            .compress(sim.read_set)
        with pytest.raises(DeviceError):
            device.sage_write("rs3.sage", archive)

    def test_regular_files_coexist(self, rs3_small):
        device = SAGeDevice()
        device.write_regular("os.bin", 5 * 16384)
        archive = SAGeCompressor(rs3_small.reference,
                                 SAGeConfig(with_quality=False)) \
            .compress(rs3_small.read_set)
        device.sage_write("g.sage", archive)
        assert device.layout_report("g.sage")["aligned"]
        assert device.genomic_files() == ["g.sage"]

    def test_delete(self, rs3_small):
        device = SAGeDevice()
        archive = SAGeCompressor(rs3_small.reference,
                                 SAGeConfig(with_quality=False)) \
            .compress(rs3_small.read_set)
        device.sage_write("tmp.sage", archive)
        device.delete("tmp.sage")
        assert device.genomic_files() == []
        with pytest.raises(DeviceError):
            device.sage_read("tmp.sage")


class TestSAGeRead:
    def test_lossless_through_device(self, loaded_device):
        device, sim = loaded_device
        result = device.sage_read("rs3.sage")
        got = sorted(r.codes.tobytes() for r in result.reads)
        want = sorted(r.codes.tobytes() for r in sim.read_set)
        assert got == want

    def test_formatted_output(self, loaded_device):
        device, sim = loaded_device
        result = device.sage_read("rs3.sage", fmt=OutputFormat.TWO_BIT)
        assert result.formatted is not None
        first = result.reads[0]
        back = decode_output(result.formatted[0], OutputFormat.TWO_BIT,
                             len(first))
        assert np.array_equal(back, first.codes)

    def test_timing_components_positive(self, loaded_device):
        device, _ = loaded_device
        result = device.sage_read("rs3.sage", materialize=False)
        assert result.nand_time_s > 0
        assert result.decode_time_s > 0
        assert result.delivery_time_s > 0
        assert result.prepared_time_s == pytest.approx(
            max(result.nand_time_s, result.decode_time_s,
                result.delivery_time_s))

    def test_sata_delivery_slower(self, rs3_small):
        archive = SAGeCompressor(rs3_small.reference,
                                 SAGeConfig(with_quality=False)) \
            .compress(rs3_small.read_set)
        fast = SAGeDevice(ssd=pcie_ssd())
        slow = SAGeDevice(ssd=sata_ssd())
        fast.sage_write("a", archive)
        slow.sage_write("a", archive)
        t_fast = fast.sage_read("a", materialize=False).delivery_time_s
        t_slow = slow.sage_read("a", materialize=False).delivery_time_s
        assert t_slow > 5 * t_fast

    def test_missing_file(self):
        with pytest.raises(DeviceError):
            SAGeDevice().sage_read("nope")


class TestBatchStreaming:
    def test_batches_cover_all_reads(self, loaded_device):
        device, sim = loaded_device
        batches = list(device.iter_batches("rs3.sage", batch_reads=64))
        assert all(len(b) <= 64 for b in batches)
        total = sum(len(b) for b in batches)
        assert total == len(sim.read_set)
        got = sorted(r.codes.tobytes() for batch in batches
                     for r in batch)
        want = sorted(r.codes.tobytes() for r in sim.read_set)
        assert got == want

    @pytest.mark.parametrize("batch_reads", [0, -3])
    def test_batching_unit_is_validated(self, loaded_device, batch_reads):
        # 0 used to die with ZeroDivisionError (integer modulo by zero).
        device, _ = loaded_device
        with pytest.raises(DeviceError, match="batch_reads"):
            list(device.iter_batches("rs3.sage", batch_reads=batch_reads))
