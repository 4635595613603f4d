"""Full-system integration: every subsystem in one flow.

Simulate reads -> compress (SAGe) -> SAGe_Write to the SSD (striped
layout) -> SAGe_Read through the hardware model -> GenStore-style
exact-match filter -> map the surviving reads -> verify against ground
truth.  This is the paper's mode-3 deployment (Fig. 12 ❸) exercised
functionally end to end.
"""

import pytest

from repro.core import SAGeCompressor, SAGeConfig
from repro.core.formats import OutputFormat
from repro.hardware.device import SAGeDevice
from repro.hardware.ssd import pcie_ssd
from repro.mapping import ReadMapper
from repro.pipeline.accelerators import measure_filter_fraction

from tests.conftest import map_one


@pytest.fixture(scope="module")
def system(rs3_small):
    device = SAGeDevice(ssd=pcie_ssd())
    archive = SAGeCompressor(rs3_small.reference, SAGeConfig()) \
        .compress(rs3_small.read_set)
    device.sage_write("cohort0.sage", archive)
    return device, rs3_small


class TestFullSystemFlow:
    def test_store_decode_filter_map(self, system):
        device, sim = system

        # 1. SAGe_Read: decompress in the requested format.
        result = device.sage_read("cohort0.sage",
                                  fmt=OutputFormat.ASCII,
                                  materialize=False)
        reads = result.reads
        assert len(reads) == len(sim.read_set)

        # 2. ISF: filter exact matches in-storage.
        frac = measure_filter_fraction(reads.subset(range(120)),
                                       sim.reference)
        assert 0.0 <= frac < 1.0

        # 3. Map the survivors (host-side accelerator stand-in).
        table = ReadMapper(sim.reference).map_batch(
            [read.codes for read in reads.reads[:120]])
        assert int((~table.unmapped).sum()) > 100

    def test_decoded_content_matches_origin(self, system):
        device, sim = system
        result = device.sage_read("cohort0.sage", materialize=False)
        got = sorted(r.codes.tobytes() for r in result.reads)
        want = sorted(r.codes.tobytes() for r in sim.read_set)
        assert got == want

    def test_mapped_positions_recover_truth(self, system):
        device, sim = system
        # The decompressed reads, remapped, should land where the donor
        # fragment truly came from (within indel slack) for unique,
        # forward, clean reads.
        mapper = ReadMapper(sim.reference)
        checked = 0
        for read, truth in list(zip(sim.read_set, sim.truth))[:150]:
            if truth.reverse or truth.is_chimeric or truth.has_n \
                    or truth.clip_start or truth.clip_end:
                continue
            mapping = map_one(mapper, read.codes)
            if mapping.unmapped or mapping.reverse:
                continue
            donor_start = truth.segments[0].donor_start
            assert abs(mapping.segments[0].cons_start
                       - donor_start) < 200
            checked += 1
        assert checked > 30

    def test_multiple_archives_share_device(self, system, rs2_small):
        device, _ = system
        archive = SAGeCompressor(rs2_small.reference,
                                 SAGeConfig(with_quality=False)) \
            .compress(rs2_small.read_set)
        device.sage_write("cohort1.sage", archive)
        for name in ("cohort0.sage", "cohort1.sage"):
            assert device.layout_report(name)["aligned"]
        result = device.sage_read("cohort1.sage", materialize=False)
        assert len(result.reads) == len(rs2_small.read_set)
        device.delete("cohort1.sage")


class TestQualityPathThroughSystem:
    def test_quality_survives_device_roundtrip(self, system):
        device, sim = system
        result = device.sage_read("cohort0.sage", materialize=False)
        got = sorted((r.codes.tobytes(), r.quality.tobytes())
                     for r in result.reads)
        want = sorted((r.codes.tobytes(), r.quality.tobytes())
                      for r in sim.read_set)
        assert got == want
