"""Unit tests for the SSD model and SAGe FTL (§5.3)."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.hardware.ssd import (FTLError, NANDConfig, SAGeFTL,
                                pcie_ssd, sata_ssd)


class TestTiming:
    def test_internal_bandwidth_scales_with_channels(self):
        assert pcie_ssd(channels=16).internal_read_bandwidth \
            == 2 * pcie_ssd(channels=8).internal_read_bandwidth

    def test_external_capped_by_link(self):
        ssd = sata_ssd()
        assert ssd.external_read_bandwidth \
            == ssd.external.bandwidth_bytes_per_s
        assert ssd.external_read_bandwidth < ssd.internal_read_bandwidth

    def test_channel_bandwidth_is_min_of_sense_and_bus(self):
        nand = NANDConfig(planes=1, page_bytes=16384,
                          read_latency_s=100e-6)
        # Sensing: 16384/100us = 163 MB/s < 1.2 GB/s bus.
        assert nand.channel_bandwidth == pytest.approx(16384 / 100e-6)

    def test_read_time_includes_latency(self):
        ssd = pcie_ssd()
        assert ssd.read_time(0) == pytest.approx(ssd.nand.read_latency_s)
        t1 = ssd.read_time(1 << 30)
        assert t1 > ssd.read_time(1 << 20)


class TestFTLStriping:
    def _ftl(self):
        return SAGeFTL(channels=8)

    def test_genomic_file_is_stripe_aligned(self):
        ftl = self._ftl()
        ftl.write_genomic("a.sage", 100 * 16384)
        assert ftl.stripe_aligned("a.sage")

    def test_full_channel_engagement(self):
        ftl = self._ftl()
        ftl.write_genomic("a.sage", 160 * 16384)  # 20 full stripes
        assert ftl.channels_used_per_stripe("a.sage") == 8.0

    def test_partial_final_stripe(self):
        ftl = self._ftl()
        ftl.write_genomic("a.sage", 13 * 16384)
        assert ftl.stripe_aligned("a.sage")
        assert 6.0 < ftl.channels_used_per_stripe("a.sage") <= 8.0

    def test_regular_data_not_aligned_contract(self):
        ftl = self._ftl()
        ftl.write_regular("os.bin", 10 * 16384)
        assert not ftl.stripe_aligned("os.bin")

    def test_genomic_avoids_regular_blocks(self):
        ftl = self._ftl()
        ftl.write_regular("os.bin", 50 * 16384)
        ftl.write_genomic("a.sage", 50 * 16384)
        regular_blocks = {(c, b) for c, b, _ in
                          ftl.files["os.bin"]["pages"]}
        genomic_blocks = {(c, b) for c, b, _ in
                          ftl.files["a.sage"]["pages"]}
        assert not regular_blocks & genomic_blocks

    def test_duplicate_name_rejected(self):
        ftl = self._ftl()
        ftl.write_genomic("a", 16384)
        with pytest.raises(FTLError):
            ftl.write_genomic("a", 16384)

    def test_capacity_exhaustion(self):
        nand = NANDConfig(pages_per_block=4, blocks_per_channel=2)
        ftl = SAGeFTL(channels=2, nand=nand)
        with pytest.raises(FTLError):
            ftl.write_genomic("big", 1000 * 16384)

    def test_logical_order_preserved(self):
        ftl = self._ftl()
        ftl.write_genomic("a.sage", 30 * 16384)
        placements = ftl.placements("a.sage")
        logicals = [ftl._logical_of(p) for p in placements]
        assert logicals == sorted(logicals)
        assert logicals == list(range(30))


class TestGarbageCollection:
    def test_gc_preserves_alignment_and_content(self):
        ftl = SAGeFTL(channels=8)
        ftl.write_genomic("dead.sage", 64 * 16384)
        ftl.write_genomic("live.sage", 48 * 16384)
        victim_blocks = sorted({b for _, b, _ in
                                ftl.files["live.sage"]["pages"]})
        ftl.delete("dead.sage")
        moved = 0
        for block in victim_blocks:
            moved += ftl.gc_genomic_unit(block)
        assert moved == 48
        assert ftl.stripe_aligned("live.sage")
        logicals = [ftl._logical_of(p) for p in ftl.placements("live.sage")]
        assert logicals == list(range(48))

    def test_gc_on_non_genomic_block_rejected(self):
        ftl = SAGeFTL(channels=4)
        ftl.write_genomic("a", 16384)
        used = {b for _, b, _ in ftl.files["a"]["pages"]}
        free_block = next(b for b in range(ftl.nand.blocks_per_channel)
                          if b not in used)
        with pytest.raises(FTLError):
            ftl.gc_genomic_unit(free_block)

    def test_delete_invalidates(self):
        ftl = SAGeFTL(channels=4)
        ftl.write_genomic("a", 8 * 16384)
        pages = list(ftl.files["a"]["pages"])
        ftl.delete("a")
        for c, b, p in pages:
            assert not ftl.blocks[c][b][p].valid
        with pytest.raises(FTLError):
            ftl.delete("a")


class FTLMachine(RuleBasedStateMachine):
    """Randomized write/delete/GC sequences must preserve §5.3 invariants."""

    def __init__(self):
        super().__init__()
        nand = NANDConfig(pages_per_block=16, blocks_per_channel=12)
        self.ftl = SAGeFTL(channels=4, nand=nand)
        self.live: set[str] = set()
        self.counter = 0

    @rule(pages=st.integers(min_value=1, max_value=24))
    def write_genomic(self, pages):
        name = f"g{self.counter}"
        self.counter += 1
        try:
            self.ftl.write_genomic(name, pages * 16384)
        except FTLError:
            return  # device full: acceptable
        self.live.add(name)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def delete_one(self, data):
        name = data.draw(st.sampled_from(sorted(self.live)))
        self.ftl.delete(name)
        self.live.discard(name)

    @precondition(lambda self: True)
    @rule()
    def gc_some_unit(self):
        victims = sorted(self.ftl._genomic_blocks)
        if not victims:
            return
        block = victims[0]
        if self.ftl._stripe_block == block:
            return  # never GC the active write unit mid-stream
        try:
            self.ftl.gc_genomic_unit(block)
        except FTLError:
            pass  # no free unit to relocate into: acceptable

    @invariant()
    def all_live_files_aligned(self):
        for name in self.live:
            assert self.ftl.stripe_aligned(name), \
                f"{name} lost stripe alignment"

    @invariant()
    def all_live_files_complete(self):
        for name in self.live:
            info = self.ftl.files[name]
            logicals = sorted(
                self.ftl.blocks[c][b][p].logical_index
                for c, b, p in info["pages"])
            assert logicals == list(range(len(logicals)))


TestFTLStateMachine = FTLMachine.TestCase
TestFTLStateMachine.settings = settings(max_examples=25,
                                        stateful_step_count=30,
                                        deadline=None)
