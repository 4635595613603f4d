"""Property-based fault injection: detected or provably harmless.

The v4 robustness property, driven by the :mod:`repro.testing.faults`
adversary: for *any* injected byte-level damage to a checksummed
archive, decoding either fails with a typed :class:`SAGeError` or the
output is identical to the undamaged decode — never silent wrong FASTQ.
And a skip session (what ``sage salvage`` runs) recovers exactly the
blocks the damage did not touch.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineOptions, SAGeDataset, SAGeError
from repro.core import quality
from repro.core.bitio import BitReader, BitWriter
from repro.core.container import SAGeArchive
from repro.core.errors import BlockDecodeError, CorruptArchiveError
from repro.core.formats import read_corner_payload, read_unmapped
from repro.core.kernels import available_kernels
from repro.genomics.reads import Read, ReadSet
from repro.pipeline.executor import StreamExecutor
from repro.testing import faults

from tests.conftest import markov_scores, read_multiset

BLOCK_READS = 24


@pytest.fixture(scope="module")
def subject(rs3_small):
    """v4 blob + per-block baseline signatures for the property tests."""
    dataset = SAGeDataset.from_fastq(
        rs3_small.read_set, reference=rs3_small.reference,
        options=EngineOptions(block_reads=BLOCK_READS))
    blob = dataset.to_bytes()
    baseline = read_multiset(dataset.read_set())
    block_sets = [read_multiset(dataset.decode_block(i))
                  for i in range(dataset.n_blocks)]
    return blob, baseline, block_sets


def _decode_signature(blob: bytes, codec: str):
    archive = SAGeArchive.from_bytes(blob)
    dataset = SAGeDataset(archive, options=EngineOptions(codec=codec))
    return read_multiset(dataset.read_set())


class TestInjectors:
    def test_seeded_reproducibility(self, subject):
        blob, _, _ = subject
        for kind in faults.FAULT_KINDS:
            a = faults.inject(blob, kind, random.Random(7))
            b = faults.inject(blob, kind, random.Random(7))
            assert a == b

    def test_bit_flip_changes_one_bit(self, subject):
        blob, _, _ = subject
        report = faults.bit_flip(blob, random.Random(1))
        diff = [i for i, (x, y) in enumerate(zip(blob, report.blob))
                if x != y]
        assert diff == [report.offset]
        assert bin(blob[report.offset]
                   ^ report.blob[report.offset]).count("1") == 1

    def test_truncate_shortens(self, subject):
        blob, _, _ = subject
        report = faults.truncate(blob, random.Random(2))
        assert len(report.blob) == report.offset < len(blob)

    def test_region_is_respected(self, subject):
        blob, _, _ = subject
        rng = random.Random(3)
        for _ in range(50):
            report = faults.random_fault(blob, rng, region=(100, 140))
            if report.kind == "truncate":
                assert 100 <= len(report.blob) < 140
            else:
                assert blob[:100] == report.blob[:100]
                assert blob[140:] == report.blob[140:]

    def test_unknown_kind(self, subject):
        blob, _, _ = subject
        with pytest.raises(ValueError):
            faults.inject(blob, "gamma_ray", random.Random(0))


class TestDetectedOrHarmless:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(faults.FAULT_KINDS),
           codec=st.sampled_from(available_kernels()))
    def test_any_fault_detected_or_harmless(self, subject, seed, kind,
                                            codec):
        blob, baseline, _ = subject
        report = faults.inject(blob, kind, random.Random(seed))
        try:
            signature = _decode_signature(report.blob, codec)
        except SAGeError:
            return                      # detected: the contract holds
        # Decode succeeded: the damage must have been provably harmless
        # (e.g. a swap of equal bytes, zeroing already-zero padding).
        assert signature == baseline, (
            f"silent wrong output from {report!r}")

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           codec=st.sampled_from(available_kernels()))
    def test_block_fault_salvage_recovers_rest(self, subject, seed,
                                               codec):
        blob, _, block_sets = subject
        rng = random.Random(seed)
        target = rng.randrange(len(block_sets))
        archive = SAGeArchive.from_bytes(blob)
        entry = archive.block_index()[target]
        report = faults.random_fault(
            blob, rng, region=(entry.offset, entry.offset + entry.nbytes),
            kinds=("bit_flip", "zero_region", "byte_swap"))
        dataset = SAGeDataset(SAGeArchive.from_bytes(report.blob),
                              options=EngineOptions(codec=codec,
                                                    on_error="skip"))
        recovered = read_multiset(dataset.read_set())
        lost = {gap.index for gap in dataset.stats.gaps}
        # Only the targeted block may be lost; every other block's reads
        # must come back exactly.
        assert lost <= {target}
        expected = [sig for i, sig in enumerate(block_sets)
                    if i not in lost]
        assert recovered == sorted(sum(expected, []))
        assert dataset.stats.blocks == len(block_sets) - len(lost)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_truncation_always_detected_at_load(self, subject, seed):
        blob, _, _ = subject
        report = faults.truncate(blob, random.Random(seed))
        # A shortened v4 blob is caught by the layout/truncation checks
        # at load or by a checksum/decode failure — never accepted
        # silently with missing reads.
        try:
            signature = _decode_signature(report.blob, "auto")
        except SAGeError:
            return
        assert signature == _decode_signature(blob, "auto")


class TestQualityStreamDamage:
    """Below the container CRC (a v3 archive, or a block that passed
    its digest) the quality decoder is its own last line of defence."""

    @pytest.mark.parametrize("order1", [False, True])
    def test_every_bit_flip_decodes_or_is_typed(self, order1):
        rng = np.random.default_rng(3)
        scores = rng.choice([2, 12, 23, 37], size=300,
                            p=[.04, .09, .17, .7]).astype(np.uint8)
        blob = quality._write(scores, order1, block_size=128)
        raised = 0
        for bit in range(8 * blob.byte_size):
            damaged = bytearray(blob.payload)
            damaged[bit >> 3] ^= 0x80 >> (bit & 7)
            try:
                # Anything but a SAGeError (IndexError, MemoryError, a
                # hang on a huge count) fails the test by propagating.
                out = quality.decompress(
                    quality.QualityBlob(bytes(damaged), scores.size))
            except SAGeError as exc:
                assert exc.stream == "quality", (bit, exc)
                assert exc.offset is None \
                    or 0 <= exc.offset <= blob.byte_size, (bit, exc)
                raised += 1
            else:
                assert out.dtype == np.uint8
        assert raised > blob.byte_size       # most flips are detected

    @pytest.mark.parametrize("model", ["order0", "order1"])
    def test_flipped_model_flag_is_detected(self, model):
        # The flag (bit 40) differs from blob to blob, so a flip reads
        # one model's records as the other's: never scores, always a
        # typed quality error.
        scores = markov_scores(300) if model == "order1" else \
            np.random.default_rng(4).choice(
                [2, 12, 23, 37], size=30_000).astype(np.uint8)
        blob = quality.compress(scores)
        assert blob.model == model
        damaged = bytearray(blob.payload)
        damaged[5] ^= 0x80
        with pytest.raises(CorruptArchiveError) as info:
            quality.decompress(
                quality.QualityBlob(bytes(damaged), blob.n_scores))
        assert info.value.stream == "quality"

    def test_damaged_quality_block_is_skipped(self, rs3_small):
        dataset = SAGeDataset.from_fastq(
            rs3_small.read_set, reference=rs3_small.reference,
            options=EngineOptions(block_reads=BLOCK_READS))
        expected = [read_multiset(dataset.decode_block(i))
                    for i in range(dataset.n_blocks)]
        archive = SAGeArchive.from_bytes(dataset.to_bytes())
        block = archive.block(1)
        payload = bytearray(block.quality.payload)
        payload[len(payload) // 2] ^= 0xFF
        block.quality = quality.QualityBlob(bytes(payload),
                                            block.quality.n_scores)
        executor = StreamExecutor(
            archive, options=EngineOptions(on_error="skip"))
        survivors = [read_multiset(s) for s in executor]
        assert survivors == expected[:1] + expected[2:]
        [gap] = executor.stats.gaps
        assert gap.index == 1
        assert isinstance(gap.error, BlockDecodeError)
        assert gap.error.stream == "quality"
        assert gap.error.offset is not None


class TestBaseCodeDamage:
    """A 3-bit base field can hold 5..7, which names no base.  Below the
    CRC the two 3-bit parsers (clips and unmapped reads, shared by both
    kernels) are the last line of defence: a code above N must never
    reach a read's codes or the reverse-complement table."""

    def test_unmapped_code_above_n_is_typed(self):
        with pytest.raises(CorruptArchiveError) as info:
            read_unmapped(BitReader(b"\xff" * 4), 8, True, 8)
        assert info.value.stream == "unmapped"

    def test_clip_code_above_n_is_typed(self):
        writer = BitWriter()
        for value, nbits in ((0, 1), (1, 1), (1, 4), (1, 4)):
            writer.write(value, nbits)      # no N runs; clips of 1 and 1
        writer.write(0xFF, 8)               # two 3-bit codes of 7
        with pytest.raises(CorruptArchiveError) as info:
            read_corner_payload(BitReader(writer.getvalue(),
                                          writer.bit_length), 4)
        assert info.value.stream == "corner"

    @pytest.mark.parametrize("codec", available_kernels())
    def test_damaged_unmapped_read_is_typed(self, rs3_small, codec):
        junk = np.random.default_rng(5).integers(0, 4, 100)
        reads = list(rs3_small.read_set)[:BLOCK_READS - 1] + [
            Read(codes=junk.astype(np.uint8))]
        dataset = SAGeDataset.from_fastq(
            ReadSet(reads, name="junk"), reference=rs3_small.reference,
            options=EngineOptions(block_reads=BLOCK_READS))
        # The flip happens after the block passed its CRC check.
        archive = SAGeArchive.from_bytes(dataset.to_bytes())
        block = archive.block(0)
        assert block.n_unmapped == 1
        payload, bits = block.streams["unmapped"]
        block.streams["unmapped"] = (b"\xff" * len(payload), bits)
        with pytest.raises(BlockDecodeError) as info:
            SAGeDataset(archive, options=EngineOptions(codec=codec)) \
                .decode_block(0)
        assert info.value.stream == "unmapped"
