"""Error-taxonomy and checksum-integrity tests (v4 container)."""

import importlib
import inspect
import pickle
import pkgutil

import pytest

import repro
from repro.api import EngineOptions
from repro.core import BlockCompressor, SAGeConfig
from repro.core.bitio import BitIOError
from repro.core.container import SAGeArchive
from repro.core.decompressor import SAGeDecompressor
from repro.core.errors import (BlockDecodeError, ContainerError,
                               CorruptArchiveError, DecompressionError,
                               SAGeError, TruncatedArchiveError)

from tests.conftest import golden_blob


def _error_family():
    """``SAGeError`` and every subclass reachable from it, transitively,
    in every module of the package."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):    # importing one runs it
            importlib.import_module(module.name)
    family = [SAGeError]
    for cls in family:          # grows while it is walked
        family += [sub for sub in cls.__subclasses__()
                   if sub not in family]
    return family


@pytest.fixture(scope="module")
def blocked(rs3_small):
    """A blocked archive plus its serialized v4 blob."""
    archive = BlockCompressor(rs3_small.reference, SAGeConfig(),
                              options=EngineOptions(block_reads=24)) \
        .compress(rs3_small.read_set)
    return archive, archive.to_bytes()


class TestTaxonomy:
    def test_hierarchy(self):
        # Every class descends from SAGeError, which is a ValueError —
        # pre-taxonomy `except ValueError` handlers keep working.
        assert issubclass(SAGeError, ValueError)
        assert issubclass(ContainerError, SAGeError)
        assert issubclass(CorruptArchiveError, ContainerError)
        assert issubclass(TruncatedArchiveError, CorruptArchiveError)
        assert issubclass(DecompressionError, SAGeError)
        assert issubclass(BlockDecodeError, DecompressionError)
        assert issubclass(BitIOError, SAGeError)

    def test_context_rendering(self):
        err = CorruptArchiveError("checksum mismatch", block_index=3,
                                  stream="mpa", offset=128)
        assert "block 3" in str(err)
        assert "'mpa'" in str(err)
        assert "byte offset 128" in str(err)
        assert err.context == {"block_index": 3, "stream": "mpa",
                               "offset": 128}

    def test_truncation_expected_actual(self):
        err = TruncatedArchiveError("short read", expected=100, actual=40)
        assert err.expected == 100 and err.actual == 40
        assert "need 100" in str(err) and "have 40" in str(err)

    @pytest.mark.parametrize("cls", _error_family())
    def test_pickle_roundtrip(self, cls):
        # These errors cross the process-pool boundary in the
        # fault-tolerant executor; context must survive pickling.  The
        # family is enumerated, so a new subclass is covered the day it
        # is written, built with every context keyword it accepts.
        parameters = inspect.signature(cls.__init__).parameters.values()
        keywords = [p for p in parameters if p.kind is p.KEYWORD_ONLY]
        err = cls("damaged", **{
            p.name: "mpa" if "str" in str(p.annotation) else 3 + i
            for i, p in enumerate(keywords)})
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert str(back) == str(err)
        assert getattr(back, "context", {}) == getattr(err, "context", {})
        assert len(getattr(err, "context", {})) == len(keywords)


class TestBlockChecksums:
    def _corrupt_block(self, blob: bytes, index: int) -> bytes:
        arch = SAGeArchive.from_bytes(blob)
        entry = arch.block_index()[index]
        damaged = bytearray(blob)
        damaged[entry.offset + entry.nbytes // 2] ^= 0xFF
        return bytes(damaged)

    def test_lazy_block_check_names_block(self, blocked):
        _, blob = blocked
        bad = SAGeArchive.from_bytes(self._corrupt_block(blob, 2))
        with pytest.raises(CorruptArchiveError) as info:
            bad.block(2)
        assert info.value.block_index == 2
        # Other blocks stay decodable: corruption is localized.
        assert bad.block(1) is not None
        assert bad.block(3) is not None

    def test_decompress_block_wraps(self, blocked):
        _, blob = blocked
        bad = SAGeArchive.from_bytes(self._corrupt_block(blob, 1))
        with pytest.raises(BlockDecodeError) as info:
            SAGeDecompressor(bad).decompress_block(1)
        assert info.value.block_index == 1

    def test_verify_localizes(self, blocked):
        archive, blob = blocked
        bad = SAGeArchive.from_bytes(self._corrupt_block(blob, 3))
        report = bad.verify_checksums()
        assert report["blocks"][3] == "failed"
        assert all(status == "ok" for i, status in
                   enumerate(report["blocks"]) if i != 3)

    def test_crc_helpers(self, blocked):
        _, blob = blocked
        arch = SAGeArchive.from_bytes(blob)
        assert arch.header_crc32() is not None
        assert arch.consensus_crc32() is not None
        v3_blob = golden_blob("v3_blocked")
        v3 = SAGeArchive.from_bytes(v3_blob)
        assert v3.header_crc32() is None
        assert v3.consensus_crc32() is None
        # The whole price of v4: one CRC32 each for the header, the
        # consensus and every block.
        assert len(golden_blob("v4_blocked")) - len(v3_blob) \
            == 4 * (2 + v3.n_blocks)

    def test_consensus_crc_detects_damage(self, blocked):
        archive, blob = blocked
        head = len(archive._global_header_blob())
        damaged = bytearray(blob)
        # First consensus payload byte: framing is 12 bytes in v4.
        damaged[head + 12] ^= 0x01
        with pytest.raises(CorruptArchiveError) as info:
            SAGeArchive.from_bytes(bytes(damaged))
        assert info.value.stream == "consensus"


class TestContentCorruption:
    """Pre-v4 blobs carry no digests — damage must still surface as a
    typed error (or decode; never a bare IndexError/struct.error)."""

    def test_v3_content_damage_is_typed(self):
        blob = golden_blob("v3_blocked")
        arch = SAGeArchive.from_bytes(blob)
        entry = arch.block_index()[0]
        for delta in range(8):
            damaged = bytearray(blob)
            damaged[entry.offset + 2 + delta] ^= 0xFF
            bad = SAGeArchive.from_bytes(bytes(damaged))
            try:
                SAGeDecompressor(bad).decompress_block(0)
            except SAGeError:
                pass            # typed detection is the contract

    def test_flat_decode_wraps_kernel_errors(self):
        blob = golden_blob("v3_one_block_order_headers")  # no digests
        start = SAGeArchive.from_bytes(blob).block_index()[0].offset
        for offset in range(start + 60, start + 68):
            damaged = bytearray(blob)
            damaged[offset] ^= 0xFF
            try:
                bad = SAGeArchive.from_bytes(bytes(damaged))
                SAGeDecompressor(bad).decompress()
            except SAGeError:
                pass            # typed detection is the contract
