"""Shared fixtures (small deterministic datasets, cached per session)
and the reference oracles the library's vectorized paths are held to."""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import SAGeConfig
from repro.core.formats import FormatError, OutputFormat, unpack_bits
from repro.genomics import datasets
from repro.genomics import sequence as seq
from repro.genomics.reads import PHRED_OFFSET, PLACEHOLDER_SCORE, Read, ReadSet
from repro.genomics.simulator import ReadSimulator, short_read_profile

#: Every optional container section switched on and off — the sweep of
#: the ``byte_size() == len(to_bytes())`` tests.
SIZE_CONFIGS = (
    SAGeConfig(),
    SAGeConfig(with_headers=True, preserve_order=True),
    SAGeConfig(with_quality=False, tuned_indel_lengths=True),
)

#: Cross-commit digests and archive blobs written by earlier commits.
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_fingerprints.json").read_text())

#: The committed v3 archives: one block with order and headers, and the
#: four-block ``v4_blocked`` without its digests.
V3_BLOBS = ("v3_one_block_order_headers", "v3_blocked")


def golden_blob(name: str) -> bytes:
    """Committed archive blob ``name`` — the only source of a v3 file,
    since the container writes v4 alone."""
    return base64.b64decode("".join(GOLDEN["blobs"][name]["base64"]))


@pytest.fixture(scope="session")
def rs2_small():
    """Deep short-read analog (best-compressing)."""
    return datasets.generate("RS2", base_genome=8_000)


@pytest.fixture(scope="session")
def rs3_small():
    """Shallow short-read analog."""
    return datasets.generate("RS3", base_genome=8_000)


@pytest.fixture(scope="session")
def rs4_small():
    """Long-read analog with chimeras, bursts, clips, and Ns."""
    return datasets.generate("RS4", base_genome=9_000)


@pytest.fixture(scope="session")
def rs5_small():
    """Cleaner long-read analog."""
    return datasets.generate("RS5", base_genome=9_000)


@pytest.fixture(scope="session")
def clean_short_sim():
    """Short reads with almost no errors (mapper/ISF ground truth)."""
    profile = short_read_profile(sub_rate=0.0, ins_rate=0.0, del_rate=0.0,
                                 clip_rate=0.0, n_rate=0.0, snp_rate=0.0,
                                 indel_variant_rate=0.0)
    sim = ReadSimulator(profile, np.random.default_rng(7))
    return sim.simulate(6_000, 450)


def read_multiset(read_set):
    """Order-independent content signature of a read set."""
    out = []
    for read in read_set:
        qual = read.quality.tobytes() if read.quality is not None else b""
        out.append((read.codes.tobytes(), qual))
    return sorted(out)


def assert_same_columns(got, want):
    """Two read sets hold the same reads in the same order, column by
    column: read boundaries, base codes and quality scores."""
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.codes, want.codes)
    assert (got.quality is None) == (want.quality is None)
    if got.quality is not None:
        assert np.array_equal(got.quality, want.quality)


def chunked(read_set, n):
    """``read_set`` as consecutive ``n``-read chunks (the last may be
    shorter), each a column view: ``read_set.subset(range(lo, hi))``."""
    return [read_set.subset(range(lo, min(lo + n, len(read_set))))
            for lo in range(0, len(read_set), n)]


def decode_blocks(decoder):
    """Reference walk: every block decoded one by one, in index order.

    Independent of ``StreamExecutor``, so executor tests have something
    to be compared against.
    """
    return ReadSet([read for index in range(decoder.archive.n_blocks)
                    for read in decoder.decompress_block(index)],
                   name=decoder.archive.name or "sage")


def read_from_text(bases, quality=None, header=""):
    """One :class:`Read` from a base string and an optional Phred+33
    string — the per-record oracle the block FASTQ parser is held to."""
    scores = None if quality is None else \
        np.frombuffer(quality.encode("ascii"), np.uint8) - PHRED_OFFSET
    return Read(seq.encode(bases), scores, header)


def format_read(read, index=0):
    """One read as a FASTQ record — the per-record oracle
    :func:`repro.genomics.fastq.write` is held to."""
    header = read.header or f"read{index}"
    qual = read.quality_text if read.quality is not None \
        else chr(PLACEHOLDER_SCORE + PHRED_OFFSET) * len(read)
    return f"@{header}\n{read.text}\n+\n{qual}\n"


def decode_output(data, fmt, length):
    """Invert :func:`repro.core.formats.encode_output` back to codes."""
    if fmt is OutputFormat.ASCII:
        return seq.encode(data)
    if fmt is OutputFormat.TWO_BIT:
        return unpack_bits(data, 2, length)
    if fmt is OutputFormat.THREE_BIT:
        return unpack_bits(data, 3, length)
    if fmt is OutputFormat.ONE_HOT:
        return np.argmax(np.asarray(data), axis=1).astype(np.uint8)
    raise FormatError(f"unknown format {fmt!r}")


def detokenize(tokens):
    """The byte stream LZ77 ``tokens`` stand for — the oracle
    :func:`repro.core.lz77.tokenize` is held to."""
    out = bytearray()
    for token in tokens:
        out.extend(token.literals)
        start = len(out) - token.distance
        if token.match_length and start < 0:
            raise ValueError("match distance reaches before stream start")
        for k in range(token.match_length):
            out.append(out[start + k])
    return bytes(out)
