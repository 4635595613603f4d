"""Property-based losslessness: the codec must round-trip *any* read set.

Hypothesis generates adversarial read sets — arbitrary mixes of clean
reads, mutated reads, reverse complements, N runs, random junk, tiny and
huge reads — against a shared reference.  Compression at a random
optimization level followed by decompression must reproduce the exact
multiset of (bases, quality) pairs.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import OptLevel, SAGeCompressor, SAGeConfig, SAGeDecompressor
from repro.core.container import SAGeArchive
from repro.genomics import sequence as seq
from repro.genomics.reads import Read, ReadSet
from repro.genomics.reference import make_reference

from tests.conftest import sections_nbytes

REFERENCE = make_reference(3_000, np.random.default_rng(1234))


@st.composite
def derived_read(draw):
    """One read derived from REFERENCE by random transformations."""
    length = draw(st.integers(min_value=30, max_value=220))
    start = draw(st.integers(min_value=0,
                             max_value=REFERENCE.size - length))
    codes = REFERENCE[start:start + length].copy()

    n_edits = draw(st.integers(min_value=0, max_value=6))
    for _ in range(n_edits):
        kind = draw(st.sampled_from(["sub", "ins", "del", "n"]))
        if codes.size < 25:
            break
        pos = draw(st.integers(min_value=0, max_value=codes.size - 2))
        if kind == "sub":
            codes[pos] = (codes[pos] + draw(
                st.integers(min_value=1, max_value=3))) % 4
        elif kind == "ins":
            run = draw(st.integers(min_value=1, max_value=12))
            ins = np.array(draw(st.lists(
                st.integers(min_value=0, max_value=3),
                min_size=run, max_size=run)), dtype=np.uint8)
            codes = np.concatenate([codes[:pos], ins, codes[pos:]])
        elif kind == "del":
            run = draw(st.integers(min_value=1, max_value=8))
            codes = np.concatenate([codes[:pos], codes[pos + run:]])
        else:  # N run
            run = draw(st.integers(min_value=1, max_value=4))
            codes[pos:pos + run] = seq.N_CODE

    if draw(st.booleans()):
        codes = seq.reverse_complement(codes)
    if draw(st.booleans()):
        rng_seed = draw(st.integers(min_value=0, max_value=2**16))
        qual = np.random.default_rng(rng_seed).integers(
            0, 41, codes.size).astype(np.uint8)
    else:
        qual = None
    return Read(codes, qual)


@st.composite
def junk_read(draw):
    """A read unrelated to the reference (must go to the raw stream)."""
    length = draw(st.integers(min_value=20, max_value=150))
    values = draw(st.lists(st.integers(min_value=0, max_value=4),
                           min_size=length, max_size=length))
    return Read(np.array(values, dtype=np.uint8))


@st.composite
def read_sets(draw):
    reads = draw(st.lists(derived_read(), min_size=0, max_size=12))
    reads += draw(st.lists(junk_read(), min_size=0, max_size=3))
    # Quality must be all-or-nothing for the archive's quality stream.
    if any(r.quality is None for r in reads):
        for read in reads:
            read.quality = None
    return ReadSet(reads)


def signature(read_set):
    out = []
    for read in read_set:
        qual = read.quality.tobytes() if read.quality is not None else b""
        out.append((read.codes.tobytes(), qual))
    return sorted(out)


class TestPropertyRoundtrip:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(read_sets(), st.sampled_from(list(OptLevel)))
    def test_lossless_at_every_level(self, read_set, level):
        config = SAGeConfig(level=level)
        archive = SAGeCompressor(REFERENCE, config).compress(read_set)
        blob = archive.to_bytes()
        decoded = SAGeDecompressor(
            SAGeArchive.from_bytes(blob)).decompress_block(0)
        assert signature(decoded) == signature(read_set)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(read_sets())
    def test_lossless_with_all_extensions(self, read_set):
        config = SAGeConfig(preserve_order=True, with_headers=True,
                            tuned_indel_lengths=True)
        archive = SAGeCompressor(REFERENCE, config).compress(read_set)
        decoded = SAGeDecompressor(
            SAGeArchive.from_bytes(archive.to_bytes())).decompress_block(0)
        # Order preservation makes this an exact positional match.
        assert len(decoded) == len(read_set)
        for original, restored in zip(read_set, decoded):
            assert np.array_equal(original.codes, restored.codes)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(read_sets())
    def test_archive_accounting_consistent(self, read_set):
        archive = SAGeCompressor(REFERENCE, SAGeConfig()) \
            .compress(read_set)
        assert archive.n_reads == len(read_set)
        # The layout's section sizes add up to the written bytes.
        assert sections_nbytes(archive) == len(archive.to_bytes())
