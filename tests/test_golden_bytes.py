"""Byte-identity across *commits*: archives and FASTQ pinned to a table.

The cross-kernel and cross-backend suites prove every path of one
commit agrees with every other; this file proves a commit agrees with
its predecessors.  ``golden_fingerprints.json`` holds sha256 digests of
the archive bytes and the decoded FASTQ for RS2/RS3/RS4 at
``block_reads`` 0 and 256 under the default configuration, for RS2 at
level NO (raw matching positions) and RS4 with ``preserve_order`` (the
order and read-length streams), plus v3 and v4 blobs written by earlier
commits (each v3 blob with the digest of its v4 re-save).  Its
``baselines`` rows pin the Spring analog's streams, quality, counts and
read order and the pigz analog's two blobs on RS1–RS5.  A digest
that moves means the container bytes or the decoded output changed —
which is either a bug or a deliberate format change that must say so
and re-record the table.
"""

import functools
import hashlib
import io

import pytest

from repro.api import EngineOptions, SAGeDataset
from repro.baselines import pigz
from repro.baselines.spring import SpringCompressor
from repro.core import OptLevel, SAGeArchive, SAGeConfig
from repro.genomics import datasets
from repro.genomics import sequence as seq
from repro.genomics.reads import ReadSet

from tests.conftest import GOLDEN, golden_blob


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fastq_sha(dataset: SAGeDataset, **options) -> str:
    """FASTQ digest of a sibling session with ``options`` replaced (and
    a decoder of its own, on its own kernel)."""
    sibling = SAGeDataset(dataset.archive,
                          options=dataset.options.replace(**options))
    buffer = io.StringIO()
    sibling.to_fastq(buffer)
    return _sha(buffer.getvalue().encode("ascii"))


@pytest.fixture(scope="module")
def sims():
    return {label: datasets.generate(label, base_genome=50_000, seed=1)
            for label in {row["dataset"] for row in GOLDEN["fingerprints"]}}


def _row_id(row) -> str:
    """``dataset-block_reads``, then what the row sets beyond the
    default configuration."""
    return "-".join([row["dataset"], str(row["block_reads"])]
                    + ([row["level"]] if "level" in row else [])
                    + (["order"] if row.get("preserve_order") else []))


@pytest.mark.parametrize("row", GOLDEN["fingerprints"],
                         ids=[_row_id(row) for row in GOLDEN["fingerprints"]])
def test_archive_and_fastq_fingerprints(sims, row):
    sim = sims[row["dataset"]]
    config = SAGeConfig(level=OptLevel[row.get("level", "O4")],
                        preserve_order=row.get("preserve_order", False))
    dataset = SAGeDataset.from_fastq(
        sim.read_set, reference=sim.reference, config=config,
        options=EngineOptions(block_reads=row["block_reads"]))
    assert _sha(dataset.to_bytes()) == row["archive_sha256"]
    assert _fastq_sha(dataset) == row["fastq_sha256"]
    assert _fastq_sha(dataset, codec="python") == row["fastq_sha256"]
    assert _fastq_sha(dataset, workers=2, backend="process") \
        == row["fastq_sha256"]


@pytest.mark.parametrize("name", sorted(GOLDEN["blobs"]))
def test_old_blobs_load_and_resave_byte_identically(name, tmp_path):
    golden = GOLDEN["blobs"][name]
    blob = golden_blob(name)
    # A v4 blob re-saves as itself, a v3 blob as its pinned v4 re-save
    # (for v3_blocked, the v4_blocked blob) — never as v5, whose
    # version byte would make their walk-layout quality decode as lanes.
    resaved = golden.get("v4_sha256", _sha(blob))
    path = tmp_path / f"{name}.sage"
    path.write_bytes(blob)
    for dataset in (SAGeDataset(SAGeArchive.from_bytes(blob)),
                    SAGeDataset.open(path)):
        with dataset:
            assert dataset.format_version == golden["version"]
            assert dataset.n_blocks == golden["n_blocks"]
            assert _sha(dataset.to_bytes()) == resaved
            assert _fastq_sha(dataset) == golden["fastq_sha256"]
            # Parsed blocks re-serialize to the bytes they came from.
            for index in range(dataset.n_blocks):
                dataset.archive.block(index)
            assert _sha(dataset.to_bytes()) == resaved


#: Genome of the baseline rows: small, because Spring maps on the
#: scalar kernel.
BASELINE_GENOME = 2_000


@functools.cache
def _baseline_sim(label: str):
    return datasets.generate(label, base_genome=BASELINE_GENOME, seed=1)


def _baseline_input(row) -> tuple[ReadSet, object]:
    """``(read_set, consensus)`` of a baseline row.  An ``edited`` row
    plants an N run at bases 2-4 of every 8th read and cuts the
    consensus to the genome's first three quarters, so the N corner
    records and the unmapped stream carry data too."""
    sim = _baseline_sim(row["dataset"])
    read_set, consensus = sim.read_set, sim.reference
    if row["edited"]:
        codes = read_set.codes.copy()
        for at in range(2, 5):
            codes[read_set.offsets[:-1:8] + at] = seq.N_CODE
        read_set = ReadSet.from_columns(codes, read_set.offsets,
                                        read_set.quality, read_set.headers,
                                        read_set.name)
        consensus = consensus[:3 * consensus.size // 4]
    return read_set, consensus


def baseline_digests(row) -> dict:
    """What a baseline row pins: every Spring stream payload, its
    quality payload, counts and permutation, and the pigz DNA and
    quality blobs."""
    read_set, consensus = _baseline_input(row)
    archive = SpringCompressor(consensus).compress(read_set)
    return {
        "spring": {
            "streams": {name: _sha(blob.payload)
                        for name, blob in archive.streams.items()},
            "quality": _sha(archive.quality.payload),
            "n_mapped": archive.n_mapped,
            "n_unmapped": archive.n_unmapped,
            "permutation": _sha(
                archive.permutation.astype("<i8").tobytes()),
        },
        "pigz": {
            "dna": _sha(pigz.compress_dna(read_set).payload),
            "quality": _sha(pigz.compress_quality(read_set).payload),
        },
    }


@pytest.mark.parametrize(
    "row", GOLDEN["baselines"],
    ids=[row["dataset"] + ("-edited" if row["edited"] else "")
         for row in GOLDEN["baselines"]])
def test_baseline_fingerprints(row):
    assert baseline_digests(row) == {"spring": row["spring"],
                                     "pigz": row["pigz"]}
