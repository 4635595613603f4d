"""Byte-identity across *commits*: archives and FASTQ pinned to a table.

The cross-kernel and cross-backend suites prove every path of one
commit agrees with every other; this file proves a commit agrees with
its predecessors.  ``golden_fingerprints.json`` holds sha256 digests of
the archive bytes and the decoded FASTQ for RS2/RS3/RS4 at
``block_reads`` 0 and 256, plus v3 and v4 blobs written by earlier
commits (each v3 blob with the digest of its v4 re-save).  A digest
that moves means the container bytes or the decoded output changed —
which is either a bug or a deliberate format change that must say so
and re-record the table.
"""

import hashlib
import io

import pytest

from repro.api import EngineOptions, SAGeDataset
from repro.core import SAGeArchive
from repro.genomics import datasets

from tests.conftest import GOLDEN, golden_blob


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fastq_sha(dataset: SAGeDataset, **options) -> str:
    """FASTQ digest of a sibling session with ``options`` replaced."""
    sibling = SAGeDataset(dataset.archive,
                          options=dataset.options.replace(**options),
                          decompressor=dataset.decompressor())
    buffer = io.StringIO()
    sibling.to_fastq(buffer)
    return _sha(buffer.getvalue().encode("ascii"))


@pytest.fixture(scope="module")
def sims():
    return {label: datasets.generate(label, base_genome=50_000, seed=1)
            for label in {row["dataset"] for row in GOLDEN["fingerprints"]}}


@pytest.mark.parametrize(
    "row", GOLDEN["fingerprints"],
    ids=[f"{row['dataset']}-{row['block_reads']}"
         for row in GOLDEN["fingerprints"]])
def test_archive_and_fastq_fingerprints(sims, row):
    sim = sims[row["dataset"]]
    dataset = SAGeDataset.from_fastq(
        sim.read_set, reference=sim.reference,
        options=EngineOptions(block_reads=row["block_reads"]))
    assert _sha(dataset.to_bytes()) == row["archive_sha256"]
    assert _fastq_sha(dataset) == row["fastq_sha256"]
    assert _fastq_sha(dataset, workers=2, backend="process") \
        == row["fastq_sha256"]


@pytest.mark.parametrize("name", sorted(GOLDEN["blobs"]))
def test_old_blobs_load_and_resave_byte_identically(name, tmp_path):
    golden = GOLDEN["blobs"][name]
    blob = golden_blob(name)
    # Only v4 is written: a v4 blob re-saves as itself, a v3 blob as
    # its pinned v4 re-save (for v3_blocked, the v4_blocked blob).
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
