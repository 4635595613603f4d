"""Shared benchmark fixtures: analog datasets, compressed archives,
measured dataset models, and a results writer.

Scale knob: SAGE_BENCH_GENOME (base genome length, default 30000).
Each benchmark regenerates one paper table/figure and writes a text
artifact under results/.  Tracked artifacts are deterministic: they
regenerate byte-identically, and CI fails on a diff under results/.
Wall-clock numbers belong to ``bench/``; the one table here that
depends on them (fig18) is git-ignored.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.baselines import pigz
from repro.baselines.spring import SpringCompressor
from repro.core import SAGeCompressor, SAGeConfig
from repro.genomics import datasets
from repro.pipeline.configs import DatasetModel, dataset_from_paper

BENCH_GENOME = int(os.environ.get("SAGE_BENCH_GENOME", "30000"))
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

RS_LABELS = ("RS1", "RS2", "RS3", "RS4", "RS5")


def write_result(name: str, text: str) -> Path:
    """Persist a regenerated table under results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text, encoding="utf-8")
    print(f"\n{text}")
    return path


@pytest.fixture(scope="session")
def bench_sims():
    """The five RS analogs at benchmark scale."""
    sims = {}
    for label in RS_LABELS:
        t0 = time.time()
        sims[label] = datasets.generate(label, base_genome=BENCH_GENOME)
        print(f"[bench] generated {label}: "
              f"{len(sims[label].read_set)} reads "
              f"({time.time() - t0:.1f}s)")
    return sims


@pytest.fixture(scope="session")
def sage_archives(bench_sims):
    """SAGe archives (with quality) for every analog."""
    archives = {}
    for label, sim in bench_sims.items():
        t0 = time.time()
        compressor = SAGeCompressor(sim.reference, SAGeConfig())
        archives[label] = compressor.compress(sim.read_set)
        print(f"[bench] SAGe-compressed {label} "
              f"({time.time() - t0:.1f}s)")
    return archives


@pytest.fixture(scope="session")
def spring_archives(bench_sims):
    """Spring-analog archives for every analog."""
    archives = {}
    for label, sim in bench_sims.items():
        t0 = time.time()
        compressor = SpringCompressor(sim.reference)
        archives[label] = compressor.compress(sim.read_set)
        print(f"[bench] Spring-compressed {label} "
              f"({time.time() - t0:.1f}s)")
    return archives


@pytest.fixture(scope="session")
def pigz_blobs(bench_sims):
    """pigz-analog DNA and quality stream blobs for every analog."""
    blobs = {}
    for label, sim in bench_sims.items():
        t0 = time.time()
        blobs[label] = {
            "dna": pigz.compress_dna(sim.read_set),
            "qual": pigz.compress_quality(sim.read_set),
        }
        print(f"[bench] pigz-compressed {label} "
              f"({time.time() - t0:.1f}s)")
    return blobs


@pytest.fixture(scope="session")
def measured_models(bench_sims, sage_archives, spring_archives,
                    pigz_blobs) -> dict[str, DatasetModel]:
    """Dataset models with *measured* compression ratios.

    Sizes (total bases) stay at paper scale so makespans are comparable;
    the compression ratios feeding the I/O stages are measured on the
    synthetic analogs by the actual codecs in this repository.
    """
    models = {}
    for label, sim in bench_sims.items():
        model = dataset_from_paper(label)
        bases = sim.read_set.total_bases
        sage_arc = sage_archives[label]
        spring_arc = spring_archives[label]
        model.dna_cr = {
            "sage": bases / sage_arc.dna_byte_size(),
            "spring": bases / spring_arc.dna_byte_size(),
            "pigz": bases / pigz_blobs[label]["dna"].byte_size,
        }
        qual_bytes = bases  # one quality byte per base
        model.qual_cr = {
            "sage": qual_bytes
            / max(1, sage_arc.block(0).quality.byte_size),
            "spring": qual_bytes / max(1, spring_arc.quality.byte_size),
            "pigz": qual_bytes / pigz_blobs[label]["qual"].byte_size,
        }
        models[label] = model
    return models


def gmean(values):
    values = list(values)
    out = 1.0
    for v in values:
        out *= v
    return out ** (1.0 / len(values))
