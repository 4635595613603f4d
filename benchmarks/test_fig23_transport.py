"""Fig. 23 (repo extension) — zero-copy transport & selective decode.

Two claims about the streaming engine, measured on one blocked archive:

* **One transport** — every process-pool worker opens the archive
  itself, so a task is a bare block index: < 64 B per block whether or
  not the archive is file-backed.  A file-backed archive ships nothing
  else (workers map the same file); an archive that exists only in
  memory ships its blob once per pool.  Wall clocks of both are
  recorded, not asserted: there is no second transport to beat.
* **Stream selection** — a ``MappingRateSink`` analysis decodes only
  the sequence group, >= 2x fewer stream bits than a full decode,
  while a full selection stays byte-identical to the eager in-memory
  path under both codec kernels.
"""

import time

from repro.api import EngineOptions, SAGeDataset, atomic_write_bytes
from repro.core import SAGeArchive
from repro.core.kernels import available_kernels
from repro.genomics import fastq
from repro.genomics.reads import ReadSet

from benchmarks.conftest import write_result

LABEL = "RS2"
N_BLOCKS_TARGET = 12
PARALLEL_WORKERS = 4

#: Input repetitions: enlarges the decode workload (quality decode is
#: the dominant per-block cost) so pool startup doesn't dominate the
#: recorded wall clocks.
REPEATS = 2

#: Wall-clock measurements per archive kind (best time is recorded).
TRIALS = 3


def _process_pass(dataset: SAGeDataset):
    """One full process-backend streaming pass; returns its stats."""
    t0 = time.perf_counter()
    dataset.analyze("collect")
    wall = time.perf_counter() - t0
    return dataset.stats, wall


def test_fig23_transport(benchmark, bench_sims, tmp_path):
    sim = bench_sims[LABEL]
    reads = ReadSet(list(sim.read_set) * REPEATS, name=sim.read_set.name)
    block_reads = max(1, len(reads) // N_BLOCKS_TARGET)
    options = EngineOptions(block_reads=block_reads)
    blob = SAGeDataset.from_fastq(reads, reference=sim.reference,
                                  options=options).to_bytes()
    path = tmp_path / "fig23.sage"
    atomic_write_bytes(path, blob)
    n_blocks = SAGeArchive.from_bytes(blob).n_blocks
    assert n_blocks >= 8
    process = EngineOptions(backend="process", workers=PARALLEL_WORKERS)

    # (a) IPC traffic: a task is a block index either way; only the
    # in-memory archive also ships its blob, once per pool.
    memory_wall = file_wall = float("inf")
    memory_shipped = file_shipped = None
    for _ in range(TRIALS):
        eager = SAGeDataset(SAGeArchive.from_bytes(blob),
                            options=process)
        stats, wall = _process_pass(eager)
        memory_wall = min(memory_wall, wall)
        memory_shipped = stats.bytes_shipped
        with SAGeDataset.open(path, options=process) as lazy:
            stats, wall = _process_pass(lazy)
        file_wall = min(file_wall, wall)
        file_shipped = stats.bytes_shipped
    memory_tasks = memory_shipped - len(blob)
    for task_bytes in (file_shipped, memory_tasks):
        assert 0 < task_bytes < 64 * n_blocks, \
            f"{task_bytes / n_blocks:.0f} B per task"

    # (b) Selective decode + byte identity under both kernels.
    kernel_rows = []
    for codec in available_kernels():
        eager = SAGeDataset(SAGeArchive.from_bytes(blob),
                            options=EngineOptions(codec=codec))
        baseline = fastq.write(eager.read_set())
        with SAGeDataset.open(
                path, options=EngineOptions(codec=codec)) as lazy:
            assert fastq.write(lazy.read_set()) == baseline
            lazy.analyze("collect")
            full_bits = lazy.stats.stream_bits_total
            full_groups = dict(lazy.stats.streams_decoded)
            lazy.analyze("mapping-rate")
            rate_bits = lazy.stats.stream_bits_total
            rate_groups = dict(lazy.stats.streams_decoded)
        assert full_groups["quality"] > 0
        assert rate_groups["quality"] == 0
        assert rate_groups["headers"] == 0
        assert rate_groups["sequence"] > 0
        assert full_bits >= 2 * rate_bits, \
            f"{codec}: selective decode saved < 2x " \
            f"({rate_bits} of {full_bits} bits)"
        kernel_rows.append((codec, full_bits, rate_bits,
                            full_bits / max(1, rate_bits)))

    lines = [
        "Fig. 23 — zero-copy block transport & selective decode",
        "",
        f"dataset {LABEL}: {len(reads)} reads, {n_blocks} blocks "
        f"({block_reads} reads/block), process workers="
        f"{PARALLEL_WORKERS}, best of {TRIALS}",
        "",
        f"{'archive':<12}{'blob_once':>12}{'task_bytes':>12}"
        f"{'bytes/task':>12}{'wall_s':>10}",
        f"{'in-memory':<12}{len(blob):>12}{memory_tasks:>12}"
        f"{memory_tasks // n_blocks:>12}{memory_wall:>10.3f}",
        f"{'file-backed':<12}{0:>12}{file_shipped:>12}"
        f"{file_shipped // n_blocks:>12}{file_wall:>10.3f}",
        "",
        "a task is a bare block index (asserted < 64 B per block for "
        "both); wall clocks recorded, not asserted",
        "",
        f"{'kernel':<10}{'full_bits':>12}{'maprate_bits':>14}"
        f"{'savings':>10}",
    ]
    for codec, full_bits, rate_bits, ratio in kernel_rows:
        lines.append(f"{codec:<10}{full_bits:>12}{rate_bits:>14}"
                     f"{ratio:>9.1f}x")
    lines += [
        "",
        "full-selection mmap decode is byte-identical FASTQ to the "
        "eager in-memory path under every kernel",
    ]
    write_result("fig23_transport", "\n".join(lines))

    # Perf trajectory: one file-backed streaming pass.
    def _lazy_pass():
        with SAGeDataset.open(path) as lazy:
            lazy.analyze("mapping-rate")

    benchmark.pedantic(_lazy_pass, rounds=2, iterations=1)
