"""Overlapped streaming decode feeding pipelined analysis sinks (§7).

The paper's pipeline overlaps data preparation with analysis: while
block *i+1* is being decompressed, the consumer analyzes block *i*.
This example realizes that through the `SAGeDataset` facade — it
compresses a read set into an independently decodable blocked archive,
then drives property analysis, FASTQ re-emission, and a custom callable
sink through one fluent `pipe(...).run()` pass *directly off the
archive*, without ever materializing the FASTQ.

Run:  python examples/streaming_analyze.py
"""

import io
import tempfile
from pathlib import Path

from repro import EngineOptions, SAGeDataset
from repro.genomics import datasets
from repro.pipeline import FastqSink

OPTIONS = EngineOptions(block_reads=32, workers=2)


def main() -> None:
    # A blocked archive: each block decodes independently.
    sim = datasets.generate("RS3", base_genome=12_000)
    compressed = SAGeDataset.from_fastq(sim.read_set,
                                        reference=sim.reference,
                                        options=OPTIONS)
    print(f"archive: {len(sim.read_set)} reads in {compressed.n_blocks} "
          f"independently decodable blocks")
    with tempfile.TemporaryDirectory() as tmp:
        # Pool workers open the archive file themselves: save it, then
        # open it as the session the passes run on.
        path = Path(tmp) / "reads.sage"
        compressed.save(path)
        with SAGeDataset.open(path, options=OPTIONS) as dataset:
            analyze(dataset, len(sim.read_set))


def analyze(dataset: SAGeDataset, n_reads: int) -> None:
    # Decode blocks on worker processes with bounded prefetch while the
    # sinks consume earlier blocks — prep overlaps analysis, and memory
    # stays bounded by the in-flight window, not the dataset.  One pass
    # analyzes the reads ("property" is a built-in sink name), re-emits
    # them as FASTQ (rendered in the workers), and feeds a bare callable.
    fastq_out = io.StringIO()
    report, n_written, block_sizes = (
        dataset.pipe("property")
               .pipe(FastqSink(fastq_out))
               .pipe(lambda block: len(block))
               .run())
    assert n_written == n_reads
    assert sum(block_sizes) == n_reads

    stats = dataset.stats
    print(f"streamed {stats.blocks} blocks ({stats.reads} reads, "
          f"{stats.bases:,} bases) with workers={OPTIONS.workers}; "
          f"peak in-flight blocks: {stats.peak_inflight} "
          f"(window bound: {OPTIONS.window})")

    mapped = report.n_reads - report.n_unmapped
    print(f"mapping rate: {mapped / max(1, report.n_reads):.1%} "
          f"({report.n_unmapped} unmapped of {report.n_reads}); "
          f"{n_written} reads re-emitted as FASTQ "
          f"({len(fastq_out.getvalue()):,} B)")
    counts = report.mismatch_count_hist()
    total = max(1, counts.sum())
    print(f"mismatch-free mapped reads: {counts[0] / total:.1%} "
          f"(Fig. 7b head)")

    # The same engine backs the plain streaming iterators: consume
    # block i while block i+1 decodes.
    first = next(dataset.blocks())
    assert len(first) == block_sizes[0]
    print(f"first decoded block: {len(first)} reads "
          f"(headers {first[0].header!r} ...)")


if __name__ == "__main__":
    main()
