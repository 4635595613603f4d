"""Fig. 18 — compression time, split into mismatch finding vs encoding.

Genomic compressors (both the Spring analog and SAGe) are dominated by
finding mismatch information; their encoding back-ends differ but are a
small fraction.  pigz has no mismatch-finding phase at all.  CPU time
(``time.process_time``: every call below is single-process and
single-thread, and a busy host must not move the subtraction) is
measured on this repository's Python implementations — the *split*,
not the absolute time, is the reproduced quantity, so the split runs on
the scalar ``python`` mapper kernel (the reference the paper's
observation describes).  The table varies run to run, so
``results/fig18_comptime.txt`` is git-ignored; absolute encode
throughput per mapper kernel is ``bench/``'s ``encode_short`` /
``encode_long`` under ``SAGE_MAPPER``.
"""

import time

from repro.baselines import pigz
from repro.baselines.spring import SpringCompressor
from repro.core import SAGeCompressor, SAGeConfig
from repro.mapping import ReadMapper

from benchmarks.conftest import write_result

LABELS = ("RS2", "RS4")

#: Each pass is timed as the best of this many interleaved rounds.  On
#: RS2 the encode share is a few percent of a pass, below the spread of
#: one timing on a shared host, so a single round can put a tool's
#: total under its own find time.
ROUNDS = 3


def _best_times(*passes):
    """Fastest CPU time of each pass over ``ROUNDS`` interleaved rounds."""
    best = [float("inf")] * len(passes)
    for _ in range(ROUNDS):
        for i, run in enumerate(passes):
            t0 = time.process_time()
            run()
            best[i] = min(best[i], time.process_time() - t0)
    return best


def _split(sim):
    """(find_mismatches_s, encode_s) per tool for one dataset."""
    read_set, reference = sim.read_set, sim.reference

    def find():
        mapper = ReadMapper(reference)
        for read in read_set:
            mapper.map_read(read.codes)

    # The find/encode subtraction below pairs the scalar map_read pass
    # with a scalar-mapper compress; the batch kernel would erase the
    # very share this figure exists to show.
    def sage():
        SAGeCompressor(reference, SAGeConfig(with_quality=False,
                                             mapper_kernel="python")) \
            .compress(read_set)

    def spring():
        SpringCompressor(reference, with_quality=False).compress(read_set)

    def gzip():
        pigz.compress_dna(read_set)

    find_s, sage_total, spring_total, pigz_total = \
        _best_times(find, sage, spring, gzip)

    return {
        "pigz": (0.0, pigz_total),
        "(N)Spr": (find_s, max(1e-9, spring_total - find_s)),
        "SAGe": (find_s, max(1e-9, sage_total - find_s)),
    }


def test_fig18_compression_time(benchmark, bench_sims):
    lines = ["Fig. 18 — compression time split "
             "(normalized per dataset to the slowest tool)", "",
             f"{'dataset':<9}{'tool':<9}{'find':>8}{'encode':>8}"
             f"{'total':>8}  (fractions of slowest)"]
    splits = {}
    for label in LABELS:
        split = _split(bench_sims[label])
        splits[label] = split
        slowest = max(f + e for f, e in split.values())
        for tool, (find_s, encode_s) in split.items():
            lines.append(
                f"{label:<9}{tool:<9}{find_s/slowest:8.2f}"
                f"{encode_s/slowest:8.2f}"
                f"{(find_s+encode_s)/slowest:8.2f}")
    lines += [
        "",
        "paper: genomic compressors are dominated by mismatch finding; "
        "SAGe's encoding is slightly cheaper than (N)Spr's back-end; "
        "pigz is much faster overall (no mismatch finding).",
    ]
    write_result("fig18_comptime", "\n".join(lines))

    for label in LABELS:
        split = splits[label]
        sage_find, sage_encode = split["SAGe"]
        spr_find, spr_encode = split["(N)Spr"]
        pigz_total = sum(split["pigz"])
        # Mismatch finding dominates genomic compression.
        assert sage_find > sage_encode
        # SAGe's lightweight encoding beats the general-purpose back
        # end (with slack for timing noise in the find/total split).
        assert sage_encode < spr_encode * 1.2 + 0.25 * sage_find
        # pigz is faster than both genomic compressors end to end.
        assert pigz_total < sage_find + sage_encode
        assert pigz_total < spr_find + spr_encode

    small = bench_sims["RS4"].read_set.subset(range(10))
    mapper = ReadMapper(bench_sims["RS4"].reference)

    def _map_small():
        for read in small:
            mapper.map_read(read.codes)

    benchmark.pedantic(_map_small, rounds=2, iterations=1)
