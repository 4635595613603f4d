"""Fig. 18 — compression time, split into mismatch finding vs encoding.

Genomic compressors (both the Spring analog and SAGe) are dominated by
finding mismatch information; their encoding back-ends differ but are a
small fraction.  pigz has no mismatch-finding phase at all.

The split is taken inside one compress pass of a tool over a dataset.
Both genomic compressors map a read set in one ``map_batch`` call on the
mapper they build, so ``find`` is the CPU time (``time.process_time``:
every call below is single-process and single-thread) spent in the
tool's own mapping work — building its ``KmerIndex`` and
``ReadMapper.map_batch`` — and ``encode`` is the rest of the same pass.
Each tool makes three such passes, the tools taking turns, and reports
the split of its fastest one by total CPU time: interference from other
processes only adds time, so the fastest pass is the least disturbed.
Times are of this repository's Python implementations — the *split*, not
the absolute time, is the reproduced quantity, so SAGe maps on the
scalar ``python`` kernel, as Spring always does (the reference the
paper's observation describes).  The table varies run to run, so
``results/fig18_comptime.txt`` is git-ignored; absolute encode
throughput on the default mapper kernel is ``bench/``'s ``encode_short``
/ ``encode_long``.
"""

import time

from repro.baselines import pigz
from repro.baselines.spring import SpringCompressor
from repro.core import SAGeCompressor, SAGeConfig
from repro.mapping import ReadMapper
from repro.mapping.kmer_index import KmerIndex

from benchmarks.conftest import write_result

LABELS = ("RS2", "RS4")


def _clocked(method, clock):
    """``method``, adding the CPU time of every call to ``clock[0]``."""
    def timed(*args, **kwargs):
        t0 = time.process_time()
        try:
            return method(*args, **kwargs)
        finally:
            clock[0] += time.process_time() - t0
    return timed


#: Passes per tool and dataset; the fastest one's split is reported.
PASSES = 3


def _split(sim, find_clock):
    """(find_s, encode_s) per tool for one dataset, from the tool's
    fastest of :data:`PASSES` passes by total CPU time.  The tools take
    turns, one pass each per round, so a slow spell on the host lands on
    one pass of several tools rather than on every pass of one."""
    read_set, reference = sim.read_set, sim.reference
    tools = {
        "pigz": lambda: pigz.compress_dna(read_set),
        "(N)Spr": lambda: SpringCompressor(
            reference, with_quality=False).compress(read_set),
        "SAGe": lambda: SAGeCompressor(reference, SAGeConfig(
            with_quality=False, mapper_kernel="python")).compress(read_set),
    }
    passes = {tool: [] for tool in tools}
    for _ in range(PASSES):
        for tool, compress in tools.items():
            find_clock[0] = 0.0
            t0 = time.process_time()
            compress()
            passes[tool].append((time.process_time() - t0, find_clock[0]))
    split = {}
    for tool, runs in passes.items():
        total, find = min(runs)
        split[tool] = (find, total - find)
    return split


def test_fig18_compression_time(benchmark, bench_sims, monkeypatch):
    find_clock = [0.0]
    for owner, name in ((KmerIndex, "__init__"), (ReadMapper, "map_batch")):
        monkeypatch.setattr(owner, name,
                            _clocked(getattr(owner, name), find_clock))

    lines = ["Fig. 18 — compression time split "
             "(normalized per dataset to the slowest tool)", "",
             f"{'dataset':<9}{'tool':<9}{'find':>8}{'encode':>8}"
             f"{'total':>8}  (fractions of slowest)"]
    splits = {}
    for label in LABELS:
        split = _split(bench_sims[label], find_clock)
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
        # end (with 20 % slack for timing noise).
        assert sage_encode < spr_encode * 1.2
        # pigz is faster than both genomic compressors end to end.
        assert pigz_total < sage_find + sage_encode
        assert pigz_total < spr_find + spr_encode

    small = bench_sims["RS4"].read_set.subset(range(10))
    mapper = ReadMapper(bench_sims["RS4"].reference)
    benchmark.pedantic(lambda: mapper.map_batch(small.codes, small.offsets),
                       rounds=2, iterations=1)
