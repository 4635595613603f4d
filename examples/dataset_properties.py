"""Dataset property study: why SAGe's encodings work (Figs. 7 and 10).

Maps two read-set analogs (short RS2, long RS4) against their references
and prints the distributions the paper uses to motivate each encoding
decision, plus the bit-width classes Algorithm 1 actually picks.

Run:  python examples/dataset_properties.py
"""

import numpy as np

from repro import SAGeConfig, SAGeDataset
from repro.analysis import analyze
from repro.genomics import datasets


def ascii_bar(fraction: float, width: int = 40) -> str:
    return "#" * max(0, round(fraction * width))


def property_report(label: str, base_genome: int) -> None:
    sim = datasets.generate(label, base_genome=base_genome)
    report = analyze(sim.read_set, sim.reference)
    print(f"=== {label}: {len(sim.read_set)} reads, "
          f"{report.n_chimeric} chimeric, "
          f"{report.n_unmapped} unmapped ===")

    hist = report.mismatch_pos_bitcount_hist()
    total = max(1, hist.sum())
    print("Fig 7(a) bits needed per delta-encoded mismatch position:")
    for bits in range(1, 11):
        frac = hist[bits] / total
        print(f"  {bits:>2} bits {frac:6.1%} {ascii_bar(frac)}")

    counts = report.mismatch_count_hist()
    ctotal = max(1, counts.sum())
    print("Fig 7(b) mismatches per read:")
    for count in range(min(6, counts.size)):
        frac = counts[count] / ctotal
        print(f"  {count:>2}      {frac:6.1%} {ascii_bar(frac)}")

    lengths, cdf = report.indel_length_cdf()
    if lengths.size > 1:
        _, bases_cdf = report.indel_bases_cdf()
        idx10 = np.searchsorted(lengths, 10)
        long_bases = 1 - (bases_cdf[idx10 - 1] if idx10 > 0 else 0.0)
        print(f"Fig 7(c/d) indel blocks: P(len=1)={cdf[0]:.1%}, "
              f"bases in blocks >=10: {long_bases:.1%}")

    fractions = report.matching_pos_bitcount_fractions()
    print("Fig 10 bits per delta-encoded matching position:")
    for bits in range(1, 9):
        frac = fractions[bits]
        print(f"  {bits:>2} bits {frac:6.1%} {ascii_bar(frac)}")

    # What Algorithm 1 does with those distributions:
    archive = SAGeDataset.from_fastq(
        sim.read_set, reference=sim.reference,
        config=SAGeConfig(with_quality=False)).archive
    print("Algorithm 1 tuned bit-width classes:")
    for key, table in archive.block(0).tables.items():
        print(f"  {key:<6} widths={table.widths}")
    print()


def main() -> None:
    property_report("RS2", base_genome=15_000)
    property_report("RS4", base_genome=12_000)


if __name__ == "__main__":
    main()
