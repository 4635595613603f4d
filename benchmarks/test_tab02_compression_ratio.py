"""Table 2 — compression ratios for every read set, paper vs measured.

DNA and quality ratios are *measured* by running the three codecs in
this repository on the synthetic analogs.  The reproduced shape: SAGe is
within a few percent of the Spring analog, both are a multiple of the
pigz analog, RS2 compresses best and the long-read sets worst.
"""

from repro.core import SAGeDecompressor

from benchmarks.conftest import RS_LABELS, gmean, write_result

PAPER = {  # label -> (pigz_dna, spring_dna, sage_dna)
    "RS1": (3.39, 24.8, 22.8),
    "RS2": (12.5, 40.2, 36.8),
    "RS3": (3.41, 7.2, 7.1),
    "RS4": (3.93, 4.8, 4.5),
    "RS5": (3.5, 7.6, 7.8),
}


def test_tab02_compression_ratios(benchmark, bench_sims, sage_archives,
                                  spring_archives, pigz_blobs):
    lines = ["Table 2 — DNA compression ratios (paper vs measured)", "",
             f"{'set':<5}{'pigz(p)':>9}{'pigz(m)':>9}{'Spr(p)':>9}"
             f"{'Spr(m)':>9}{'SAGe(p)':>9}{'SAGe(m)':>9}"
             f"{'qual(m)':>9}"]
    measured = {}
    for label in RS_LABELS:
        bases = bench_sims[label].read_set.total_bases
        pigz_cr = bases / pigz_blobs[label]["dna"].byte_size
        spring_cr = bases / spring_archives[label].dna_byte_size()
        sage_cr = bases / sage_archives[label].dna_byte_size()
        qual_cr = bases / max(
            1, sage_archives[label].block(0).quality.byte_size)
        measured[label] = (pigz_cr, spring_cr, sage_cr)
        p = PAPER[label]
        lines.append(f"{label:<5}{p[0]:>9.2f}{pigz_cr:>9.2f}"
                     f"{p[1]:>9.2f}{spring_cr:>9.2f}"
                     f"{p[2]:>9.2f}{sage_cr:>9.2f}{qual_cr:>9.2f}")

    sage_over_pigz = gmean(measured[l][2] / measured[l][0]
                           for l in RS_LABELS)
    sage_vs_spring = gmean(measured[l][2] / measured[l][1]
                           for l in RS_LABELS)
    lines += [
        "",
        f"SAGe over pigz (GMean): measured {sage_over_pigz:.2f}x, "
        "paper 2.9x",
        f"SAGe vs (N)Spring (GMean): measured {sage_vs_spring:.3f}, "
        "paper 0.954 (-4.6%)",
    ]
    write_result("tab02_compression_ratio", "\n".join(lines))

    # Shape: genomic codecs far above general-purpose; SAGe ~= Spring.
    assert sage_over_pigz > 2.0
    assert 0.75 < sage_vs_spring < 1.35
    # Ordering across datasets mirrors the paper: RS2 best short set,
    # long sets at the bottom of the genomic range.
    assert measured["RS2"][2] == max(m[2] for m in measured.values())
    assert measured["RS4"][2] < measured["RS2"][2] / 2

    benchmark.pedantic(
        lambda: SAGeDecompressor(sage_archives["RS3"]).decompress(),
        rounds=1, iterations=1)
