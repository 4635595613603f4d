"""Reference-free compression: deriving the consensus from the reads.

The paper's consensus can be "a user-provided reference or a de-duplicated
string derived from the reads" (§2.2).  This example compresses a read set
with no reference at all: a greedy de Bruijn walk over the reads builds
the consensus (as reference-free genomic compressors do), and SAGe
compresses against it.  Useful for portable/field sequencing where no
curated reference is at hand.

Run:  python examples/reference_free.py
"""

import numpy as np

from repro import SAGeConfig, SAGeDataset
from repro.genomics.simulator import ReadSimulator, short_read_profile
from repro.mapping.consensus import denovo_consensus


def main() -> None:
    # High-accuracy short reads from an *unknown* genome.
    profile = short_read_profile(sub_rate=0.001, snp_rate=0.0,
                                 indel_variant_rate=0.0)
    sim = ReadSimulator(profile, np.random.default_rng(3))
    result = sim.simulate(12_000, 1_400)
    read_set = result.read_set
    print(f"reads: {len(read_set)} x {len(read_set[0])} bp "
          f"({read_set.total_bases:,} bases), no reference provided")

    # Build the consensus from the reads themselves.
    consensus = denovo_consensus(read_set, k=21)
    print(f"de-novo consensus: {consensus.size:,} bases "
          f"(donor genome was {result.donor.sequence.size:,})")

    # Compress against it — the facade takes any consensus array.
    config = SAGeConfig(with_quality=False)
    dataset = SAGeDataset.from_fastq(read_set, reference=consensus,
                                     config=config)
    archive = dataset.archive
    cr = read_set.total_bases / archive.dna_byte_size()
    print(f"DNA compression ratio (reference-free): {cr:.1f}x "
          f"({archive.n_unmapped} reads stored raw)")

    restored = dataset.read_set()
    assert sorted(r.codes.tobytes() for r in restored) \
        == sorted(r.codes.tobytes() for r in read_set)
    print("round trip: lossless")

    # Reference mode for comparison.
    ref_archive = SAGeDataset.from_fastq(read_set,
                                         reference=result.reference,
                                         config=config).archive
    ref_cr = read_set.total_bases / ref_archive.dna_byte_size()
    print(f"with the true reference instead: {ref_cr:.1f}x")


if __name__ == "__main__":
    main()
