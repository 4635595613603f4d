"""Device commands + downstream variant calling (§5.4 and §5.1.5).

Stores a compressed cohort on a simulated SAGe SSD with `SAGe_Write`,
streams it back through the hardware model with `SAGe_Read`, calls
variants on the decoded reads, and measures which quality blocks the
caller would actually touch — the analysis behind the paper's decision
to decompress quality scores on the host.

Run:  python examples/device_and_variants.py
"""

from repro import SAGeDataset
from repro.analysis.variants import (call_variants, host_quality_headroom,
                                     pileup, quality_block_access)
from repro.core import OutputFormat
from repro.genomics import datasets
from repro.hardware.device import SAGeDevice
from repro.hardware.ssd import pcie_ssd


def main() -> None:
    sim = datasets.generate("RS2", base_genome=15_000)
    device = SAGeDevice(ssd=pcie_ssd())

    # SAGe_Write: compress through the facade, place with the striped
    # genomic layout.
    archive = SAGeDataset.from_fastq(sim.read_set,
                                     reference=sim.reference).archive
    nbytes = device.sage_write("cohort.sage", archive)
    report = device.layout_report("cohort.sage")
    print(f"SAGe_Write: {nbytes:,} B across {report['pages']} pages, "
          f"stripe-aligned={report['aligned']}, "
          f"{report['channels_per_stripe']:.1f} channels/stripe")

    # SAGe_Read: stream back through the SU/RCU array, 2-bit output.
    result = device.sage_read("cohort.sage", fmt=OutputFormat.TWO_BIT,
                              materialize=False)
    print(f"SAGe_Read: {len(result.reads)} reads, "
          f"NAND {1e3 * result.nand_time_s:.2f} ms, "
          f"decode {1e3 * result.decode_time_s:.2f} ms, "
          f"delivery {1e3 * result.delivery_time_s:.2f} ms "
          f"(bottleneck: {max(('nand', result.nand_time_s), ('decode', result.decode_time_s), ('link', result.delivery_time_s), key=lambda kv: kv[1])[0]})")

    # Downstream analysis: map, call variants.
    reads = result.reads
    evidence = pileup(reads, sim.reference)
    calls = call_variants(reads, sim.reference, min_alt_fraction=0.7,
                          evidence=evidence)
    print(f"variant calling: {len(calls)} sites over "
          f"{sim.reference.size:,} consensus bases")

    # §5.1.5: how much of the quality stream does the caller touch?
    access = quality_block_access(reads, evidence, calls,
                                  block_size=2_048)
    headroom = host_quality_headroom()
    print(f"quality blocks accessed: {access.accessed_blocks} of "
          f"{access.n_blocks} ({access.fraction:.1%})")
    print(f"host-decode headroom: safe up to {headroom:.1%} of blocks "
          f"(paper: ~17%) -> host-side quality decompression is "
          f"{'OFF' if access.fraction < headroom else 'ON'} "
          "the critical path")


if __name__ == "__main__":
    main()
