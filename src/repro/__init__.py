"""repro — reproduction of SAGe (HPCA 2026).

SAGe is an algorithm-architecture co-design for highly-compressed storage
and high-performance access of genomic sequence data, mitigating the data
preparation bottleneck in genome sequence analysis.  This package provides
the full system: the SAGe codec and hardware model, the genomic data
substrate, baseline compressors, SSD/DRAM/interconnect models, and the
end-to-end pipeline evaluation used to regenerate the paper's figures.

Quickstart — the :class:`SAGeDataset` facade is the one API over
archives, streams, sinks and engine options::

    from repro import EngineOptions, SAGeDataset, genomics

    sim = genomics.datasets.generate("RS2", base_genome=20_000)
    options = EngineOptions(block_reads=4096, workers=4)
    dataset = SAGeDataset.from_fastq(sim.read_set,
                                     reference=sim.reference,
                                     options=options)
    dataset.save("reads.sage")

    with SAGeDataset.open("reads.sage", options=options) as ds:
        report, rate = ds.pipe("property").pipe("mapping-rate").run()
        reads = ds.read_set()            # lossless round trip
"""

from . import analysis, baselines, core, genomics, hardware, mapping, pipeline
from . import api
from .api import EngineOptions, Pipeline, SAGeDataset, available_sinks
from .core import (OptLevel, SAGeArchive, SAGeCompressor, SAGeConfig,
                   SAGeDecompressor)

__version__ = "1.1.0"

__all__ = [
    "analysis", "api", "baselines", "core", "genomics", "hardware",
    "mapping", "pipeline", "EngineOptions", "Pipeline", "SAGeDataset",
    "available_sinks", "OptLevel",
    "SAGeArchive", "SAGeCompressor", "SAGeConfig", "SAGeDecompressor",
    "__version__",
]
