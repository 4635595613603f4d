"""repro.api — the :class:`SAGeDataset` session facade.

One stable API over archives, streams, sinks and engine options: the
CLI, the examples, the benchmarks, the end-to-end model and the
hardware verification all sit on this package instead of re-wiring the
compressor/decompressor/executor plumbing themselves.

    from repro.api import EngineOptions, SAGeDataset

    ds = SAGeDataset.from_fastq("in.fastq", reference="ref.txt",
                                options=EngineOptions(workers=4,
                                                      block_reads=4096))
    ds.save("reads.sage")
    with SAGeDataset.open("reads.sage") as ds:
        report, rate = ds.pipe("property").pipe("mapping-rate").run()
"""

from ..core.errors import (BlockDecodeError, CorruptArchiveError,
                           SAGeError, TruncatedArchiveError)
from ..core.options import ON_ERROR, EngineOptions
from ..core.selection import STREAM_GROUPS, StreamSelection
from .cache import CacheStats, DecodedBlockCache, SingleFlight
from .dataset import (Pipeline, SAGeDataset, SalvageReport, SourceTotals,
                      VerifyReport, atomic_write_bytes)
from .describe import describe
from .sinks import CallableSink, available_sinks, result_info

__all__ = [
    "BlockDecodeError", "CacheStats", "CallableSink",
    "CorruptArchiveError", "DecodedBlockCache", "EngineOptions",
    "ON_ERROR", "Pipeline", "STREAM_GROUPS", "SAGeDataset", "SAGeError",
    "SalvageReport", "SingleFlight", "SourceTotals", "StreamSelection",
    "TruncatedArchiveError", "VerifyReport", "atomic_write_bytes",
    "available_sinks", "describe", "result_info",
]
