"""Read mapping substrate: k-mer index, alignment, seed-chain-extend.

A block's mappings are columns from the traceback on: ``(kind,
read_pos, length)`` op columns from ``alignment.trace_ops`` /
``trace_lanes``, one
``mapper.Placed`` part per kernel stage, and one ``MappedBlock`` table
per ``map_batch`` call.
"""

from . import alignment, batch, consensus
from .alignment import (AlignmentResult, global_align, prefix_free_align,
                        suffix_free_align)
from .batch import (DEFAULT_MAPPER, BatchReadMapper, MapperStats,
                    available_mappers, make_mapper, resolve_mapper)
from .kmer_index import AnchorHits, KmerIndex
from .mapper import MappedBlock, MapperConfig, ReadMapper

__all__ = [
    "alignment", "batch", "consensus", "AlignmentResult", "global_align",
    "prefix_free_align", "suffix_free_align", "AnchorHits", "KmerIndex",
    "MappedBlock", "MapperConfig", "ReadMapper", "BatchReadMapper",
    "MapperStats", "DEFAULT_MAPPER", "available_mappers", "resolve_mapper",
    "make_mapper",
]
