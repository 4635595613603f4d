"""Read mapping substrate: k-mer index, alignment, seed-chain-extend."""

from . import alignment, batch, consensus
from .alignment import (AlignmentResult, EditOp, global_align,
                        prefix_free_align, suffix_free_align)
from .batch import (DEFAULT_MAPPER, BatchReadMapper, MapperStats,
                    available_mappers, make_mapper, resolve_mapper)
from .kmer_index import AnchorHits, KmerIndex
from .mapper import (MappedBlock, MappedSegment, MapperConfig, MappingResult,
                     ReadMapper)

__all__ = [
    "alignment", "batch", "consensus", "AlignmentResult", "EditOp",
    "global_align", "prefix_free_align", "suffix_free_align",
    "AnchorHits", "KmerIndex", "MappedBlock", "MappedSegment", "MapperConfig",
    "MappingResult", "ReadMapper", "BatchReadMapper",
    "MapperStats", "DEFAULT_MAPPER", "available_mappers", "resolve_mapper",
    "make_mapper",
]
