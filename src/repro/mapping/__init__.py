"""Read mapping substrate: k-mer index, alignment, seed-chain-extend."""

from . import alignment, batch, consensus
from .alignment import (AlignmentResult, EditOp, apply_ops, global_align,
                        prefix_free_align, suffix_free_align)
from .batch import (DEFAULT_MAPPER, BatchReadMapper, MapperStats,
                    available_mappers, make_mapper, resolve_mapper)
from .kmer_index import AnchorHits, KmerIndex
from .mapper import (MappedSegment, MapperConfig, MappingResult, ReadMapper,
                     reconstruct)

__all__ = [
    "alignment", "batch", "consensus", "AlignmentResult", "EditOp",
    "apply_ops", "global_align", "prefix_free_align", "suffix_free_align",
    "AnchorHits", "KmerIndex", "MappedSegment", "MapperConfig",
    "MappingResult", "ReadMapper", "reconstruct", "BatchReadMapper",
    "MapperStats", "DEFAULT_MAPPER", "available_mappers", "resolve_mapper",
    "make_mapper",
]
