"""SAGe core: the paper's compression/decompression contribution (§5)."""

from . import bitio, blocks, errors, formats, kernels, prefix_codes, \
    quality, selection, tuning
from .blocks import BlockCompressor, imap_bounded
from .compressor import SAGeCompressor, SAGeConfig
from .container import (BlockIndexEntry, ContainerError, SAGeArchive,
                        SAGeBlock)
from .decompressor import DecompressionError, SAGeDecompressor
from .errors import (BlockDecodeError, CompressionError,
                     CorruptArchiveError, SAGeError, TruncatedArchiveError)
from .formats import OutputFormat
from .kernels import (CodecKernel, available_kernels, get_kernel,
                      register_kernel, resolve_codec)
from .mismatch import CATEGORIES, OptLevel, SizeBreakdown
from .options import BACKENDS, DEFAULT_BLOCK_READS, INFLIGHT_PER_WORKER
from .prefix_codes import AssociationTable
from .selection import STREAM_GROUPS, StreamSelection, decoded_stream_bits
from .tuning import TuningResult, bit_count_histogram, tune, tune_values

__all__ = [
    "bitio", "blocks", "errors", "formats", "kernels", "prefix_codes",
    "quality", "selection", "tuning",
    "BlockDecodeError", "CorruptArchiveError", "SAGeError",
    "TruncatedArchiveError",
    "BACKENDS", "DEFAULT_BLOCK_READS", "INFLIGHT_PER_WORKER",
    "BlockCompressor",
    "STREAM_GROUPS", "StreamSelection", "decoded_stream_bits",
    "imap_bounded", "CompressionError", "SAGeCompressor", "SAGeConfig",
    "BlockIndexEntry", "ContainerError", "SAGeArchive",
    "SAGeBlock", "DecompressionError", "SAGeDecompressor",
    "OutputFormat", "CATEGORIES", "OptLevel", "SizeBreakdown",
    "CodecKernel", "available_kernels", "get_kernel", "register_kernel",
    "resolve_codec",
    "AssociationTable", "TuningResult", "bit_count_histogram", "tune",
    "tune_values",
]
