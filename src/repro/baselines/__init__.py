"""Baseline compressors: general-purpose (pigz analog) and genomic
(Spring/NanoSpring analog), plus the shared entropy/LZ building blocks."""

from ..core.huffman import HuffmanTable, entropy_bits
from . import deflate, lz77, pigz, spring
from .deflate import DeflateBlob
from .pigz import PigzArchive, compress_read_set, decompress_read_set
from .spring import SpringArchive, SpringCompressor, SpringDecompressor

__all__ = [
    "deflate", "lz77", "pigz", "spring", "DeflateBlob",
    "HuffmanTable", "entropy_bits", "PigzArchive", "compress_read_set",
    "decompress_read_set", "SpringArchive", "SpringCompressor",
    "SpringDecompressor",
]
