"""Baseline compressors: general-purpose (pigz analog) and genomic
(Spring/NanoSpring analog).  The entropy/LZ building blocks they share
with the archive's own header stream live under :mod:`repro.core`
(``huffman``, ``lz77``, ``deflate``)."""

from ..core.huffman import HuffmanTable, entropy_bits
from . import pigz, spring
from .pigz import PigzArchive, compress_read_set, decompress_read_set
from .spring import SpringArchive, SpringCompressor, SpringDecompressor

__all__ = [
    "pigz", "spring",
    "HuffmanTable", "entropy_bits", "PigzArchive", "compress_read_set",
    "decompress_read_set", "SpringArchive", "SpringCompressor",
    "SpringDecompressor",
]
