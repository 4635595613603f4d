"""Baseline compressors: general-purpose (pigz analog) and genomic
(Spring/NanoSpring analog).  The entropy/LZ building blocks they share
with the archive's own header stream live under :mod:`repro.core`
(``huffman``, ``lz77``, ``deflate``)."""

from ..core.huffman import HuffmanTable
from . import pigz, spring
from .spring import SpringArchive, SpringCompressor

__all__ = [
    "pigz", "spring", "HuffmanTable", "SpringArchive", "SpringCompressor",
]
