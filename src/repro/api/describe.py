"""Machine-readable archive metadata: what ``sage inspect --json``
prints and what ``sage serve``'s ``/inspect`` answers (with the served
``archive`` name and ``path`` added)."""

from __future__ import annotations

from ..core.container import STREAM_NAMES, BlockIndexEntry, SAGeArchive
from ..core.errors import SAGeError
from .dataset import SAGeDataset

__all__ = ["describe"]


def _block_info(archive: SAGeArchive, index: int, entry: BlockIndexEntry
                ) -> tuple[dict, tuple[int, int, int] | None]:
    """Per-block metadata (read counts + compressed section sizes) and
    the block's :meth:`~repro.core.container.SAGeBlock.section_nbytes`.

    A damaged block reports its error instead of killing the whole
    description, and has no section sizes.
    """
    info = {"index": index, "n_reads": entry.n_reads,
            "first_read": entry.first_read, "bytes": entry.nbytes,
            "offset": entry.offset, "crc32": entry.crc32}
    try:
        blk = archive.block(index)
    except SAGeError as exc:
        info["error"] = str(exc)
        return info, None
    finally:
        # Keep the walk's memory at one parsed block: with an
        # mmap-backed archive it re-reads payload bytes from the page
        # cache, never materializing the whole archive.
        archive.release_block(index)
    info.update({
        "n_mapped": entry.n_mapped,
        "n_unmapped": entry.n_unmapped,
        # Static decoded-size estimate: what a server budgets its
        # decoded-block LRU cache with, without decoding anything.
        "decoded_nbytes_estimate": blk.decoded_nbytes_estimate(
            sum(map(len, archive.fallback_headers(index)))),
        "sections": {
            "meta_bytes": blk.meta_nbytes(),
            "stream_bytes": sum(len(payload)
                                for payload, _ in blk.streams.values()),
            "has_quality": blk.quality is not None,
            "quality_bytes": blk.quality.byte_size
            if blk.quality is not None else 0,
            "quality_model": blk.quality.model
            if blk.quality is not None else None,
            "has_headers": blk.headers_blob is not None,
            "headers_bytes": len(blk.headers_blob)
            if blk.headers_blob is not None else 0,
        },
        "stream_bits": {name: bits for name, (_, bits)
                        in sorted(blk.streams.items())},
    })
    return info, blk.section_nbytes()


def describe(dataset: SAGeDataset) -> dict:
    """Describe ``dataset``'s archive (the ``inspect --json`` object).

    One lazy pass: each block is parsed once for its per-block entry
    (then released), and the archive-wide stream-bit and byte-size
    totals are accumulated from those entries instead of re-walking
    every block per stream name.  On an mmap-backed archive only the
    global header, consensus, and block index stay resident.
    """
    archive = dataset.archive
    stream_totals: dict = dict.fromkeys(STREAM_NAMES, 0)
    stream_totals["consensus"] = archive.consensus[1]
    dna_byte_size = archive.header_fixed_nbytes() \
        + len(archive.consensus[0])
    extra_bytes = 0
    damaged = False
    blocks_info = []
    for i, entry in enumerate(archive.block_index()):
        block_info, nbytes = _block_info(archive, i, entry)
        blocks_info.append(block_info)
        if nbytes is None:
            damaged = True
            continue
        for name, bits in block_info["stream_bits"].items():
            stream_totals[name] += bits
        dna, quality, headers = nbytes
        dna_byte_size += dna
        extra_bytes += quality + headers
    if damaged:
        # A damaged block breaks every archive-wide sum.
        stream_totals = {name: None if name != "consensus" else bits
                         for name, bits in stream_totals.items()}
        byte_size = dna_byte_size = None
    else:
        byte_size = dna_byte_size + extra_bytes
    try:
        first = archive.block(0)
    except SAGeError:
        first = None   # block 0 is damaged; degrade below
    info = {
        "format_version": archive.source_version,
        "integrity": dataset.verify().status,
        "header_crc32": archive.header_crc32(),
        "consensus_crc32": archive.consensus_crc32(),
        "level": archive.level.name,
        "n_reads": archive.n_reads,
        "n_mapped": archive.n_mapped,
        "n_unmapped": archive.n_unmapped,
        "consensus_length": archive.consensus_length,
        "long_reads": archive.long_reads,
        "fixed_read_length": archive.fixed_read_length
        if archive.fixed_length else None,
        "preserve_order": archive.preserve_order,
        "quality": first.quality is not None if first else None,
        "headers": first.headers_blob is not None if first else None,
        "block_reads": archive.block_reads,
        "n_blocks": archive.n_blocks,
        "blocks": blocks_info,
        # What a whole-archive FASTQ body costs a cache (damaged blocks
        # have no estimate and count 0).
        "decoded_nbytes_estimate_total": sum(
            block.get("decoded_nbytes_estimate", 0)
            for block in blocks_info),
        "stream_bits": {name: bits
                        for name, bits in sorted(stream_totals.items())},
        "tables": {key: list(table.widths)
                   for key, table in first.tables.items()} if first else None,
        "byte_size": byte_size,
        "dna_byte_size": dna_byte_size,
    }
    archive.release_block(0)
    if archive.breakdown.bits:
        info["breakdown_bits"] = dict(archive.breakdown.bits)
    return info
