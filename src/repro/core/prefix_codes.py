"""Variable-length prefix codes and the Association Table (§5.1.1).

SAGe's guide arrays tag each position-array entry with a *bit-width class*.
Classes are identified by unary prefix codes — ``0``, ``10``, ``110``,
``1110`` — with the shortest code assigned to the most frequent class.
The small Association Table records, per class, the bit width of the
corresponding array entries, and is stored in the compressed file header
so the Scan Unit can load it into its configuration registers.

The guide code is stated once, on the write side, by
:meth:`AssociationTable.guide_codes`: every value's code and field width
as columns, which the compressor's one field emitter writes.  The
reference walk reads a value back with :meth:`AssociationTable.decode`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bitio import BitReader, BitWriter
from .errors import CorruptArchiveError

#: Maximum number of bit-width classes (paper: |W| converges at d < 8).
MAX_CLASSES = 8

#: Widest field a class (or a block's read-length field) may have: a
#: 64-bit window read at any bit offset holds it whole, which is what
#: the numpy decode kernel reads every field through.  Field values are
#: bounded by read lengths and by the 40-bit consensus length, so the
#: encoder never needs more; the parser refuses a wider table.
MAX_WIDTH = 56


@dataclass(frozen=True)
class AssociationTable:
    """Maps unary class codes to field bit widths, in frequency order.

    ``widths[i]`` is the field width of the class whose unary code has
    ``i`` leading ones (so ``widths[0]`` belongs to code ``0``, the most
    frequent class).
    """

    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        # The table is decoded straight from the archive header, so a
        # bad one means corrupt wire data, not a caller mistake.
        if not 1 <= len(self.widths) <= MAX_CLASSES:
            raise CorruptArchiveError(
                f"need 1..{MAX_CLASSES} classes, got {len(self.widths)}",
                stream="association-table")
        for width in self.widths:
            if not 0 <= width <= MAX_WIDTH:
                raise CorruptArchiveError(
                    f"width {width} out of range",
                    stream="association-table")
        if len(set(self.widths)) != len(self.widths):
            raise CorruptArchiveError(
                "class widths must be distinct",
                stream="association-table")

    @classmethod
    def from_histogram(cls, widths: list[int],
                       counts: list[int]) -> "AssociationTable":
        """Order classes so more frequent classes get shorter codes."""
        if len(widths) != len(counts):
            raise ValueError("widths and counts must align")
        order = sorted(range(len(widths)),
                       key=lambda i: (-counts[i], widths[i]))
        return cls(tuple(widths[i] for i in order))

    @cached_property
    def widths_np(self) -> np.ndarray:
        """The class widths as an int64 array (vectorized lookups)."""
        return np.array(self.widths, dtype=np.int64)

    def classify(self, values) -> np.ndarray:
        """Every value's cheapest class: the one whose unary code plus
        field width is fewest bits, the lowest index on a tie."""
        values = np.asarray(values, dtype=np.int64)
        widths = self.widths_np
        limits = np.uint64(1) << widths.astype(np.uint64)
        fits = values.astype(np.uint64)[:, None] < limits[None, :]
        if values.size and not fits.any(axis=1).all():
            bad = values[~fits.any(axis=1)][0]
            raise ValueError(
                f"value {bad} exceeds all class widths {self.widths}")
        costs = np.arange(1, widths.size + 1) + widths
        costs = np.where(fits, costs[None, :], np.iinfo(np.int64).max)
        return np.argmin(costs, axis=1)

    def guide_codes(self, values) -> tuple[np.ndarray, np.ndarray,
                                           np.ndarray]:
        """Every value's guide code and field width, as columns
        ``(codes, code_widths, field_widths)``: a value of class ``c``
        (:meth:`classify`) is tagged by ``c`` ones and a terminating
        zero and stored in ``widths[c]`` bits."""
        classes = self.classify(values)
        return ((1 << classes) - 1) << 1, classes + 1, \
            self.widths_np[classes]

    def decode(self, guide: BitReader, array: BitReader) -> int:
        """Decode one value from guide + array streams."""
        idx = guide.read_unary()
        if idx >= len(self.widths):
            raise CorruptArchiveError(f"guide stream names class {idx}, "
                                      f"but table has {len(self.widths)}")
        return array.read(self.widths[idx])

    # ------------------------------------------------------------------
    # Header (de)serialization — the "Array Config. Parameters" the Scan
    # Unit loads in 8-bit chunks (§5.2).
    # ------------------------------------------------------------------

    def serialize(self, writer: BitWriter) -> None:
        """Write the table: 3-bit class count, then 6 bits per width."""
        writer.write(len(self.widths) - 1, 3)
        for width in self.widths:
            writer.write(width, 6)

    @classmethod
    def deserialize(cls, reader: BitReader) -> "AssociationTable":
        """Read a table previously written by :meth:`serialize`."""
        count = reader.read(3) + 1
        widths = tuple(reader.read(6) for _ in range(count))
        return cls(widths)
