"""Bit-granular stream I/O.

SAGe's arrays and guide arrays are sequences of variable-width fields that
hardware consumes as a bit stream with small shift registers (§5.2).  The
software model mirrors that: :class:`BitWriter` packs MSB-first fields into
bytes, :class:`BitReader` consumes them strictly sequentially — there is no
random access, by construction, matching the streaming-access contract.

:class:`BitWriter` is the one stream writer — every archive stream, the
quality codec and the container are written through it — and
:class:`BitReader` the one sequential reader: the reference walk, the
numpy decode kernel's side streams (:mod:`repro.core.kernels`), the
container and quality parsers, and the hardware model, whose units'
consumed bits are each stream reader's :attr:`BitReader.position` after
the walk.  The numpy kernel's hot streams skip the reader altogether and
gather fields from whole-stream windows.
"""

from __future__ import annotations

import numpy as np

from .errors import SAGeError

#: Fields in a :meth:`BitWriter.write_fields` run from which packing
#: them with numpy beats the inlined loop.
_PACK_FIELDS = 96


class BitIOError(SAGeError):
    """Raised on invalid bit-level reads or writes."""


class BitWriter:
    """Append-only MSB-first bit stream writer."""

    __slots__ = ("_bytes", "_acc", "_nbits", "_total_bits")

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0          # pending bits, MSB side filled first
        self._nbits = 0        # number of pending bits in _acc
        self._total_bits = 0

    def __len__(self) -> int:
        return self._total_bits

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return self._total_bits

    def write(self, value: int, nbits: int) -> None:
        """Write ``value`` as an ``nbits``-wide big-endian field."""
        if nbits < 0:
            raise BitIOError("field width must be non-negative")
        if nbits == 0:
            return
        if value < 0 or value >> nbits:
            raise BitIOError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        self._total_bits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._bytes.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def write_run(self, values, nbits: int) -> None:
        """Write every value of ``values`` as an ``nbits``-wide field.

        Bulk counterpart of :meth:`write` for runs of same-width fields
        (insertion bases, raw matching positions, order permutations);
        the emitted bits are identical to writing each value in a loop,
        without per-value method dispatch.  Accepts any iterable,
        including numpy arrays.
        """
        if nbits < 0:
            raise BitIOError("field width must be non-negative")
        if nbits == 0:
            return
        if hasattr(values, "tolist"):          # numpy array fast path
            values = values.tolist()
        acc = self._acc
        nb = self._nbits
        out = self._bytes
        count = 0
        for value in values:
            if value < 0 or value >> nbits:
                # Restore a consistent prefix before failing, exactly as
                # a per-value write loop would have left it.
                self._acc, self._nbits = acc, nb
                self._total_bits += count * nbits
                raise BitIOError(
                    f"value {value} does not fit in {nbits} bits")
            acc = (acc << nbits) | value
            nb += nbits
            count += 1
            while nb >= 8:
                nb -= 8
                out.append((acc >> nb) & 0xFF)
            acc &= (1 << nb) - 1
        self._acc, self._nbits = acc, nb
        self._total_bits += count * nbits

    def write_fields(self, values, widths) -> None:
        """Write paired ``values[i]`` as ``widths[i]``-wide fields.

        Bulk counterpart of :meth:`write` for runs of *variable*-width
        fields — the batched emission primitive of
        :meth:`repro.core.prefix_codes.AssociationTable.encode_run` and
        of the compressor, which writes each block stream in one call.
        The emitted bits are identical
        to writing each pair in a loop; a long run is packed with numpy.
        """
        if len(values) >= _PACK_FIELDS and self._pack_fields(values, widths):
            return
        if hasattr(values, "tolist"):
            values = values.tolist()
        if hasattr(widths, "tolist"):
            widths = widths.tolist()
        acc = self._acc
        nb = self._nbits
        out = self._bytes
        written = 0
        for value, nbits in zip(values, widths):
            if nbits <= 0 or value < 0 or value >> nbits:
                if nbits == 0:
                    continue
                # Fail as a per-field loop would, its prefix written.
                self._acc, self._nbits = acc, nb
                self._total_bits += written
                return self.write(value, nbits)
            acc = (acc << nbits) | value
            nb += nbits
            written += nbits
            while nb >= 8:
                nb -= 8
                out.append((acc >> nb) & 0xFF)
            acc &= (1 << nb) - 1
        self._acc, self._nbits = acc, nb
        self._total_bits += written

    def _pack_fields(self, values, widths) -> bool:
        """:meth:`write_fields` in one vectorized pass: every field
        (the pending bits first) expands to its bits, ``packbits`` makes
        the bytes.  ``False`` — nothing written — when a field is
        invalid or wider than an ``int64`` shift, which the loop handles
        (and reports) field by field."""
        values = np.asarray(values, dtype=np.int64)
        widths = np.asarray(widths, dtype=np.int64)
        if widths.min() < 0 or widths.max() > 63 \
                or (values >> widths).any():
            return False
        total = int(widths.sum())
        values = np.concatenate(([self._acc], values))
        widths = np.concatenate(([self._nbits], widths))
        shifts = np.repeat(np.cumsum(widths), widths) - 1 \
            - np.arange(self._nbits + total)
        packed = np.packbits(
            (np.repeat(values, widths) >> shifts).astype(np.uint8) & 1)
        whole, self._nbits = divmod(self._nbits + total, 8)
        self._bytes += packed[:whole].tobytes()
        self._acc = int(packed[whole]) >> (8 - self._nbits) \
            if self._nbits else 0
        self._total_bits += total
        return True

    def write_bit(self, bit: int) -> None:
        """Write a single bit (0 or 1)."""
        self.write(1 if bit else 0, 1)

    def write_unary(self, value: int) -> None:
        """Write ``value`` ones followed by a terminating zero.

        This is the paper's guide-array prefix family: 0, 10, 110, 1110…
        """
        if value < 0:
            raise BitIOError("unary value must be non-negative")
        for _ in range(value):
            self.write(1, 1)
        self.write(0, 1)

    def align_to_byte(self) -> None:
        """Zero-pad forward to the next byte boundary."""
        if self._nbits:
            self.write(0, 8 - self._nbits)

    def write_bytes(self, data: bytes) -> None:
        """Write raw bytes (bit-aligned within the stream)."""
        if self._nbits == 0:
            self._bytes.extend(data)
            self._total_bits += 8 * len(data)
        else:
            for byte in data:
                self.write(byte, 8)

    def getvalue(self) -> bytes:
        """The stream contents, zero-padded to a byte boundary."""
        out = bytearray(self._bytes)
        if self._nbits:
            out.append((self._acc << (8 - self._nbits)) & 0xFF)
        return bytes(out)


class BitReader:
    """Strictly sequential MSB-first bit stream reader.

    ``name`` (optional) labels the stream in error messages, so a read
    past the end of e.g. the mismatch-position array reports *which*
    stream ran dry and at what bit offset.
    """

    __slots__ = ("_data", "_limit", "_pos", "name")

    def __init__(self, data: bytes, bit_length: int | None = None, *,
                 name: str = "") -> None:
        self._data = data
        self.name = name
        self._limit = 8 * len(data) if bit_length is None else bit_length
        if self._limit > 8 * len(data):
            raise BitIOError(
                f"{name or 'bit stream'}: bit_length {self._limit} "
                f"exceeds the {8 * len(data)}-bit buffer")
        self._pos = 0

    def _past_end(self, nbits: int) -> BitIOError:
        """A contextual past-end error: stream name + bit offset."""
        return BitIOError(
            f"{self.name or 'bit stream'}: read of {nbits} bits past end "
            f"at bit {self._pos} (stream is {self._limit} bits)")

    @property
    def position(self) -> int:
        """Current bit offset from the start of the stream."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Bits left before the end of the stream."""
        return self._limit - self._pos

    def read(self, nbits: int) -> int:
        """Read an ``nbits``-wide big-endian field."""
        if nbits < 0:
            raise BitIOError("field width must be non-negative")
        if nbits == 0:
            return 0
        if self._pos + nbits > self._limit:
            raise self._past_end(nbits)
        value = 0
        pos = self._pos
        need = nbits
        while need:
            byte = self._data[pos >> 3]
            offset = pos & 7
            take = min(8 - offset, need)
            chunk = (byte >> (8 - offset - take)) & ((1 << take) - 1)
            value = (value << take) | chunk
            pos += take
            need -= take
        self._pos = pos
        return value

    def read_bit(self) -> int:
        """Read a single bit."""
        return self.read(1)

    def read_unary(self) -> int:
        """Read a unary value: count of ones before the terminating zero."""
        count = 0
        while self.read(1):
            count += 1
        return count

    def read_bytes(self, count: int) -> bytes:
        """Read ``count`` raw bytes: a slice when byte-aligned, else one
        vectorized shift over the ``count + 1`` bytes they straddle."""
        pos = self._pos
        if pos + 8 * count > self._limit:
            raise self._past_end(8 * count)
        start, skew = pos >> 3, pos & 7
        self._pos = pos + 8 * count
        if skew == 0:
            return bytes(self._data[start:start + count])
        # In bounds: the last bit read lies inside the buffer, so byte
        # ``start + count`` (holding it) does too.
        span = np.frombuffer(self._data, dtype=np.uint8, count=count + 1,
                             offset=start).astype(np.uint16)
        return ((span[:-1] << skew | span[1:] >> (8 - skew)) & 0xFF) \
            .astype(np.uint8).tobytes()

    def align_to_byte(self) -> None:
        """Skip forward to the next byte boundary."""
        rem = self._pos & 7
        if rem:
            self.read(8 - rem)
