"""Stream-selective decode requests.

A SAGe block carries four independently decodable *stream groups*: the
DNA **sequence** streams (guide/position arrays, side channels, read
lengths), the **quality** blob, the **headers** blob, and the **order**
permutation that restores the original read order.  A full decode pays
for all four, but most analyses consume one — the mapping-rate sink
reads only base codes, a property scan never looks at headers.  The
Mutlu/Firtina co-design principle ("move only the data the computation
needs") applies directly: :class:`StreamSelection` is the request object
that tells :class:`repro.core.decompressor.SAGeDecompressor` and the
codec kernels which groups to decode; everything unselected is skipped
outright — not decoded-and-dropped.

Selections flow two ways:

- sinks declare what they need via a ``requires`` attribute (see
  :class:`repro.pipeline.executor.Sink`), and the streaming executor
  unions the attached sinks' declarations per pass;
- random access — ``SAGeDecompressor.decompress_block(select=...)``,
  ``SAGeDataset.decode_block(select=...)``, ``/block?streams=`` — takes
  one directly.

Invariants: selecting ``quality`` requires ``sequence`` (quality scores
are sliced per read by decoded read lengths).  A selection that skips
``order`` emits reads in the codec's emission order — identical
*content*, but only order-insensitive consumers (aggregating sinks)
should request that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterable

    from .container import SAGeBlock

__all__ = ["STREAM_GROUPS", "StreamSelection", "decoded_stream_bits"]

#: The four independently decodable stream groups, in decode order.
STREAM_GROUPS = ("sequence", "quality", "headers", "order")


@dataclass(frozen=True)
class StreamSelection:
    """Which stream groups a decode should actually decode.

    The default selects everything — any API accepting a selection and
    receiving ``None`` behaves exactly like the historical full decode.
    """

    sequence: bool = True
    quality: bool = True
    headers: bool = True
    order: bool = True

    def __post_init__(self) -> None:
        if self.quality and not self.sequence:
            raise ValueError(
                "StreamSelection: quality requires sequence (quality "
                "scores are sliced by decoded read lengths)")

    # -- constructors --------------------------------------------------

    @classmethod
    def all_streams(cls) -> "StreamSelection":
        """The full decode (every group selected)."""
        return cls()

    @classmethod
    def none(cls) -> "StreamSelection":
        """Nothing selected (reads decode as empty placeholders)."""
        return cls(sequence=False, quality=False, headers=False,
                   order=False)

    @classmethod
    def of(cls, *names: str) -> "StreamSelection":
        """A selection of exactly the named groups.

        Unknown names raise :class:`ValueError` listing the valid
        groups; ``of()`` with no names selects nothing.
        """
        for name in names:
            if name not in STREAM_GROUPS:
                raise ValueError(
                    f"unknown stream group {name!r}; expected one of "
                    f"{STREAM_GROUPS}")
        return cls(**{group: group in names for group in STREAM_GROUPS})

    @classmethod
    def from_spec(cls, spec: "StreamSelection | str | "
                  "Iterable[str] | None") -> "StreamSelection":
        """Normalize a selection spec: ``None`` (= all), a
        :class:`StreamSelection`, or an iterable of group names."""
        if spec is None:
            return cls.all_streams()
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            return cls.of(spec)
        return cls.of(*spec)

    @classmethod
    def from_query(cls, text: str) -> "StreamSelection":
        """Parse an HTTP-query-style selection.

        Accepts comma- or plus-separated group names with optional
        whitespace (``"sequence,quality"``, ``"sequence+order"``); an
        empty or blank string means the full decode, matching an absent
        query parameter.  Unknown names raise :class:`ValueError` via
        :meth:`of`.
        """
        names = [part.strip() for part in text.replace("+", ",").split(",")
                 if part.strip()]
        if not names:
            return cls.all_streams()
        return cls.of(*names)

    # -- views ---------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """The selected group names, in :data:`STREAM_GROUPS` order."""
        return tuple(g for g in STREAM_GROUPS if getattr(self, g))

    @property
    def is_all(self) -> bool:
        """True when every group is selected (the full decode)."""
        return all(getattr(self, g) for g in STREAM_GROUPS)

    @property
    def cache_token(self) -> str:
        """A canonical string for use in cache keys.

        Equal selections share a token, so a decoded-block cache keyed
        by ``(archive, block, selection.cache_token)`` dedupes requests
        that spell the same selection differently.
        """
        if self.is_all:
            return "all"
        return "+".join(self.names) or "none"

    def union(self, other: "StreamSelection") -> "StreamSelection":
        """The selection satisfying both requests."""
        return StreamSelection(
            **{g: getattr(self, g) or getattr(other, g)
               for g in STREAM_GROUPS})


def decoded_stream_bits(block: "SAGeBlock",
                        selection: StreamSelection | None = None
                        ) -> dict[str, int]:
    """Bits a selection actually decodes from one block, per group.

    The shared consensus is not a block stream and is excluded: it is
    unpacked once per pass, not per block.  This is the accounting
    behind ``ExecutorStats.streams_decoded`` and ``bench/``'s
    ``core.kernels.stream_bits``.
    """
    if selection is None:
        selection = StreamSelection.all_streams()
    bits = dict.fromkeys(STREAM_GROUPS, 0)
    if selection.sequence:
        bits["sequence"] = sum(
            stream_bits for name, (_, stream_bits) in block.streams.items()
            if name != "order")
    if selection.order:
        bits["order"] = block.streams["order"][1]
    if selection.quality and block.quality is not None:
        bits["quality"] = 8 * len(block.quality.payload)
    if selection.headers and block.headers_blob is not None:
        bits["headers"] = 8 * len(block.headers_blob)
    return bits
