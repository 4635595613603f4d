"""The SAGe error taxonomy: every malformed-input failure, typed.

SAGe's container promises that any block decodes independently in O(1)
(§5.3); the flip side is that a damaged archive must fail *loudly and
locally* — a flipped bit should name the block, stream, and byte offset
it hit, never escape as a bare ``struct.error``/``IndexError``, and
never produce silent wrong FASTQ.  This module is the single home of
that contract:

``SAGeError``
    Root of the taxonomy.  A :class:`ValueError` subclass, so every
    pre-taxonomy ``except ValueError`` call site keeps working.

``ContainerError``
    Malformed archive structure (bad magic, unknown version, impossible
    field values).  The historical name, re-exported by
    :mod:`repro.core.container`.

``CorruptArchiveError``
    Structurally parseable but provably damaged content — a checksum
    mismatch, an out-of-range table class, a stream that contradicts
    the header.  Carries the block index / stream name / byte offset of
    the damage when known.

``TruncatedArchiveError``
    The buffer ends before the layout does (short reads, interrupted
    downloads, mid-write crashes).  A corruption subtype, so callers
    that only care about "damaged" catch one class.

``BlockDecodeError``
    A decode failure *localized to one block* — the unit of skip
    (and so salvage) recovery.  Subclasses :class:`DecompressionError` so legacy
    handlers still match; the fault-tolerant executor keys its
    ``on_error`` policy off this type.

``BitIOError`` (:mod:`repro.core.bitio`) also descends from
:class:`SAGeError`, extending its stream-name/bit-offset context into
the same family.

``CompressionError`` is the write side's one error — an input that
cannot be archived (a non-ACGT consensus, a header holding a newline).
A plain :class:`ValueError`, outside the archive-damage family above.
"""

from __future__ import annotations

from typing import Any

__all__ = ["BlockDecodeError", "CompressionError", "ContainerError",
           "CorruptArchiveError", "DecompressionError", "SAGeError",
           "TruncatedArchiveError"]


class SAGeError(ValueError):
    """Base class of every SAGe archive/decode error."""


class ContainerError(SAGeError):
    """Raised on malformed archive structure."""


class DecompressionError(SAGeError):
    """Raised on malformed or inconsistent archive content at decode."""


class CompressionError(ValueError):
    """Raised when a read set cannot be compressed."""


def _rebuild(cls: type["SAGeError"], message: str,
             context: dict[str, Any]) -> "SAGeError":
    """Unpickle helper: rebuild a context error from (message, kwargs).

    Keyword-only constructors do not survive the default exception
    pickling, and these errors cross the process-pool boundary inside
    the fault-tolerant executor.
    """
    return cls(message, **context)


class _ContextMixin:
    """Shared ``block_index``/``stream``/``offset`` context plumbing."""

    _context_keys: tuple[str, ...] = ("block_index", "stream",
                                      "offset")

    def _init_context(self, message: str, block_index: int | None,
                      stream: str | None, offset: int | None) -> str:
        self.message = message
        self.block_index = block_index
        self.stream = stream
        self.offset = offset
        parts = []
        if block_index is not None:
            parts.append(f"block {block_index}")
        if stream:
            parts.append(f"stream {stream!r}")
        if offset is not None:
            parts.append(f"byte offset {offset}")
        return f"{message} ({', '.join(parts)})" if parts else message

    @property
    def context(self) -> dict[str, Any]:
        """The location fields that are known, as a dict."""
        return {key: getattr(self, key) for key in self._context_keys
                if getattr(self, key) is not None}

    def __reduce__(self) -> tuple[Any, ...]:
        return (_rebuild, (type(self), self.message,
                           {key: getattr(self, key)
                            for key in self._context_keys}))


class CorruptArchiveError(_ContextMixin, ContainerError):
    """Provably damaged archive content (e.g. a checksum mismatch)."""

    def __init__(self, message: str, *, block_index: int | None = None,
                 stream: str | None = None,
                 offset: int | None = None) -> None:
        super().__init__(self._init_context(message, block_index,
                                            stream, offset))


class TruncatedArchiveError(CorruptArchiveError):
    """The byte buffer ends before the archive layout does."""

    _context_keys = ("block_index", "stream", "offset", "expected",
                     "actual")

    def __init__(self, message: str, *, block_index: int | None = None,
                 stream: str | None = None, offset: int | None = None,
                 expected: int | None = None,
                 actual: int | None = None) -> None:
        self.expected = expected
        self.actual = actual
        text = self._init_context(message, block_index, stream, offset)
        if expected is not None and actual is not None:
            text += f" [need {expected} bytes, have {actual}]"
        ContainerError.__init__(self, text)


class BlockDecodeError(_ContextMixin, DecompressionError):
    """A decode failure localized to one archive block.

    The unit of fault tolerance: ``on_error="skip"`` (what salvage
    runs) turns this into a recorded gap instead of a dead stream.
    """

    def __init__(self, message: str, *, block_index: int | None = None,
                 stream: str | None = None,
                 offset: int | None = None) -> None:
        super().__init__(self._init_context(message, block_index,
                                            stream, offset))
