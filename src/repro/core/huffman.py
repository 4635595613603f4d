"""Canonical Huffman coding.

Used three ways in the reproduction: as the entropy stage of the
DEFLATE-like general-purpose baseline (pigz analog), as the back-end of
the Spring-analog genomic compressor, and as the quality-score codec
shared between the Spring analog and SAGe (§5.1.5: SAGe reuses the same
quality compression as Spring's lossless mode).

Encoding ORs the codes, joined in pairs, into the big-endian 32-bit
words they span: bit offsets from one ``cumsum``, then one ``reduceat``
per half of a two-word window (:meth:`HuffmanTable.encode`).  Decoding
is a byte automaton over the prefixes of the code, stepped one payload
byte per table lookup in independent chunks
(:meth:`HuffmanTable.decode`).
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bitio import BitReader, BitWriter
from .errors import CorruptArchiveError, DecompressionError

#: The longest code a table may hold (a length fits 4 bits on the wire).
MAX_CODE_LENGTH = 15

#: Payload bytes per chunk of the decode chain.  Every chunk is stepped
#: from all its candidate entry states at once, so the serial part of a
#: decode is one scalar step per chunk.
CHUNK_BYTES = 32

#: Code tables whose decode automaton stays built.  Sub-streams of one
#: archive usually share their code lengths, so a handful covers them.
AUTOMATA_CACHED = 16


class HuffmanError(CorruptArchiveError, DecompressionError):
    """An invalid Huffman table or a damaged Huffman stream.

    Carries the name of the stream and the byte offset of the damage
    when the caller supplied them (:meth:`HuffmanTable.decode`).
    """


def code_lengths_from_counts(counts: np.ndarray,
                             max_length: int = MAX_CODE_LENGTH) -> np.ndarray:
    """Optimal code lengths for symbol frequencies (length-limited).

    Standard heap-based Huffman; if the tree exceeds ``max_length``, the
    counts are flattened (square-root damping) and rebuilt, which bounds
    the depth for any realistic alphabet.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.size
    lengths = np.zeros(n, dtype=np.int64)
    present = np.nonzero(counts)[0]
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths

    work = counts.astype(np.float64)
    while True:
        heap: list[tuple[float, int, tuple[int, ...]]] = []
        serial = 0
        for sym in present:
            heap.append((float(work[sym]), serial, (int(sym),)))
            serial += 1
        heapq.heapify(heap)
        depth = np.zeros(n, dtype=np.int64)
        while len(heap) > 1:
            c1, _, s1 = heapq.heappop(heap)
            c2, _, s2 = heapq.heappop(heap)
            merged = s1 + s2
            for sym in merged:
                depth[sym] += 1
            heapq.heappush(heap, (c1 + c2, serial, merged))
            serial += 1
        if depth.max() <= max_length:
            lengths[present] = depth[present]
            return lengths
        work = np.sqrt(work) + 1  # damp and retry with a flatter tree


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical code values for given code lengths."""
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.zeros(lengths.size, dtype=np.int64)
    code = 0
    prev_len = 0
    order = sorted((int(l), i) for i, l in enumerate(lengths) if l > 0)
    for length, sym in order:
        code <<= (length - prev_len)
        codes[sym] = code
        code += 1
        prev_len = length
    return codes


@dataclass
class HuffmanTable:
    """Canonical Huffman code table for a contiguous symbol alphabet."""

    lengths: np.ndarray
    codes: np.ndarray

    @classmethod
    def from_lengths(cls, lengths: np.ndarray) -> "HuffmanTable":
        return cls(lengths=lengths, codes=canonical_codes(lengths))

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "HuffmanTable":
        return cls.from_lengths(code_lengths_from_counts(counts))

    @property
    def alphabet_size(self) -> int:
        return int(self.lengths.size)

    # ------------------------------------------------------------------
    # Serialization: alphabet size + 4 bits per symbol length.
    # ------------------------------------------------------------------

    def serialize(self, writer: BitWriter) -> None:
        writer.write(self.alphabet_size, 16)
        for length in self.lengths:
            writer.write(int(length), 4)

    @classmethod
    def deserialize(cls, reader: BitReader) -> "HuffmanTable":
        size = reader.read(16)
        return cls.from_lengths(np.array(
            [reader.read(4) for _ in range(size)], dtype=np.int64))

    # ------------------------------------------------------------------
    # Vectorized encode
    # ------------------------------------------------------------------

    def encode(self, symbols: np.ndarray) -> tuple[bytes, int]:
        """Encode a symbol array; returns (payload bytes, bit length).

        The codes follow each other MSB first, zero-padded to a byte.
        Adjacent codes are joined in pairs, so a field is at most
        ``2 * MAX_CODE_LENGTH`` = 30 bits and its start is a ``cumsum``
        of the field lengths.  A field that starts ``p`` bits into a
        big-endian 32-bit word ends within the next one (``p + 30 <=
        61``), so it is placed in the 62-bit window of the two, and a
        word is the OR of the windows' top halves of the fields that
        start in it and bottom halves of those that start in the word
        before: one ``reduceat`` each.  A field starts a new word when
        it lies fewer bits into its word than the field before it is
        long; every word but the last has a field starting in it.
        """
        symbols = np.asarray(symbols, dtype=np.int64)
        if symbols.size == 0:
            return b"", 0
        lengths = np.asarray(self.lengths, dtype=np.int64).take(symbols)
        if not lengths.all():
            raise HuffmanError("symbol outside the coded alphabet")
        if lengths.max() > MAX_CODE_LENGTH:
            raise HuffmanError(
                f"code length {int(lengths.max())} exceeds "
                f"{MAX_CODE_LENGTH} bits")
        codes = np.asarray(self.codes, dtype=np.int64).take(symbols)
        if symbols.size & 1:            # pad with an empty code
            lengths, codes = np.append(lengths, 0), np.append(codes, 0)
        codes = (codes[0::2] << lengths[1::2]) | codes[1::2]
        lengths = lengths[0::2] + lengths[1::2]
        ends = np.cumsum(lengths)
        at = (ends - lengths) & 31
        window = codes << (62 - at - lengths)
        opens = np.empty(lengths.size, dtype=bool)
        opens[0] = True
        np.less(at[1:], lengths[:-1], out=opens[1:])
        first = np.flatnonzero(opens)
        words = np.zeros(first.size + 1, dtype=np.int64)
        words[:-1] = np.bitwise_or.reduceat(window >> 30, first)
        words[1:] |= np.bitwise_or.reduceat(
            (window & ((1 << 30) - 1)) << 2, first)
        nbits = int(ends[-1])
        return words.astype(">u4").tobytes()[:(nbits + 7) // 8], nbits

    # ------------------------------------------------------------------
    # Byte-automaton decode
    # ------------------------------------------------------------------

    def decode(self, payload: bytes, n_symbols: int, nbits: int, *,
               stream: str | None = None, origin: int = 0) -> np.ndarray:
        """Decode the ``n_symbols`` symbols that fill ``nbits`` of payload.

        The decoder is a byte automaton (:func:`_automaton`): one table
        lookup per payload byte gives the next state and the up to 8
        symbols the byte completes.  The serial chain of states is cut
        into :data:`CHUNK_BYTES`-byte chunks.  A chunk's entry state is
        fixed by how many bits of a pending code precede it, because
        those bits are in the data, so every chunk is stepped from each
        of its (at most 15) candidate entries at once; one scalar pass
        over the chunk exits then picks the true entry of each chunk
        (the depth of one chunk's exit names the next one's entry).  The
        symbols are one gather of a row of slots per byte, of which each
        byte keeps as many as it completes; the last ``nbits % 8`` bits
        are walked one by one.

        A stream decodes when it reaches no invalid code, completes
        exactly ``n_symbols`` symbols and ends between codes at
        ``nbits``.  Otherwise the error names the first fault and the
        bit where its code starts, found by walking at most one byte
        plus one code from the first byte that dies or passes
        ``n_symbols``.

        The result is ``uint8`` for alphabets of up to 256 symbols,
        ``uint16`` beyond.  ``stream`` and ``origin`` (the byte offset
        of ``payload`` within that stream) only locate a
        :class:`HuffmanError`.
        """
        def damaged(message: str, bit: int) -> HuffmanError:
            return HuffmanError(f"{message} at bit {bit}", stream=stream,
                                offset=origin + bit // 8)

        if n_symbols > nbits or nbits > 8 * len(payload):
            # Every code is at least one bit long; checked before any
            # per-byte array is sized from these (untrusted) counts.
            raise damaged(
                f"{n_symbols} symbols cannot fill {nbits} bits of a "
                f"{len(payload)}-byte payload", 0)
        try:
            auto = _automaton(
                np.asarray(self.lengths, dtype=np.int64).tobytes())
        except HuffmanError as exc:
            raise HuffmanError(exc.message, stream=stream,
                               offset=origin) from None
        if n_symbols == 0:
            if nbits:
                raise damaged(f"{nbits} bits left over after 0 symbols", 0)
            return np.empty(0, dtype=auto.dtype)

        whole = nbits // 8
        data = memoryview(payload)[:(nbits + 7) // 8]
        at, final, dead = _chain(
            auto, np.frombuffer(payload, dtype=np.uint8, count=whole))
        count = auto.count.take(at)
        if not dead:
            # Fewer than 8 bits complete fewer than 8 codes.
            tail, state, _ = _walk(auto, data, 8 * whole, nbits, final, 8)
            if state == _ROOT and \
                    int(count.sum(dtype=np.int64)) + len(tail) == n_symbols:
                rows = auto.rows.take(at, axis=0).view(auto.dtype)
                out: np.ndarray = rows.reshape(-1)[
                    auto.keep.take(count).view(bool)]
                if tail:
                    out = np.concatenate(
                        [out, np.array(tail, dtype=auto.dtype)])
                return out
        raise damaged(*_fault(auto, data, n_symbols, nbits, at, count, dead))


#: State ids every automaton shares: the root (between codes) and the
#: absorbing state after a bit that continues no code.
_ROOT = 0
_DEAD = -1


class _Automaton(NamedTuple):
    """A code's byte automaton; every array is read-only.

    States are the proper prefixes of the code: id 0 is the root, ids
    run by depth then prefix value, and the dead state has the last id
    (``_DEAD`` indexes it).  Per-byte tables are indexed by
    ``state * 256 + byte``.
    """

    #: Next ``state * 256`` after the byte (``int32``).
    step: np.ndarray
    #: How many symbols the byte completes (``uint8``).
    count: np.ndarray
    #: Those symbols, left-aligned in a row of ``width`` slots of
    #: ``dtype`` (``width`` is 1, 2, 4 or 8, as the shortest code
    #: allows), viewed as unsigned words.
    rows: np.ndarray
    #: Per count, a word of ``width`` booleans: which slots it fills.
    keep: np.ndarray
    dtype: type
    #: ``state * 256`` of the state ``d`` bits deep with prefix ``v``,
    #: at index ``(1 << d) + v``; the dead state where no code has that
    #: prefix.
    enter: np.ndarray
    #: A chunk's candidate entry depths: the longest code length.
    lanes: int
    #: Bits pending in each state; -1 in the dead state.
    depth: np.ndarray
    #: Per ``2 * state + bit``: the next state, and the symbol the bit
    #: completes or -1.
    bit_next: list[int]
    bit_symbol: list[int]
    #: Code length of each symbol.
    lengths: list[int]


@functools.lru_cache(maxsize=AUTOMATA_CACHED)
def _automaton(key: bytes) -> _Automaton:
    """Build the byte automaton of the canonical code whose ``int64``
    code lengths are ``key``.

    In a canonical code, the prefixes ``d`` bits deep that continue into
    a longer code are one contiguous range of values, starting where
    the ``d``-bit codes end; so each depth's states are a range and a
    bit's successor is arithmetic.  Raises :class:`HuffmanError` for
    lengths no prefix code has: one above :data:`MAX_CODE_LENGTH`, or
    more codes of some length than fit beside the shorter ones.
    """
    lengths = np.frombuffer(key, dtype=np.int64)
    longest = int(lengths.max(initial=0))
    if longest > MAX_CODE_LENGTH:
        raise HuffmanError(
            f"code length {longest} exceeds {MAX_CODE_LENGTH} bits")
    per_length = np.bincount(lengths[lengths > 0], minlength=longest + 2)
    first = np.zeros(longest + 2, dtype=np.int64)   # first code per length
    for length in range(1, longest + 1):
        first[length] = (first[length - 1] + per_length[length - 1]) << 1
        if first[length] + per_length[length] > 1 << length:
            raise HuffmanError(
                f"over-subscribed code table: {per_length[length]} codes "
                f"of {length} bits do not fit beside the shorter ones")
    by_code = np.argsort(lengths, kind="stable")[
        lengths.size - int(per_length.sum()):]
    rank0 = np.cumsum(per_length) - per_length

    # States d bits deep: prefixes lo[d]..hi[d], ids from base[d].
    lanes = max(longest, 1)
    last = int(first[longest] + per_length[longest]) - 1 if longest else 0
    lo = first + per_length
    hi = np.full(longest + 2, -1, dtype=np.int64)
    hi[:lanes] = [last >> (longest - d) for d in range(lanes)]
    size = np.maximum(hi - lo + 1, 0)
    base = np.cumsum(size) - size
    n_states = int(size.sum())
    depth = np.repeat(np.arange(size.size), size)
    value = np.arange(n_states) - base[depth] + lo[depth]

    # One bit: a code emits its symbol and returns to the root, a longer
    # prefix is a state, anything else is dead.
    bit_next = np.full((n_states + 1, 2), n_states, dtype=np.int64)
    bit_symbol = np.full((n_states + 1, 2), -1, dtype=np.int64)
    down = depth + 1
    for bit in (0, 1):
        child = 2 * value + bit
        rank = child - first[down]
        leaf = rank < per_length[down]
        inner = ~leaf & (child <= hi[down])
        bit_next[:-1, bit][leaf] = _ROOT
        bit_next[:-1, bit][inner] = (base[down] + child - lo[down])[inner]
        bit_symbol[:-1, bit][leaf] = by_code[rank0[down[leaf]] + rank[leaf]]

    # Eight bits: every (state, byte) at once, one bit per step.  A byte
    # completes at most one code plus one per shortest code length in
    # its other 7 bits; rows have that many slots, rounded to a word.
    shortest = int(lengths[lengths > 0].min(initial=8))
    width = 1 << (7 // shortest).bit_length()
    dtype = np.uint8 if lengths.size <= 256 else np.uint16
    state = np.repeat(np.arange(n_states + 1), 256)
    byte = np.tile(np.arange(256), n_states + 1)
    count = np.zeros(state.size, dtype=np.uint8)
    slots = np.zeros((state.size, width), dtype=dtype)
    flat_next, flat_symbol = bit_next.ravel(), bit_symbol.ravel()
    for shift in range(7, -1, -1):
        at = 2 * state + ((byte >> shift) & 1)
        symbol = flat_symbol[at]
        state = flat_next[at]
        emits = np.flatnonzero(symbol >= 0)
        slots[emits, count[emits]] = symbol[emits]
        count[emits] += 1
    # One word per row (two for eight uint16 slots) makes a row one
    # gather.
    rows = slots.view(f"u{min(width * slots.itemsize, 8)}")
    if rows.shape[1] == 1:
        rows = rows.reshape(-1)
    keep = (np.arange(width + 1)[:, None] > np.arange(width)).view(
        f"u{width}").reshape(-1)

    enter = np.full(1 << lanes, n_states * 256, dtype=np.int32)
    for d in range(lanes):
        enter[(1 << d) + lo[d]:(1 << d) + hi[d] + 1] = \
            (base[d] + np.arange(size[d])) * 256
    step = (state * 256).astype(np.int32)
    pending = np.append(depth, -1)
    for array in (step, count, rows, keep, enter, pending):
        array.setflags(write=False)
    return _Automaton(
        step=step, count=count, rows=rows, keep=keep, dtype=dtype,
        enter=enter, lanes=lanes, depth=pending,
        bit_next=[_DEAD if s == n_states else s
                  for s in bit_next.ravel().tolist()],
        bit_symbol=bit_symbol.ravel().tolist(),
        lengths=lengths.tolist())


def _chain(auto: _Automaton,
           data: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Step the automaton over the whole bytes ``data``.

    Returns ``state * 256 + byte`` at every byte (the state being the
    one entering it), the state after the last byte, and whether the
    chain died; past the first byte that leads to the dead state the
    entering states mean nothing.
    """
    if not data.size:
        return np.empty(0, dtype=np.int32), _ROOT, False
    lanes = auto.lanes
    n_chunks = -(-data.size // CHUNK_BYTES)
    padded = np.zeros(n_chunks * CHUNK_BYTES, dtype=np.int32)
    padded[:data.size] = data
    grid = np.ascontiguousarray(padded.reshape(n_chunks, CHUNK_BYTES).T)
    # A chunk entered with d bits of a code pending is in the state of
    # the d bits before it: the low d bits of the two bytes before.
    window = np.zeros(n_chunks, dtype=np.int32)
    window[1:] = (grid[-2, :-1] << 8) | grid[-1, :-1]
    pending = np.arange(lanes, dtype=np.int32)
    states = np.empty((CHUNK_BYTES + 1, n_chunks, lanes), dtype=np.int32)
    auto.enter.take((1 << pending) + (window[:, None]
                                      & ((1 << pending) - 1)),
                    out=states[0])
    index = np.empty((n_chunks, lanes), dtype=np.int32)
    for column in range(CHUNK_BYTES):
        np.add(states[column], grid[column, :, None], out=index)
        auto.step.take(index, out=states[column + 1], mode="clip")

    # The true entry of each chunk is the depth of the previous one's
    # exit: chase flat (chunk, depth) indices, -1 once the chain dies.
    exit_depth = auto.depth.take(states[-1, :-1] >> 8)
    hop = np.where(exit_depth < 0, -1, exit_depth + lanes
                   * np.arange(1, n_chunks)[:, None]).ravel().tolist()
    hop.append(-1)
    path = [0] * n_chunks
    at = 0
    for chunk in range(1, n_chunks):
        at = path[chunk] = hop[at]
    picked = states[:-1].reshape(CHUNK_BYTES, -1).take(path, axis=1,
                                                       mode="clip")
    picked += grid
    at_bytes = picked.T.reshape(-1)[:data.size]
    after = int(auto.step[at_bytes[-1]]) >> 8
    if auto.depth[after] < 0:
        return at_bytes, _DEAD, True
    return at_bytes, after, at < 0


def _walk(auto: _Automaton, data: memoryview, bit: int, stop: int,
          state: int, limit: int) -> tuple[list[int], int, int]:
    """Step ``state`` bit by bit from ``bit`` towards ``stop`` over
    ``data`` (zeros past its end), until ``limit`` symbols complete or a
    bit continues no code.

    Returns the symbols, the state the walk stopped in (``_DEAD`` after
    a bit that continues no code) and the bit where the pending code,
    or the dead one, starts.
    """
    symbols: list[int] = []
    start = bit - int(auto.depth[state])
    while bit < stop and len(symbols) < limit:
        byte = bit >> 3
        at = 2 * state + (
            (data[byte] >> (7 - (bit & 7))) & 1 if byte < len(data) else 0)
        state = auto.bit_next[at]
        bit += 1
        if state == _DEAD:
            break
        if auto.bit_symbol[at] >= 0:
            symbols.append(auto.bit_symbol[at])
            start = bit
    return symbols, state, start


def _fault(auto: _Automaton, data: memoryview, n_symbols: int, nbits: int,
           at: np.ndarray, count: np.ndarray,
           dead: bool) -> tuple[str, int]:
    """The first fault of a stream that does not decode, and the bit
    where its code starts.

    Walks bit by bit from the first whole byte that dies or completes
    the ``n_symbols``-th symbol, else from the last whole byte (which
    holds the end of the last symbol when one ends at ``nbits``);
    ``at``, ``count`` and ``dead`` are the chain's.
    """
    done = np.cumsum(count, dtype=np.int64)
    first = int(np.searchsorted(done, n_symbols))
    if dead:
        # The dead state's own row ends the step table.
        first = min(first, int(np.argmax(
            auto.step.take(at) == auto.step[-1])))
    first = max(min(first, at.size - 1), 0)
    seen = int(done[first - 1]) if first else 0
    state = int(at[first]) >> 8 if at.size else _ROOT
    symbols, state, start = _walk(auto, data, 8 * first, nbits, state,
                                  n_symbols - seen)
    seen += len(symbols)
    lengths = auto.lengths
    if seen == n_symbols:
        return (f"last symbol ends at bit {start} of a {nbits}-bit stream",
                start - lengths[symbols[-1]])
    if state == _DEAD:
        return "invalid code", start
    if state == _ROOT:
        # The last symbol ends at nbits: name the bit it starts at.
        return (f"stream ends before its {n_symbols} symbols do",
                nbits - lengths[symbols[-1]])
    # A code is pending at nbits; the bits past nbits tell a valid code
    # that overruns from an invalid one.
    overrun, _, _ = _walk(auto, data, nbits, nbits + MAX_CODE_LENGTH, state,
                          1)
    if not overrun:
        return "invalid code", start
    if seen == n_symbols - 1:
        end = start + lengths[overrun[0]]
        return f"last symbol ends at bit {end} of a {nbits}-bit stream", start
    return f"stream ends before its {n_symbols} symbols do", start
