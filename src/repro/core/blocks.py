"""Bounded, order-preserving fan-out onto an executor.

:func:`imap_bounded` is the one backpressure loop of both process pools:
:meth:`SAGeCompressor.compress
<repro.core.compressor.SAGeCompressor.compress>` compresses blocks on it
and :class:`~repro.pipeline.executor.StreamExecutor` decodes them.  It
keeps at most ``window`` items in flight
(:attr:`~repro.core.options.EngineOptions.window`), consumes its input
lazily, so a streaming source is never materialized, and yields results
in submission order, so what a pool produces never depends on which
worker finished first.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Executor
from typing import Callable, Iterable, Iterator

__all__ = ["imap_bounded"]


def imap_bounded(executor: Executor, fn: Callable, items: Iterable,
                 window: int,
                 depth_probe: Callable[[int], None] | None = None,
                 failure: Callable[[int, BaseException], object] | None
                 = None) -> Iterator:
    """``executor.map`` with a bounded number of in-flight futures.

    Preserves submission order, so merged results are independent of
    completion order — and the input iterator is consumed lazily, so a
    streaming source is never materialized.  ``depth_probe`` (if given)
    is called with the in-flight queue depth after every submission; the
    streaming decode executor uses it to record peak queue depth.

    ``failure`` (if given) is called with ``(index, exception)`` when a
    slot raises, and its return value is yielded in place of the lost
    result, so one bad item cannot kill the whole stream.  Without it,
    the exception propagates.  There is no per-slot timeout: a process
    task that is already running cannot be cancelled, and leaving the
    pool waits for it anyway.
    """
    pending: deque = deque()
    yielded = 0

    def drain_one():
        nonlocal yielded
        future = pending.popleft()
        index = yielded
        yielded += 1
        try:
            return future.result()
        except Exception as exc:
            if failure is None:
                raise
            return failure(index, exc)

    for item in items:
        pending.append(executor.submit(fn, item))
        if depth_probe is not None:
            depth_probe(len(pending))
        if len(pending) >= window:
            yield drain_one()
    while pending:
        yield drain_one()
