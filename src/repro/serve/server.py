"""The archive server: asyncio front end, pooled decodes, its own cache.

Concurrency model, in one paragraph: a single event-loop thread owns
all request parsing, routing, and cache bookkeeping; block decodes and
renders run on a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
so the loop never blocks on kernel work.  The cache is two plain
structures on :class:`ArchiveServer`.  ``_bodies`` is an LRU
``OrderedDict`` of the bytes the server sends, keyed by ``(archive,
block, selection.cache_token, fmt)`` and charged their length: a miss
decodes (on the kernel the archive's session fixed at start-up) and
renders once, a hit is a lookup and a socket write.  ``_pending`` maps
a key to the :class:`asyncio.Future` of its render, so concurrent
misses of one key await one pool job — waiters never occupy a pool
thread, and a 32-client burst on one block costs one decode.  Both
structures, and the counters on :class:`~repro.serve.stats.ServerStats`,
belong to the loop thread: nothing else touches them while it runs,
and :meth:`ArchiveServer.close` reads them only after that thread has
joined.  That is why none of them takes a lock.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
import time
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from ..api.dataset import SAGeDataset
from ..api.describe import describe
from ..api.sinks import result_info
from ..core.errors import SAGeError
from ..core.options import EngineOptions
from ..core.selection import StreamSelection
from ..genomics import fastq
from .http import (HTTPError, Request, Response, error_response,
                   read_request)
from .stats import ServerStats

__all__ = ["ArchiveServer", "DEFAULT_CACHE_BYTES", "REQUEST_OPTION_KEYS"]

DEFAULT_CACHE_BYTES = 64 << 20

#: EngineOptions fields a single ``/analyze`` request may override.
#: The rest partitions the write path (block_reads) or picks a
#: byte-identical kernel, which the operator does once for the whole
#: server, and stays server-side.  What a pass decodes is its sinks'
#: ``requires``, not an option.
REQUEST_OPTION_KEYS = frozenset({"workers", "backend", "on_error"})

_BLOCK_PATH = re.compile(r"^/block/(\d+)$")
_READS_PATH = re.compile(r"^/reads/(\d+)-(\d+)$")


def request_options(base: EngineOptions, overrides: dict) -> EngineOptions:
    """Apply a request's option overrides to the session baseline.

    Unknown keys and invalid values are client errors (400), surfaced
    through the facade's own validation — ``EngineOptions.replace``
    re-runs ``__post_init__`` on the merged options.
    """
    if not overrides:
        return base
    unknown = sorted(set(overrides) - REQUEST_OPTION_KEYS)
    if unknown:
        raise HTTPError(
            400, f"unknown option(s) {', '.join(unknown)}; requests may "
                 f"override: {', '.join(sorted(REQUEST_OPTION_KEYS))}")
    try:
        return base.replace(**overrides)
    except (TypeError, ValueError) as exc:
        raise HTTPError(400, f"invalid options: {exc}") from exc


class _ServedArchive:
    """One archive under service: its session plus the read-index map."""

    def __init__(self, name: str, path: Path,
                 dataset: SAGeDataset) -> None:
        self.name = name
        self.path = path
        self.dataset = dataset
        # read_offsets[i] is the global index of block i's first read,
        # with a final sentinel equal to n_reads.  This is the
        # /reads/{a}-{b} lookup table and the FASTQ numbering base that
        # makes block-by-block serving byte-identical to a streaming
        # to_fastq pass.
        archive = dataset.archive
        self.read_offsets = [entry.first_read
                             for entry in archive.block_index()]
        self.read_offsets.append(archive.n_reads)

    @property
    def n_blocks(self) -> int:
        return self.dataset.archive.n_blocks

    @property
    def n_reads(self) -> int:
        return self.read_offsets[-1]


def _inspect_sync(served: _ServedArchive) -> dict:
    """Block-level metadata for /inspect (runs on a pool thread)."""
    info = describe(served.dataset)
    keys = ("index", "n_reads", "bytes", "offset", "crc32",
            "decoded_nbytes_estimate", "error")
    blocks = [{key: block[key] for key in keys if key in block}
              | {"first_read": first_read}
              for block, first_read
              in zip(info["blocks"], served.read_offsets)]
    return {
        "archive": served.name,
        "path": str(served.path),
        "format_version": info["format_version"],
        "n_blocks": info["n_blocks"],
        "n_reads": info["n_reads"],
        "block_reads": info["block_reads"],
        "decoded_nbytes_estimate_total":
            sum(b.get("decoded_nbytes_estimate", 0) for b in blocks),
        "blocks": blocks,
    }


def _analyze_sync(served: _ServedArchive, sink_names: list,
                  options: EngineOptions) -> dict:
    """One streaming analysis pass (runs on a pool thread).

    The request's options get a sibling session over the served
    archive, sharing the served session's decoder; it is not closed —
    the archive belongs to the served session.
    """
    session = SAGeDataset(served.dataset.archive, options=options,
                          decompressor=served.dataset.decompressor())
    try:
        pipeline = session.pipe(*sink_names)
    except (TypeError, ValueError) as exc:
        raise HTTPError(400, str(exc)) from exc
    results = pipeline.run()
    stats = pipeline.stats
    return {
        "archive": served.name,
        "results": {name: result_info(result)
                    for name, result in zip(sink_names, results)},
        "stream": {"blocks": stats.blocks,
                   "peak_inflight_blocks": stats.peak_inflight,
                   "bytes_shipped": stats.bytes_shipped,
                   "streams_decoded": dict(stats.streams_decoded)},
    }


def _render_block(served: _ServedArchive, index: int,
                  selection: StreamSelection, fmt: str) -> bytes:
    """Block ``index`` decoded and rendered as ``fmt`` (a pool job)."""
    read_set = served.dataset.decode_block(index, select=selection)
    base = served.read_offsets[index]
    if fmt == "fastq":
        return fastq.write(read_set, base).encode("ascii")
    reads = [{"index": base + i,
              "header": read.header or f"read{base + i}",
              "sequence": read.text,
              "quality": read.quality_text
              if read.quality is not None else None}
             for i, read in enumerate(read_set)]
    return json.dumps({"archive": served.name, "block": index,
                       "first_read": base, "reads": reads},
                      sort_keys=True).encode("utf-8")


def _records(body: bytes, lo: int, hi: int) -> bytes:
    """Records ``[lo, hi)`` of a FASTQ body: ``fastq.write`` writes
    four lines a record, and no header holds a newline."""
    return b"\n".join(body.split(b"\n")[4 * lo:4 * hi] + [b""])


class ArchiveServer:
    """Serve one or more SAGe archives over HTTP.

    ``archives`` is a list of paths (or ``name=path`` strings to pick
    the served name explicitly; the default name is the file stem).
    The server owns its datasets: :meth:`close` closes them.

    Endpoints::

        GET  /archives            served archives + shape metadata
        GET  /inspect?archive=A   per-block index incl. decoded-size estimates
        GET  /block/{i}           one decoded block (FASTQ; ?format=json)
        GET  /reads/{a}-{b}       global read range [a, b) across blocks
        POST /analyze             {"archive": A, "sinks": [...], "options": {}}
        GET  /stats               ServerStats + cache counters
        POST /cache/clear         drop the cached block bodies

    ``/block`` and ``/reads`` accept ``?streams=`` (a
    :meth:`StreamSelection.from_query` spec); the ``/analyze`` body may
    carry an ``options`` object whitelisted by
    :data:`REQUEST_OPTION_KEYS`.
    """

    def __init__(self, archives, *, options: EngineOptions | None = None,
                 cache_bytes: int = DEFAULT_CACHE_BYTES,
                 decode_threads: int = 4, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        if cache_bytes < 0:
            raise ValueError(
                f"cache capacity must be >= 0 bytes, got {cache_bytes}")
        self.options = options if options is not None else EngineOptions()
        self.host = host
        self.port = port
        self.cache_bytes = int(cache_bytes)
        self.stats = ServerStats()
        #: key -> body, least recently used first.
        self._bodies: OrderedDict[tuple, bytes] = OrderedDict()
        #: key -> the future of its in-flight render.
        self._pending: dict[tuple, asyncio.Future] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, decode_threads),
            thread_name_prefix="sage-serve")
        self._served: dict[str, _ServedArchive] = {}
        try:
            for spec in archives:
                name, _, path_text = str(spec).rpartition("=")
                path = Path(path_text)
                name = name or path.stem
                if name in self._served:
                    raise ValueError(
                        f"duplicate served archive name {name!r}; "
                        f"disambiguate with name=path")
                dataset = SAGeDataset.open(path, options=self.options)
                self._served[name] = _ServedArchive(name, path, dataset)
            if not self._served:
                raise ValueError("no archives to serve")
        except BaseException:
            self._shutdown_resources()
            raise
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._stop_event: asyncio.Event | None = None
        self._conn_tasks: set = set()
        self._closed = False
        self.final_stats: dict | None = None

    @property
    def archive_names(self) -> tuple:
        """The served archive names, sorted."""
        return tuple(sorted(self._served))

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "ArchiveServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def start(self) -> int:
        """Run the server on a background thread; returns the bound port."""
        if self._thread is not None:
            return self.port
        if self._closed:
            raise ValueError("server is closed")
        self._thread = threading.Thread(target=self._thread_main,
                                        name="sage-serve-loop", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join()
            self._thread = None
            self._startup_error = None
            raise error
        return self.port

    def close(self) -> dict:
        """Stop serving and release every resource; returns final stats.

        Idempotent and safe from any thread.  Shutdown order matters:
        stop the loop (no new requests), drain the pool (in-flight
        decodes finish), snapshot stats, then close the datasets — so
        no decode ever races a closing archive from inside the server.
        """
        if self._closed:
            return self.final_stats or {}
        self._closed = True
        loop = self._loop
        if loop is not None and self._stop_event is not None:
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:        # loop already gone
                pass
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._pool.shutdown(wait=True)
        self.final_stats = self.stats.to_dict()
        self._shutdown_resources()
        return self.final_stats

    def _shutdown_resources(self) -> None:
        self._pool.shutdown(wait=True)
        for served in self._served.values():
            served.dataset.close()
        self._bodies.clear()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:   # startup failures surface in start()
            self._startup_error = exc
        finally:
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(self._on_connection,
                                            host=self.host, port=self.port)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks,
                                     return_exceptions=True)
            self._loop = None

    # -- connection handling -------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        while True:
            try:
                request = await read_request(reader)
            except HTTPError as exc:
                writer.write(error_response(exc).render(keep_alive=False))
                await writer.drain()
                return
            if request is None:
                return
            response = await self._dispatch(request)
            try:
                writer.write(response.render(keep_alive=request.keep_alive))
                await writer.drain()
            except ConnectionError:
                return
            if not request.keep_alive:
                return

    async def _dispatch(self, request: Request) -> Response:
        """Run the routed handler; the one place its failures are mapped.

        An :class:`HTTPError` is a status the handler chose; a
        :class:`SAGeError` (archive damage) becomes a 500 whose JSON body
        carries the error type and the taxonomy's ``.context`` (block
        index, stream, offset) so a client can localize the damage.
        Every handler is called from here, so none has to remember to.
        """
        endpoint, handler, args = self._route(request)
        self.stats.begin_request()
        started = time.perf_counter()
        failed = False
        try:
            return await handler(request, *args)
        except HTTPError as exc:
            failed = True
            return error_response(exc)
        except SAGeError as exc:
            failed = True
            return error_response(HTTPError(
                500, f"{type(exc).__name__}: {exc}",
                error_type=type(exc).__name__,
                **getattr(exc, "context", {})))
        except Exception as exc:   # the never-crash floor of the server
            failed = True
            return error_response(
                HTTPError(500, f"internal error: {type(exc).__name__}: "
                               f"{exc}"))
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1e3
            self.stats.end_request(endpoint, elapsed_ms, error=failed)

    def _route(self, request: Request):
        """Resolve ``(endpoint_label, handler, extra_args)``."""
        path = request.path
        if path == "/archives":
            return "/archives", self._expect(
                request, "GET", self._handle_archives), ()
        if path == "/inspect":
            return "/inspect", self._expect(
                request, "GET", self._handle_inspect), ()
        match = _BLOCK_PATH.match(path)
        if match:
            return "/block", self._expect(
                request, "GET", self._handle_block), (int(match.group(1)),)
        match = _READS_PATH.match(path)
        if match:
            return "/reads", self._expect(
                request, "GET", self._handle_reads), (
                    int(match.group(1)), int(match.group(2)))
        if path == "/analyze":
            return "/analyze", self._expect(
                request, "POST", self._handle_analyze), ()
        if path == "/stats":
            return "/stats", self._expect(
                request, "GET", self._handle_stats), ()
        if path == "/cache/clear":
            return "/cache/clear", self._expect(
                request, "POST", self._handle_cache_clear), ()
        # One shared label keeps /stats from growing a latency window
        # per mistyped path.
        return "(unknown)", self._handle_not_found, ()

    @staticmethod
    def _expect(request: Request, method: str, handler):
        if request.method != method:
            return ArchiveServer._method_not_allowed
        return handler

    @staticmethod
    async def _method_not_allowed(request: Request, *args) -> Response:
        raise HTTPError(405, f"{request.method} not allowed on "
                             f"{request.path}")

    @staticmethod
    async def _handle_not_found(request: Request) -> Response:
        raise HTTPError(404, f"no such endpoint: {request.path}")

    # -- shared request plumbing ---------------------------------------

    def _served_for(self, request: Request) -> _ServedArchive:
        name = request.query.get("archive")
        if name is None:
            if len(self._served) == 1:
                return next(iter(self._served.values()))
            raise HTTPError(400, "multiple archives are served; pick one "
                                 "with ?archive=NAME",
                            archives=sorted(self._served))
        served = self._served.get(name)
        if served is None:
            raise HTTPError(404, f"unknown archive {name!r}",
                            archives=sorted(self._served))
        return served

    def _selection_of(self, request: Request) -> StreamSelection:
        spec = request.query.get("streams")
        if spec is None:
            return StreamSelection.all_streams()
        try:
            return StreamSelection.from_query(spec)
        except ValueError as exc:
            raise HTTPError(400, str(exc)) from exc

    async def _block_body(self, served: _ServedArchive, index: int,
                          selection: StreamSelection, fmt: str) -> bytes:
        """The cache + coalescing + pooled-decode core of the server."""
        key = (served.name, index, selection.cache_token, fmt)
        stats = self.stats
        body = self._bodies.get(key)
        if body is not None:
            self._bodies.move_to_end(key)
            stats.hits += 1
            return body
        stats.misses += 1
        pending = self._pending.get(key)
        if pending is not None:
            stats.coalesced += 1
        else:
            pending = asyncio.get_running_loop().run_in_executor(
                self._pool, _render_block, served, index, selection, fmt)
            self._pending[key] = pending
            pending.add_done_callback(
                lambda done: self._retire(key, done))
        # A cancelled waiter leaves the render running for the others.
        return await asyncio.shield(pending)

    def _retire(self, key: tuple, done: asyncio.Future) -> None:
        """Forget ``key``'s finished render and cache its body, evicting
        from the LRU end until the budget holds.  A failure reaches
        every waiter through the future and is not cached, so the next
        request renders again."""
        del self._pending[key]
        if done.cancelled() or done.exception() is not None:
            return
        body = done.result()
        stats = self.stats
        stats.decodes += 1
        if len(body) > self.cache_bytes:
            stats.rejected += 1
            return
        while stats.current_bytes + len(body) > self.cache_bytes:
            _, dropped = self._bodies.popitem(last=False)
            stats.current_bytes -= len(dropped)
            stats.evictions += 1
        self._bodies[key] = body
        stats.current_bytes += len(body)
        stats.peak_bytes = max(stats.peak_bytes, stats.current_bytes)

    # -- handlers ------------------------------------------------------

    async def _handle_archives(self, request: Request) -> Response:
        listing = [{"name": served.name,
                    "path": str(served.path),
                    "n_blocks": served.n_blocks,
                    "n_reads": served.n_reads,
                    "format_version":
                        served.dataset.archive.source_version,
                    "block_reads": served.dataset.archive.block_reads}
                   for served in self._served.values()]
        return Response.json({"archives":
                              sorted(listing, key=lambda a: a["name"])})

    async def _handle_inspect(self, request: Request) -> Response:
        served = self._served_for(request)
        loop = asyncio.get_running_loop()
        info = await loop.run_in_executor(self._pool, _inspect_sync, served)
        return Response.json(info)

    async def _handle_block(self, request: Request,
                            index: int) -> Response:
        served = self._served_for(request)
        if not 0 <= index < served.n_blocks:
            raise HTTPError(404, f"block {index} out of range (archive "
                                 f"{served.name!r} has {served.n_blocks} "
                                 f"blocks)")
        selection = self._selection_of(request)
        fmt = request.query.get("format", "fastq")
        if fmt not in ("fastq", "json"):
            raise HTTPError(400, f"unknown format {fmt!r}; expected "
                                 f"'fastq' or 'json'")
        body = await self._block_body(served, index, selection, fmt)
        return Response(body=body) if fmt == "json" \
            else Response.text(body)

    async def _handle_reads(self, request: Request, start: int,
                            stop: int) -> Response:
        served = self._served_for(request)
        if not 0 <= start < stop <= served.n_reads:
            raise HTTPError(
                400, f"read range [{start}, {stop}) is invalid for "
                     f"archive {served.name!r} with {served.n_reads} "
                     f"reads")
        selection = self._selection_of(request)
        offsets = served.read_offsets
        first = bisect_right(offsets, start) - 1
        last = bisect_left(offsets, stop)      # exclusive block bound
        records: list[bytes] = []
        for block_index in range(first, last):
            body = await self._block_body(
                served, block_index, selection, "fastq")
            base = offsets[block_index]
            lo = max(start, base) - base
            hi = min(stop, offsets[block_index + 1]) - base
            records.append(_records(body, lo, hi))
        return Response.text(b"".join(records))

    async def _handle_analyze(self, request: Request) -> Response:
        payload = request.json()
        name = payload.get("archive")
        if name is not None:
            request = Request(method=request.method, path=request.path,
                              query={**request.query,
                                     "archive": str(name)})
        served = self._served_for(request)
        sink_names = payload.get("sinks", ["property"])
        if (not isinstance(sink_names, list) or not sink_names
                or not all(isinstance(s, str) and s for s in sink_names)):
            raise HTTPError(400, "sinks must be a non-empty list of "
                                 "sink names")
        if len(set(sink_names)) != len(sink_names):
            raise HTTPError(400, "duplicate sink names")
        overrides = payload.get("options", {})
        if not isinstance(overrides, dict):
            raise HTTPError(400, "options must be an object")
        options = request_options(self.options, overrides)
        loop = asyncio.get_running_loop()
        info = await loop.run_in_executor(
            self._pool, _analyze_sync, served, sink_names, options)
        return Response.json(info)

    async def _handle_stats(self, request: Request) -> Response:
        return Response.json(self.stats.to_dict())

    async def _handle_cache_clear(self, request: Request) -> Response:
        """Drop every cached body; the counters keep their history."""
        dropped = len(self._bodies)
        self._bodies.clear()
        self.stats.current_bytes = 0
        return Response.json({"cleared": dropped})
