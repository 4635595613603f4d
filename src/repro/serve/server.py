"""The archive server: a thin asyncio HTTP face over dataset sessions.

The server holds one :class:`~repro.api.SAGeDataset` per served name
and answers through the engine: a ``/block`` or ``/reads`` miss runs
the executor's per-block decode
(:func:`repro.pipeline.executor.decode_block`, what ``to_fastq`` runs
for every block), ``/inspect`` is :func:`~repro.api.describe` of the
session, and ``/analyze`` a sink pass reported as ``sage analyze``
reports it.

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
from operator import attrgetter
from pathlib import Path

from ..api.dataset import SAGeDataset
from ..api.describe import describe
from ..api.sinks import result_info, stream_info
from ..core.errors import SAGeError
from ..core.options import EngineOptions
from ..core.selection import StreamSelection
from ..pipeline.executor import decode_block
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

#: endpoint label (its ``/stats`` key) -> (path pattern, method,
#: handler method).  A path no pattern matches is a 404, a matched path
#: asked with another method a 405; a pattern's groups are the handler's
#: integer arguments.
_ROUTES = {
    "/archives": (re.compile(r"/archives"), "GET", "_handle_archives"),
    "/inspect": (re.compile(r"/inspect"), "GET", "_handle_inspect"),
    "/block": (re.compile(r"/block/(\d+)"), "GET", "_handle_block"),
    "/reads": (re.compile(r"/reads/(\d+)-(\d+)"), "GET", "_handle_reads"),
    "/analyze": (re.compile(r"/analyze"), "POST", "_handle_analyze"),
    "/stats": (re.compile(r"/stats"), "GET", "_handle_stats"),
    "/cache/clear": (re.compile(r"/cache/clear"), "POST",
                     "_handle_cache_clear"),
}

#: A block index entry's global read position: the key ``/reads``
#: bisects the index by.
_FIRST_READ = attrgetter("first_read")


def request_options(base: EngineOptions, overrides: dict) -> EngineOptions:
    """Apply a request's option overrides to the session baseline.

    Unknown keys and invalid values are client errors (400), surfaced
    through the facade's own validation — ``EngineOptions.replace``
    re-runs ``__post_init__`` on the merged options.  So is ``workers``
    above the server's own: decode pools live as long as the process,
    and a request starts no worker the operator did not configure.
    """
    if not overrides:
        return base
    unknown = sorted(set(overrides) - REQUEST_OPTION_KEYS)
    if unknown:
        raise HTTPError(
            400, f"unknown option(s) {', '.join(unknown)}; requests may "
                 f"override: {', '.join(sorted(REQUEST_OPTION_KEYS))}")
    try:
        options = base.replace(**overrides)
    except (TypeError, ValueError) as exc:
        raise HTTPError(400, f"invalid options: {exc}") from exc
    if options.workers > base.workers:
        raise HTTPError(400, f"invalid options: workers {options.workers} "
                             f"exceeds the server's {base.workers}")
    return options


def _analyze_sync(name: str, dataset: SAGeDataset, sink_names: list,
                  options: EngineOptions) -> dict:
    """One streaming analysis pass (runs on a pool thread).

    The request's options get a sibling session over the served
    archive, sharing the served session's decoder; it is not closed —
    the archive belongs to the served session.
    """
    session = SAGeDataset(dataset.archive, options=options,
                          decompressor=dataset.decompressor())
    try:
        pipeline = session.pipe(*sink_names)
    except (TypeError, ValueError) as exc:
        raise HTTPError(400, str(exc)) from exc
    results = pipeline.run()
    return {"archive": name,
            "results": {sink: result_info(result)
                        for sink, result in zip(sink_names, results)},
            "stream": stream_info(pipeline.stats)}


def _render_block(dataset: SAGeDataset, index: int,
                  selection: StreamSelection, fmt: str, name: str) -> bytes:
    """Block ``index`` of the archive served as ``name``, as ``fmt``
    (a pool job): the executor's per-block decode, whose FASTQ is what
    ``to_fastq`` writes for the block."""
    decoded = decode_block(dataset.decompressor(), index, selection,
                           render=fmt == "fastq", columns=fmt == "json")
    if fmt == "fastq":
        return decoded.fastq
    base = dataset.archive.block_index()[index].first_read
    reads = [{"index": base + i,
              "header": read.header or f"read{base + i}",
              "sequence": read.text,
              "quality": read.quality_text
              if read.quality is not None else None}
             for i, read in enumerate(decoded.reads)]
    return json.dumps({"archive": name, "block": index,
                       "first_read": base, "reads": reads},
                      sort_keys=True).encode("utf-8")


def _records(body: bytes, lo: int, hi: int) -> bytes:
    """Records ``[lo, hi)`` of a FASTQ body: ``fastq.render`` writes
    four lines a record, and no header holds a newline."""
    return b"\n".join(body.split(b"\n")[4 * lo:4 * hi] + [b""])


class ArchiveServer:
    """Serve one or more SAGe archives over HTTP.

    ``archives`` is a list of paths (or ``name=path`` strings to pick
    the served name explicitly; the default name is the file stem).  A
    spec splits at its first ``=``: a name holds none, a path may, so a
    path with an ``=`` in it is served as ``name=path``.  The server
    owns its datasets: :meth:`close` closes them.

    Endpoints::

        GET  /archives            served archives + shape metadata
        GET  /inspect?archive=A   ``sage inspect --json`` + archive/path
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
        #: served name -> its session.
        self._served: dict[str, SAGeDataset] = {}
        try:
            for spec in archives:
                *named, path_text = str(spec).split("=", 1)
                path = Path(path_text)
                name = "".join(named) or path.stem
                if name in self._served:
                    raise ValueError(
                        f"duplicate served archive name {name!r}; "
                        f"disambiguate with name=path")
                self._served[name] = SAGeDataset.open(
                    path, options=self.options)
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
        decodes finish), then close the datasets — so no decode ever
        races a closing archive from inside the server.
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
        self._shutdown_resources()
        self.final_stats = self.stats.to_dict()
        return self.final_stats

    def _shutdown_resources(self) -> None:
        self._pool.shutdown(wait=True)
        for dataset in self._served.values():
            dataset.close()
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
        """Route ``request`` and run its handler; the one place its
        failures are mapped.

        An :class:`HTTPError` is a status the handler (or the route
        table: 404, 405) chose; a :class:`SAGeError` (archive damage)
        becomes a 500 whose JSON body carries the error type and the
        taxonomy's ``.context`` (block index, stream, offset) so a
        client can localize the damage.  Every handler is called from
        here, so none has to remember to.
        """
        for endpoint, (pattern, method, handler) in _ROUTES.items():
            match = pattern.fullmatch(request.path)
            if match:
                break
        else:
            # One shared label keeps /stats from growing a latency
            # window per mistyped path.
            endpoint = "(unknown)"
        self.stats.begin_request()
        started = time.perf_counter()
        failed = False
        try:
            if match is None:
                raise HTTPError(404, f"no such endpoint: {request.path}")
            if request.method != method:
                raise HTTPError(405, f"{request.method} not allowed on "
                                     f"{request.path}")
            return await getattr(self, handler)(
                request, *map(int, match.groups()))
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

    # -- shared request plumbing ---------------------------------------

    def _served_for(self, name: str | None) -> tuple[str, SAGeDataset]:
        """``(name, session)`` of the archive a request names; ``None``
        names the only one served."""
        if name is None:
            if len(self._served) == 1:
                return next(iter(self._served.items()))
            raise HTTPError(400, "multiple archives are served; pick one "
                                 "with ?archive=NAME",
                            archives=sorted(self._served))
        dataset = self._served.get(name)
        if dataset is None:
            raise HTTPError(404, f"unknown archive {name!r}",
                            archives=sorted(self._served))
        return name, dataset

    def _selection_of(self, request: Request) -> StreamSelection:
        spec = request.query.get("streams")
        if spec is None:
            return StreamSelection.all_streams()
        try:
            return StreamSelection.from_query(spec)
        except ValueError as exc:
            raise HTTPError(400, str(exc)) from exc

    async def _block_body(self, name: str, index: int,
                          selection: StreamSelection, fmt: str) -> bytes:
        """The cache + coalescing + pooled-decode core of the server."""
        key = (name, index, selection.cache_token, fmt)
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
                self._pool, _render_block, self._served[name], index,
                selection, fmt, name)
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
        return Response.json({"archives": [
            {"name": name, "path": str(dataset.path),
             "n_blocks": dataset.n_blocks, "n_reads": dataset.n_reads,
             "format_version": dataset.format_version,
             "block_reads": dataset.archive.block_reads}
            for name, dataset in sorted(self._served.items())]})

    async def _handle_inspect(self, request: Request) -> Response:
        name, dataset = self._served_for(request.query.get("archive"))
        info = await asyncio.get_running_loop().run_in_executor(
            self._pool, describe, dataset)
        return Response.json(info | {"archive": name,
                                     "path": str(dataset.path)})

    async def _handle_block(self, request: Request,
                            index: int) -> Response:
        name, dataset = self._served_for(request.query.get("archive"))
        if not 0 <= index < dataset.n_blocks:
            raise HTTPError(404, f"block {index} out of range (archive "
                                 f"{name!r} has {dataset.n_blocks} "
                                 f"blocks)")
        selection = self._selection_of(request)
        fmt = request.query.get("format", "fastq")
        if fmt not in ("fastq", "json"):
            raise HTTPError(400, f"unknown format {fmt!r}; expected "
                                 f"'fastq' or 'json'")
        body = await self._block_body(name, index, selection, fmt)
        return Response(body=body) if fmt == "json" \
            else Response.text(body)

    async def _handle_reads(self, request: Request, start: int,
                            stop: int) -> Response:
        name, dataset = self._served_for(request.query.get("archive"))
        if not 0 <= start < stop <= dataset.n_reads:
            raise HTTPError(
                400, f"read range [{start}, {stop}) is invalid for "
                     f"archive {name!r} with {dataset.n_reads} reads")
        fmt = request.query.get("format", "fastq")
        if fmt != "fastq":
            raise HTTPError(400, f"unknown format {fmt!r}; /reads answers "
                                 f"'fastq'")
        selection = self._selection_of(request)
        entries = dataset.archive.block_index()
        first = bisect_right(entries, start, key=_FIRST_READ) - 1
        last = bisect_left(entries, stop, key=_FIRST_READ)
        records: list[bytes] = []
        for index in range(first, last):
            body = await self._block_body(name, index, selection, "fastq")
            base = entries[index].first_read
            records.append(_records(body, max(start - base, 0),
                                    min(stop - base, entries[index].n_reads)))
        return Response.text(b"".join(records))

    async def _handle_analyze(self, request: Request) -> Response:
        payload = request.json()
        name = payload.get("archive")
        name, dataset = self._served_for(
            request.query.get("archive") if name is None else str(name))
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
        info = await asyncio.get_running_loop().run_in_executor(
            self._pool, _analyze_sync, name, dataset, sink_names, options)
        return Response.json(info)

    async def _handle_stats(self, request: Request) -> Response:
        return Response.json(self.stats.to_dict())

    async def _handle_cache_clear(self, request: Request) -> Response:
        """Drop every cached body; the counters keep their history."""
        dropped = len(self._bodies)
        self._bodies.clear()
        self.stats.current_bytes = 0
        return Response.json({"cleared": dropped})
