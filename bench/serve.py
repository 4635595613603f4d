"""The ``serve_zipf`` workload: ``sage serve`` under a closed loop.

The server is the real CLI in a subprocess; the load generator is this
process, ``spec.CLIENTS`` threads with one keep-alive connection each.
Closed loop, because the callers this models (analysis tools,
accelerator feeders) wait for each block before asking for the next.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core import quality as quality_codec
from repro.core.container import SAGeArchive
from repro.core.decompressor import SAGeDecompressor
from repro.genomics import fastq
from repro.serve import ServeClient

from . import spec
from .harness import Tracer, median, percentile, zipf_picks
from .run import worker_env
from .workloads import UNTRACED_SHARE, ArchiveWorkload, Measured

HOST = "127.0.0.1"
#: Picks drawn; when they run out the sequence starts over.
PICKS = 20_000
STOP_TIMEOUT_S = 20.0
BARRIER_TIMEOUT_S = 30.0
#: The timed phase re-measures host speed this often.
SLICE_S = 1.0
MIN_SLICE_S = 0.05


def _reset_sigint() -> None:
    # The server stops on SIGINT; a parent that ignores SIGINT (nohup,
    # a background shell job) would otherwise pass that on to it.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


@dataclass
class Phase:
    """What the clients saw in one closed-loop phase."""

    latencies: list[float] = field(default_factory=list)
    body_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0

    def values(self) -> dict[str, float]:
        good = self.attempted - self.failed
        return {
            "fastq_mb_per_s": self.body_bytes / 1e6 / self.wall_s,
            "req_per_s": good / self.wall_s,
            "latency_p50_ms": 1e3 * median(self.latencies),
            "latency_p99_ms": 1e3 * percentile(self.latencies, 99),
        }


class ServeZipf(ArchiveWorkload):
    name = "serve_zipf"
    archive_block_reads = "serve_block_reads"

    def setup(self) -> None:
        super().setup()
        # Per-block reference bodies: /block/{i} is the slice of the
        # whole-archive FASTQ holding block i's reads (4 lines each).
        reference = self.reference_fastq()
        lines = reference.read_bytes().splitlines(keepends=True)
        reference.unlink()
        archive = SAGeArchive.open(self.archive)
        try:
            counts = [entry.n_reads for entry in archive.block_index()]
        finally:
            archive.close()
        self.block_sha: list[bytes] = []
        first = 0
        for n_reads in counts:
            body = b"".join(lines[4 * first:4 * (first + n_reads)])
            self.block_sha.append(hashlib.sha256(body).digest())
            first += n_reads
        self.n_blocks = len(counts)
        # One sequence for all clients: whoever is free takes the next
        # pick, so the order blocks are asked for in — and with it the
        # cache's evolution — does not depend on how the clients'
        # requests happen to interleave.
        self.picks = zipf_picks(self.n_blocks, PICKS, self.seed,
                                spec.ZIPF_EXPONENT)
        self.cursor = itertools.count()
        self._start_server()
        self.conns = [ServeClient(HOST, self.port)
                      for _ in range(spec.CLIENTS)]

    def _start_server(self) -> None:
        self.server_log = open(self.workdir / "server.stderr", "wb")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(self.archive),
             "--host", HOST, "--port", "0",
             "--cache-mb", str(self.sizes["serve_cache_mb"]),
             "--decode-threads", str(spec.SERVE_DECODE_THREADS)],
            stdout=subprocess.PIPE, stderr=self.server_log, env=worker_env(),
            preexec_fn=_reset_sigint)
        banner = self.server.stdout.readline().decode("utf-8", "replace")
        if "http://" not in banner:
            self.teardown()
            raise RuntimeError(f"sage serve did not start: {banner!r}")
        self.port = int(banner.rsplit(":", 1)[1])
        with ServeClient(HOST, self.port) as client:
            client.get_json("/archives")        # readiness

    def teardown(self) -> None:
        for conn in getattr(self, "conns", ()):
            conn.close()
        self.conns = []
        server = getattr(self, "server", None)
        if server is None:
            return
        self.server = None
        if server.poll() is None:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        server.stdout.close()
        self.server_log.close()

    # -- load generation -----------------------------------------------

    def _next_pick(self) -> int:
        return self.picks[next(self.cursor) % PICKS]

    def _client_loop(self, client: int, start: threading.Barrier, *,
                     seconds: float | None, count: int | None,
                     tracer: Tracer | None, parent: dict | None) -> Phase:
        """Fetch picked blocks until ``seconds`` pass or ``count`` are
        done; a request fails on a non-200, a wrong body or an error."""
        phase = Phase()
        conn = self.conns[client]
        start.wait(BARRIER_TIMEOUT_S)
        span = None if tracer is None else tracer.begin(
            "serve.client", parent=parent["id"], client=client)
        deadline = None if seconds is None \
            else time.perf_counter() + seconds
        while (phase.attempted < count if deadline is None
               else time.perf_counter() < deadline):
            block = self._next_pick()
            phase.attempted += 1
            request = None if tracer is None else tracer.begin(
                "serve.request", block=block)
            begun = time.perf_counter()
            try:
                status, body = conn.get(f"/block/{block}")
            except (OSError, http.client.HTTPException):
                status, body = 0, b""
            phase.latencies.append(time.perf_counter() - begun)
            if request is not None:
                tracer.end(request)
            phase.body_bytes += len(body)
            if status != 200 or hashlib.sha256(body).digest() \
                    != self.block_sha[block]:
                phase.failed += 1
        if span is not None:
            tracer.end(span)
        return phase

    def closed_loop(self, *, seconds: float | None = None,
                    count: int | None = None, tracer: Tracer | None = None,
                    parent: dict | None = None) -> Phase:
        """All clients at once, each for ``seconds`` or ``count``
        requests; returns what they saw together."""
        start = threading.Barrier(spec.CLIENTS + 1)
        with ThreadPoolExecutor(max_workers=spec.CLIENTS) as pool:
            futures = [pool.submit(self._client_loop, client, start,
                                   seconds=seconds, count=count,
                                   tracer=tracer, parent=parent)
                       for client in range(spec.CLIENTS)]
            start.wait(BARRIER_TIMEOUT_S)
            begun = time.perf_counter()
            parts = [future.result() for future in futures]
            wall_s = time.perf_counter() - begun
        return Phase(
            latencies=[x for part in parts for x in part.latencies],
            body_bytes=sum(part.body_bytes for part in parts),
            attempted=sum(part.attempted for part in parts),
            failed=sum(part.failed for part in parts), wall_s=wall_s)

    def timed_phase(self, seconds: float, tracer: Tracer | None = None,
                    parent: dict | None = None) -> tuple[Phase, Phase]:
        """A closed loop of ``seconds`` in slices, each scaled by the
        host speed measured (clients paused) before and after it;
        returns (scaled, as the clock read it)."""
        scaled, raw = Phase(), Phase()
        self.slices: list[dict] = []
        deadline = time.perf_counter() + seconds
        before = self.host.kernel_time(0.0, samples=3)
        while not self.slices or time.perf_counter() < deadline:
            part = self.closed_loop(
                seconds=min(SLICE_S, max(MIN_SLICE_S,
                                         deadline - time.perf_counter())),
                tracer=tracer, parent=parent)
            after = self.host.kernel_time(0.0, samples=3)
            scale = self.host.scale(before, after)
            before = after
            self.slices.append({
                "scale": scale, "wall_s": part.wall_s,
                "attempted": part.attempted, "failed": part.failed,
                "body_bytes": part.body_bytes,
                "p50_ms": 1e3 * median(part.latencies)})
            for total, factor in ((scaled, scale), (raw, 1.0)):
                total.latencies.extend(factor * x for x in part.latencies)
                total.wall_s += factor * part.wall_s
                total.body_bytes += part.body_bytes
                total.attempted += part.attempted
                total.failed += part.failed
        return scaled, raw

    def _stats(self) -> dict:
        with ServeClient(HOST, self.port) as client:
            return client.get_json("/stats")

    # -- untraced ------------------------------------------------------

    def measure(self, seconds: float) -> Measured:
        warm = self.closed_loop(count=self.sizes["serve_warm_requests"])
        before = self._stats()["cache"]
        scaled, raw = self.timed_phase(seconds)
        after = self._stats()["cache"]
        ratio = {"stored_ratio": self.stored_ratio()}
        return Measured(
            latencies=scaled.latencies,
            attempted=scaled.attempted + warm.attempted,
            failed=scaled.failed + warm.failed,
            values={**scaled.values(), **ratio},
            raw={**raw.values(), **ratio},
            detail={"slices": self.slices,
                    "cache_hits": after["hits"] - before["hits"],
                    "cache_misses": after["misses"] - before["misses"]})

    # -- traced --------------------------------------------------------

    def _timed_gets(self, client: ServeClient, target: str, repeats: int,
                    tracer: Tracer, name: str, parent: dict,
                    before=None) -> list[float]:
        """``repeats`` timed GETs of one target on one connection,
        scaled by the host speed measured just before."""
        scale = self.host.scale(self.host.kernel_time(0.0, samples=3))
        latencies = []
        for _ in range(repeats):
            if before is not None:
                before()
            with tracer.span(name, parent=parent["id"]) as span:
                status, _body = client.get(target)
            if status != 200:
                self.failures.append(f"{name}: GET {target} -> {status}")
            latencies.append(scale * tracer.duration(span))
        return latencies

    def trace(self, seconds: float, tracer: Tracer
              ) -> tuple[dict[str, float], int, int]:
        warm = self.closed_loop(count=self.sizes["serve_warm_requests"])
        untraced, _raw = self.timed_phase(UNTRACED_SHARE * seconds)
        before = self._stats()
        with tracer.span("pass") as root:
            traced, _raw = self.timed_phase((1 - UNTRACED_SHARE) * seconds,
                                            tracer, root)
        after = self._stats()

        def delta(*keys: str) -> float:
            a, b = after, before
            for key in keys:
                a, b = a[key], b[key]
            return a - b

        kreq = delta("requests") / 1e3
        lookups = delta("cache", "hits") + delta("cache", "misses")
        metrics = {
            "api.cache.hit_ratio": delta("cache", "hits") / lookups,
            "api.cache.evictions": delta("cache", "evictions") / kreq,
            "api.cache.peak_bytes": after["cache"]["peak_bytes"],
            "serve.decodes": delta("decodes") / kreq,
            "serve.coalesced": delta("coalesced") / kreq,
            "serve.inflight_peak": after["inflight_peak"],
            "serve.errors": delta("errors") / kreq,
            "serve.client_p50_ms": 1e3 * median(untraced.latencies),
            "serve.client_p99_ms": 1e3 * percentile(untraced.latencies, 99),
            "trace.coverage": tracer.total("serve.request", root)
            / tracer.total("serve.client", root),
            "trace.overhead_ratio": median(traced.latencies)
            / median(untraced.latencies),
        }

        # One client, one layer of the request path at a time.
        hot = self.picks[0]
        with ServeClient(HOST, self.port) as client, \
                tracer.span("single_client") as single:
            client.get(f"/block/{hot}")
            metrics["serve.hit_ms_p50"] = 1e3 * median(self._timed_gets(
                client, f"/block/{hot}", self.sizes["hit_repeats"], tracer,
                "serve.hit", single))
            metrics["serve.miss_ms_p50"] = 1e3 * median(self._timed_gets(
                client, f"/block/{hot}", self.sizes["miss_repeats"], tracer,
                "serve.miss", single,
                before=lambda: client.post_json("/cache/clear", {})))
            metrics["serve.http_floor_ms"] = 1e3 * median(self._timed_gets(
                client, "/archives", self.sizes["floor_repeats"], tracer,
                "serve.http_floor", single))
        window = self._stats()["endpoints"]["/block"]
        metrics["serve.server_p50_ms"] = window["p50_ms"]
        metrics["serve.server_p99_ms"] = window["p99_ms"]
        metrics.update(self._probe_layers(tracer))
        phases = (warm, untraced, traced)
        return (metrics, sum(p.attempted for p in phases),
                sum(p.failed for p in phases) + len(self.failures))

    def _probe_layers(self, tracer: Tracer) -> dict[str, float]:
        """What one request's layers cost in this process, per block:
        a miss pays block_full (mostly quality decode), a hit render."""
        scale = self.host.scale(self.host.kernel_time(0.0, samples=3))
        with tracer.span("layer_probes", host_scale=scale) as root:
            with tracer.span("core.container.open"):
                archive = SAGeArchive.open(self.archive)
            decoder = SAGeDecompressor(archive)
            rendered = scores = 0
            for index in range(archive.n_blocks):
                block = archive.block(index)
                with tracer.span("core.decompressor.block_full",
                                 block=index):
                    read_set = decoder.decompress_block(index)
                with tracer.span("core.quality.decode", block=index):
                    scores += int(
                        quality_codec.decompress(block.quality).size)
                with tracer.span("genomics.fastq.render", block=index):
                    rendered += len(fastq.write(read_set))
                archive.release_block(index)
            archive.close()
        per_block = scale / self.n_blocks
        return {
            "core.container.open_s":
                scale * tracer.total("core.container.open", root),
            "core.decompressor.block_full_s": per_block
            * tracer.total("core.decompressor.block_full", root),
            "core.quality.decode_s":
                per_block * tracer.total("core.quality.decode", root),
            "core.quality.scores": scores / self.n_blocks,
            "genomics.fastq.render_s":
                per_block * tracer.total("genomics.fastq.render", root),
            "genomics.fastq.render_bytes": rendered / self.n_blocks,
        }
