"""The five batch workloads: untraced operations and traced passes.

An untraced *operation* goes through the public entry points only
(``SAGeDataset.from_fastq/save/open/to_fastq/pipe().run()``).  A traced
*pass* is the harness's own replay of the same work, one layer call at
a time, with a span around each call; spans the harness cannot open
from outside (the mapper and the quality encoder run inside
``SAGeCompressor.compress``) are attributed by *probes* that re-run
that layer alone after the pass.
"""

from __future__ import annotations

import dataclasses
import pickle
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api import EngineOptions, SAGeDataset
from repro.core import quality as quality_codec
from repro.core.container import SAGeArchive
from repro.core.decompressor import SAGeDecompressor
from repro.core.kernels import resolve_kernel
from repro.core.selection import StreamSelection
from repro.genomics import fastq
from repro.genomics import sequence as seqmod
from repro.mapping import batch as mapping_batch
from repro.mapping.mapper import MapperConfig
from repro.pipeline.executor import FastqSink

from . import spec
from .harness import (Corpus, HostSpeed, Tracer, build_corpus, median,
                      multiset_signature, sha256_file)

SEQUENCE = StreamSelection.of("sequence")

#: Share of ``--seconds`` a traced run spends on untraced operations
#: (the base of ``trace.overhead_ratio``); the rest goes to passes.
UNTRACED_SHARE = 0.3


@dataclass
class Measured:
    """Outcome of the timed part of an untraced run."""

    latencies: list[float]          # host-speed-scaled seconds per op
    attempted: int                  # operations whose output was checked
    failed: int
    values: dict[str, float]        # the end-to-end metrics it yields
    raw: dict[str, float]           # the same from unscaled clock readings
    detail: dict                    # per-operation readings, for the file


class CountBasesSink:
    """Sums ``len(read.codes)``: a consumer of 2-bit codes and nothing
    else, so the executor skips quality, headers and order."""

    requires = ("sequence",)

    def __init__(self) -> None:
        self.bases = 0

    def consume(self, index: int, block) -> None:
        self.bases += sum(len(read.codes) for read in block)

    def finish(self) -> int:
        return self.bases


class SpannedSink:
    """Wraps a sink so each ``consume`` call is a span."""

    requires = None

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.requires = inner.requires

    def consume(self, index: int, block) -> None:
        with self.tracer.span("sink.consume", block=index):
            self.inner.consume(index, block)

    def finish(self):
        return self.inner.finish()


class Workload:
    """One workload: inputs for a seed, a timed loop, a traced loop."""

    name = ""
    corpus_kind = "short"
    #: Span names on the blocking path of one traced pass.
    blocking: tuple[str, ...] = ()

    def __init__(self, sizes: dict, seed: int, workdir: Path) -> None:
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.corpus: Corpus | None = None
        self.failures: list[str] = []
        self.host = HostSpeed()

    # -- life cycle ----------------------------------------------------

    def setup(self) -> None:
        """Build everything the first timed operation needs."""
        self.corpus = build_corpus(self.corpus_kind, self.sizes, self.seed,
                                   self.workdir)

    def teardown(self) -> None:
        """Undo :meth:`setup` (stop what it started)."""

    # -- to implement --------------------------------------------------

    def op(self):
        """One untraced operation; returns what :meth:`check` needs."""
        raise NotImplementedError

    def check(self, out) -> bool:
        """Whether an operation's output is correct (never timed)."""
        raise NotImplementedError

    def traced_pass(self, tracer: Tracer) -> dict[str, float]:
        """One traced pass; returns this pass's per-layer values."""
        raise NotImplementedError

    def stored_ratio(self) -> float:
        """Bytes of the archive the workload writes or reads per FASTQ
        byte (every workload keeps its archive at ``self.archive``)."""
        return self.archive.stat().st_size / self.corpus.fastq_bytes

    # -- shared loops --------------------------------------------------

    def _checked(self, out, what: str) -> bool:
        ok = self.check(out)
        if not ok:
            self.failures.append(what)
        return ok

    def timed_ops(self, seconds: float, min_ops: int
                  ) -> tuple[list[float], list[float], int]:
        """Operations until ``seconds`` have passed (at least
        ``min_ops``); returns (latencies scaled to the reference host
        speed, latencies as the clock read them, failures).  Checks and
        host-speed samples run between operations, outside the timed
        intervals."""
        raw: list[float] = []
        kernel = [self.host.kernel_time()]
        failed = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(raw) < min_ops:
            start = time.perf_counter()
            out = self.op()
            raw.append(time.perf_counter() - start)
            if not self._checked(out, f"op {len(raw)}"):
                failed += 1
            kernel.append(self.host.kernel_time())
        scaled = [self.host.scale(kernel[k], kernel[k + 1]) * raw[k]
                  for k in range(len(raw))]
        return scaled, raw, failed

    def _values(self, latencies: list[float], failed: int
                ) -> dict[str, float]:
        return {
            "fastq_mb_per_s":
                self.corpus.fastq_bytes / 1e6 / median(latencies),
            "req_per_s": (1 - failed / len(latencies)) / median(latencies),
            "latency_p50_ms": 1e3 * median(latencies),
            "stored_ratio": self.stored_ratio(),
        }

    def measure(self, seconds: float) -> Measured:
        warm_failed = 0 if self._checked(self.op(), "warm-up") else 1
        scaled, raw, failed = self.timed_ops(seconds,
                                             self.sizes["min_ops"])
        return Measured(
            latencies=scaled, attempted=len(scaled) + 1,
            failed=failed + warm_failed,
            values=self._values(scaled, failed),
            raw=self._values(raw, failed),
            detail={"op_s": raw, "op_scaled_s": scaled})

    def trace(self, seconds: float, tracer: Tracer
              ) -> tuple[dict[str, float], int, int]:
        """Traced run: (per-layer metrics, attempted, failed)."""
        failed = 0 if self._checked(self.op(), "warm-up") else 1
        untraced, _raw, bad = self.timed_ops(UNTRACED_SHARE * seconds,
                                             self.sizes["min_ops"])
        failed += bad
        passes: list[dict[str, float]] = []
        kernel = [self.host.kernel_time()]
        deadline = time.perf_counter() + (1 - UNTRACED_SHARE) * seconds
        while time.perf_counter() < deadline \
                or len(passes) < self.sizes["min_ops"]:
            passes.append(self.traced_pass(tracer))
            kernel.append(self.host.kernel_time())
        scales = [self.host.scale(kernel[k], kernel[k + 1])
                  for k in range(len(passes))]
        # Spans keep raw clock readings; the seconds reported from them
        # are scaled like the untraced latencies they are compared to.
        roots = tracer.named("pass")
        for scale, root, values in zip(scales, roots, passes):
            root["host_scale"] = scale
            for key in values:
                if key.endswith("_s"):
                    values[key] *= scale
        walls = [scale * tracer.duration(root)
                 for scale, root in zip(scales, roots)]
        metrics = {key: median(p[key] for p in passes)
                   for key in passes[0]}
        metrics["trace.coverage"] = median(
            sum(tracer.total(name, root) for name in self.blocking)
            / tracer.duration(root) for root in roots)
        metrics["trace.overhead_ratio"] = median(walls) / median(untraced)
        metrics.update(self.trace_extras(untraced))
        failed += sum(1 for p in passes if p.get("_failed"))
        metrics.pop("_failed", None)
        return metrics, 1 + len(untraced) + len(passes), failed

    def trace_extras(self, untraced: list[float]) -> dict[str, float]:
        """Per-layer values that need the untraced latencies."""
        return {}


# ----------------------------------------------------------------------
# encode_short / encode_long
# ----------------------------------------------------------------------


class Encode(Workload):
    """FASTQ file -> ``from_fastq`` -> ``save``; quality on, serial."""

    blocking = ("genomics.fastq.parse", "core.compressor.block",
                "api.dataset.save")

    def setup(self) -> None:
        super().setup()
        self.options = EngineOptions(block_reads=self.sizes["block_reads"])
        self.archive = self.workdir / f"{self.name}.sage"
        self.good_sha: str | None = None

    def op(self) -> Path:
        dataset = SAGeDataset.from_fastq(
            str(self.corpus.fastq), reference=str(self.corpus.reference),
            options=self.options)
        dataset.save(self.archive)
        return self.archive

    def check(self, out: Path) -> bool:
        # The encoder is deterministic, so after one full check (decode
        # and compare as a multiset) equal bytes are equal content.
        sha = sha256_file(out)
        if sha == self.good_sha:
            return True
        with SAGeDataset.open(out) as dataset:
            ok = multiset_signature(dataset.read_set()) \
                == self.corpus.signature
        if ok and self.good_sha is None:
            self.good_sha = sha
        return ok

    def _probe_mapper(self, chunk):
        """The mapper ``SAGeCompressor.compress`` builds for ``chunk``
        (same adjustments as its ``_build_mapper``)."""
        config = self.options.compressor_config()
        long_reads = config.long_reads
        if long_reads is None:
            long_reads = not chunk.is_fixed_length
        mapper_config = dataclasses.replace(config.mapper or MapperConfig())
        if not (config.level.chimeric and long_reads):
            mapper_config.max_segments = 1
        if not config.level.chimeric:
            mapper_config.unmapped_cost_fraction = 0.80
        if long_reads:
            mapper_config.stride = max(mapper_config.stride, 4)
        consensus = seqmod.encode(
            self.corpus.reference.read_text(encoding="ascii").strip())
        return mapping_batch.make_mapper(config.mapper_kernel, consensus,
                                         mapper_config)

    def traced_pass(self, tracer: Tracer) -> dict[str, float]:
        blocks: list[tuple[dict, object]] = []

        def chunks():
            source = fastq.iter_read_sets(self.corpus.fastq,
                                          self.options.effective_block_reads)
            while True:
                with tracer.span("genomics.fastq.parse"):
                    chunk = next(source, None)
                if chunk is None:
                    return
                # from_fastq compresses this chunk before it asks for
                # the next one, so the time the generator is suspended
                # is SAGeCompressor.compress(chunk).
                span = tracer.begin("core.compressor.block",
                                    block=len(blocks))
                blocks.append((span, chunk))
                try:
                    yield chunk
                finally:
                    tracer.end(span)

        mapping_batch.reset_stats()
        with tracer.span("pass") as root:
            with tracer.span("api.dataset.from_fastq"):
                dataset = SAGeDataset.from_fastq(
                    chunks(), reference=str(self.corpus.reference),
                    options=self.options)
            with tracer.span("api.dataset.save") as save:
                dataset.save(self.archive)
        mapper_stats = dataclasses.replace(mapping_batch.GLOBAL_STATS)

        # Probes: the same layer calls, alone, after the pass.
        with tracer.probe("core.container.serialize", save) as serialize:
            dataset.to_bytes()
        mapper = self._probe_mapper(blocks[0][1])
        order1 = self.options.compressor_config().quality_order1
        for span, chunk in blocks:
            codes = [read.codes for read in chunk]
            with tracer.probe("mapping.batch.map", span):
                mapper.map_batch(codes)
            scores = np.concatenate([read.quality for read in chunk])
            with tracer.probe("core.quality.encode", span):
                quality_codec.compress(scores, order1=order1)

        block_s = tracer.total("core.compressor.block", root)
        map_s = tracer.total("mapping.batch.map", root)
        encode_s = tracer.total("core.quality.encode", root)
        serialize_s = tracer.duration(serialize)
        archive = dataset.archive
        out = {
            "genomics.fastq.parse_s":
                tracer.total("genomics.fastq.parse", root),
            "mapping.batch.map_s": map_s,
            "core.compressor.block_s": block_s,
            "core.compressor.self_s": block_s - map_s - encode_s,
            "core.quality.encode_s": encode_s,
            "core.quality.bytes": sum(
                archive.block(i).quality.byte_size
                for i in range(archive.n_blocks)),
            "core.container.archive_bytes": self.archive.stat().st_size,
            "core.container.serialize_s": serialize_s,
            "api.dataset.save_s": tracer.duration(save) - serialize_s,
            "_failed": 0 if self._checked(self.archive, "traced pass")
            else 1,
        }
        if mapper_stats.reads:      # only the batch mapper keeps stats
            out["mapping.batch.fast_path_ratio"] = \
                mapper_stats.fast_path_fraction
            out["mapping.batch.dp_cells"] = mapper_stats.dp_cells
        return out


class EncodeShort(Encode):
    name = "encode_short"


class EncodeLong(Encode):
    name = "encode_long"
    corpus_kind = "long"


# ----------------------------------------------------------------------
# decode_fastq / decode_fastq_proc / scan_sequence
# ----------------------------------------------------------------------


class ArchiveWorkload(Workload):
    """Workloads whose input is an archive built in set-up."""

    archive_block_reads = "block_reads"

    def setup(self) -> None:
        super().setup()
        self.archive = self.workdir / f"{self.name}.sage"
        SAGeDataset.from_fastq(
            str(self.corpus.fastq), reference=str(self.corpus.reference),
            options=EngineOptions(
                block_reads=self.sizes[self.archive_block_reads])
        ).save(self.archive)
        self.out = self.workdir / f"{self.name}.out.fastq"

    def reference_fastq(self) -> Path:
        """The archive decoded by the ``python`` reference kernel on the
        serial backend: what every decode must reproduce byte for byte."""
        path = self.workdir / f"{self.name}.reference.fastq"
        options = EngineOptions(codec="python", backend="serial")
        with SAGeDataset.open(self.archive, options=options) as dataset:
            dataset.to_fastq(path)
        return path


def _probe_dna_kernel(tracer: Tracer, archive: SAGeArchive,
                      decoder: SAGeDecompressor, index: int,
                      explains: dict) -> None:
    """The DNA kernel of one block, alone (what ``decompress`` calls
    for the sequence group of a flat block view)."""
    flat = SAGeDecompressor(archive.block_view(index),
                            consensus=decoder.consensus,
                            codec=decoder.codec)
    with tracer.probe("core.kernels.dna_decode", explains, block=index):
        resolve_kernel(decoder.codec).decode_reads(flat, select=SEQUENCE)


class DecodeFastq(ArchiveWorkload):
    """``open`` -> ``to_fastq``; full selection, serial backend."""

    name = "decode_fastq"
    options = EngineOptions()
    blocking = ("core.container.open", "core.decompressor.init",
                "core.container.payload", "core.decompressor.block_full",
                "genomics.fastq.render", "io.write")

    def setup(self) -> None:
        super().setup()
        reference = self.reference_fastq()
        self.reference_sha = sha256_file(reference)
        reference.unlink()

    def op(self) -> Path:
        with SAGeDataset.open(self.archive, options=self.options) as dataset:
            dataset.to_fastq(self.out)
        return self.out

    def check(self, out: Path) -> bool:
        return sha256_file(out) == self.reference_sha

    def traced_pass(self, tracer: Tracer) -> dict[str, float]:
        full: list[dict] = []
        rendered = 0
        with tracer.span("pass") as root:
            with tracer.span("core.container.open"):
                archive = SAGeArchive.open(self.archive)
            with tracer.span("core.decompressor.init"):
                decoder = SAGeDecompressor(archive)
            with open(self.out, "w", encoding="ascii") as handle:
                for index in range(archive.n_blocks):
                    with tracer.span("core.container.payload", block=index):
                        archive.block(index)
                    with tracer.span("core.decompressor.block_full",
                                     block=index) as span:
                        read_set = decoder.decompress_block(index)
                    full.append(span)
                    with tracer.span("genomics.fastq.render", block=index):
                        text = fastq.write(read_set)
                    with tracer.span("io.write", block=index):
                        handle.write(text)
                    rendered += len(text)
                    archive.release_block(index)
        replay_ok = self._checked(self.out, "traced pass")
        for index, span in enumerate(full):
            block = archive.block(index)
            with tracer.probe("core.decompressor.block_seq", span,
                              block=index):
                decoder.decompress_block(index, select=SEQUENCE)
            _probe_dna_kernel(tracer, archive, decoder, index, span)
            with tracer.probe("core.quality.decode", span,
                              block=index) as probe:
                probe["scores"] = int(
                    quality_codec.decompress(block.quality).size)
            archive.release_block(index)
        archive.close()

        # The same work through the executor, with the sink spanned.
        with SAGeDataset.open(self.archive, options=self.options) as dataset:
            with open(self.out, "w", encoding="ascii") as handle:
                pipeline = dataset.pipe(
                    SpannedSink(FastqSink(handle), tracer))
                with tracer.span("pipeline.executor.run") as run:
                    pipeline.run()
            stream_bits = pipeline.stats.stream_bits_total
        block_s = tracer.total("core.decompressor.block_full", root)
        payload_s = tracer.total("core.container.payload", root)
        seq_s = tracer.total("core.decompressor.block_seq", root)
        dna_s = tracer.total("core.kernels.dna_decode", root)
        return {
            "genomics.fastq.render_s":
                tracer.total("genomics.fastq.render", root),
            "genomics.fastq.render_bytes": rendered,
            "core.quality.decode_s": tracer.total("core.quality.decode", root),
            "core.quality.scores": sum(
                s["scores"] for s in tracer.named("core.quality.decode",
                                                  root)),
            "core.kernels.dna_decode_s": dna_s,
            "core.kernels.stream_bits": stream_bits,
            "core.container.open_s": tracer.total("core.container.open",
                                                  root),
            "core.container.payload_s": payload_s,
            "core.decompressor.block_full_s": block_s,
            "core.decompressor.block_seq_s": seq_s,
            "core.decompressor.assemble_s": seq_s - dna_s,
            "pipeline.executor.run_s": tracer.duration(run),
            "pipeline.executor.overhead_s":
                tracer.duration(run) - block_s - payload_s
                - tracer.total("sink.consume", run),
            "_failed": 0 if replay_ok else 1,
        }


class DecodeFastqProc(DecodeFastq):
    """The same decode on two pool workers: the pool start, the
    descriptors out and the pickled reads back are on the blocking
    path, so the pass is the public call itself and the layers inside
    the workers and the parent are probed serially afterwards."""

    name = "decode_fastq_proc"
    options = EngineOptions(workers=spec.PROC_WORKERS, backend="process")
    blocking = ("api.dataset.open", "pipeline.executor.run",
                "api.dataset.close")

    def traced_pass(self, tracer: Tracer) -> dict[str, float]:
        with tracer.span("pass") as root:
            with tracer.span("api.dataset.open"):
                dataset = SAGeDataset.open(self.archive, options=self.options)
            with tracer.span("pipeline.executor.run") as run:
                dataset.to_fastq(self.out)
            stats = dataset.stats
            with tracer.span("api.dataset.close"):
                dataset.close()
        replay_ok = self._checked(self.out, "traced pass")

        back_bytes = rendered = scores = 0
        with SAGeDataset.open(self.archive) as serial:
            archive = serial.archive
            decoder = serial.decompressor()
            for index in range(archive.n_blocks):
                block = archive.block(index)
                with tracer.probe("core.decompressor.block_full", run,
                                  block=index):
                    read_set = decoder.decompress_block(index)
                with tracer.probe("core.quality.decode", run, block=index):
                    scores += int(
                        quality_codec.decompress(block.quality).size)
                with tracer.probe("pipeline.executor.ipc_back", run,
                                  block=index):
                    blob = pickle.dumps(read_set)
                    pickle.loads(blob)
                back_bytes += len(blob)
                with tracer.probe("genomics.fastq.render", run,
                                  block=index):
                    rendered += len(fastq.write(read_set))
                archive.release_block(index)
        return {
            "genomics.fastq.render_s":
                tracer.total("genomics.fastq.render", root),
            "genomics.fastq.render_bytes": rendered,
            "core.quality.decode_s": tracer.total("core.quality.decode", root),
            "core.quality.scores": scores,
            "core.decompressor.block_full_s":
                tracer.total("core.decompressor.block_full", root),
            "pipeline.executor.run_s": tracer.duration(run),
            "pipeline.executor.ipc_out_bytes": stats.bytes_shipped,
            "pipeline.executor.ipc_back_bytes": back_bytes,
            "pipeline.executor.ipc_back_s":
                tracer.total("pipeline.executor.ipc_back", root),
            "pipeline.executor.peak_inflight": stats.peak_inflight,
            "_failed": 0 if replay_ok else 1,
        }

    def trace_extras(self, untraced: list[float]) -> dict[str, float]:
        serial = []
        for _ in range(self.sizes["min_ops"]):
            before = self.host.kernel_time()
            start = time.perf_counter()
            with SAGeDataset.open(self.archive) as dataset:
                dataset.to_fastq(self.out)
            elapsed = time.perf_counter() - start
            serial.append(self.host.scale(before, self.host.kernel_time())
                          * elapsed)
        return {"pipeline.executor.parallel_efficiency":
                median(serial) / (spec.PROC_WORKERS * median(untraced))}


class ScanSequence(ArchiveWorkload):
    """``open`` -> ``pipe(CountBasesSink()).run()``; serial."""

    name = "scan_sequence"
    blocking = ("core.container.open", "core.decompressor.init",
                "core.container.payload", "core.decompressor.block_seq",
                "sink.consume")

    def op(self) -> int:
        with SAGeDataset.open(self.archive) as dataset:
            [bases] = dataset.pipe(CountBasesSink()).run()
        return bases

    def check(self, out: int) -> bool:
        return out == self.corpus.total_bases

    def traced_pass(self, tracer: Tracer) -> dict[str, float]:
        sink = CountBasesSink()
        blocks: list[dict] = []
        with tracer.span("pass") as root:
            with tracer.span("core.container.open"):
                archive = SAGeArchive.open(self.archive)
            with tracer.span("core.decompressor.init"):
                decoder = SAGeDecompressor(archive)
            for index in range(archive.n_blocks):
                with tracer.span("core.container.payload", block=index):
                    archive.block(index)
                with tracer.span("core.decompressor.block_seq",
                                 block=index) as span:
                    read_set = decoder.decompress_block(index,
                                                        select=SEQUENCE)
                blocks.append(span)
                with tracer.span("sink.consume", block=index):
                    sink.consume(index, read_set)
                archive.release_block(index)
        replay_ok = self._checked(sink.finish(), "traced pass")
        for index, span in enumerate(blocks):
            _probe_dna_kernel(tracer, archive, decoder, index, span)
            archive.release_block(index)
        archive.close()

        with SAGeDataset.open(self.archive) as dataset:
            pipeline = dataset.pipe(SpannedSink(CountBasesSink(), tracer))
            with tracer.span("pipeline.executor.run") as run:
                pipeline.run()
            stream_bits = pipeline.stats.stream_bits_total
        seq_s = tracer.total("core.decompressor.block_seq", root)
        dna_s = tracer.total("core.kernels.dna_decode", root)
        payload_s = tracer.total("core.container.payload", root)
        return {
            "core.kernels.dna_decode_s": dna_s,
            "core.kernels.stream_bits": stream_bits,
            "core.container.open_s": tracer.total("core.container.open",
                                                  root),
            "core.container.payload_s": payload_s,
            "core.decompressor.block_seq_s": seq_s,
            "core.decompressor.assemble_s": seq_s - dna_s,
            "pipeline.executor.run_s": tracer.duration(run),
            "pipeline.executor.overhead_s":
                tracer.duration(run) - seq_s - payload_s
                - tracer.total("sink.consume", run),
            "_failed": 0 if replay_ok else 1,
        }


BATCH = {cls.name: cls for cls in (EncodeShort, EncodeLong, DecodeFastq,
                                   DecodeFastqProc, ScanSequence)}
