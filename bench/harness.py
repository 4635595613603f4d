"""Shared pieces of the benchmark: spans, statistics, inputs, provenance.

Imports :mod:`repro`, so only the workload process (``bench.worker``)
loads this module; ``bench.run`` stays import-light.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import socket
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.genomics import datasets, fastq
from repro.genomics import sequence as seqmod
from repro.genomics.reads import Read, ReadSet

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Tracer:
    """In-memory spans: ``name, id, parent, start, end`` plus attributes.

    Spans nest per thread (the parent of a new span is the innermost
    open span of the calling thread).  ``probe=True`` marks a span that
    re-runs one layer on its own after the pass, to attribute time
    inside a span the harness cannot open from outside; probes carry
    the parent they explain but lie outside its interval.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, *, parent: int | None = None,
              probe: bool = False, **attrs) -> dict:
        stack = self._stack()
        if parent is None and stack and not probe:
            parent = stack[-1]
        span = {"name": name, "id": next(self._ids), "parent": parent,
                "start": time.perf_counter(), "end": None}
        if probe:
            span["probe"] = True
        span.update(attrs)
        self.spans.append(span)
        if not probe:
            stack.append(span["id"])
        return span

    def end(self, span: dict) -> float:
        span["end"] = time.perf_counter()
        if not span.get("probe"):
            self._stack().pop()
        return span["end"] - span["start"]

    @contextmanager
    def span(self, name: str, **attrs):
        span = self.begin(name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def probe(self, name: str, explains: dict, **attrs):
        """A probe span under the span it explains."""
        return self.span(name, parent=explains["id"], probe=True, **attrs)

    # -- queries -------------------------------------------------------

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def named(self, name: str, within: dict | None = None) -> list[dict]:
        """Spans called ``name`` (optionally only descendants of, or
        probes explaining, ``within``)."""
        found = [s for s in self.spans if s["name"] == name]
        if within is None:
            return found
        parent_of = {s["id"]: s["parent"] for s in self.spans}

        def under(span: dict) -> bool:
            parent = span["parent"]
            while parent is not None and parent != within["id"]:
                parent = parent_of[parent]
            return parent is not None

        return [s for s in found if under(s)]

    def total(self, name: str, within: dict | None = None) -> float:
        return sum(self.duration(s) for s in self.named(name, within))

    def dump(self, path: Path, **meta) -> None:
        payload = dict(meta, spans=self.spans)
        path.write_text(json.dumps(payload), encoding="utf-8")


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: What the calibration kernel takes on the reference host in its
#: usual state.  Timings are reported as if the host ran the kernel in
#: exactly this time (see :class:`HostSpeed`).
CALIBRATION_REFERENCE_S = 0.025


class HostSpeed:
    """Tracks how fast the host is right now, to take that out of the
    timings.

    The reference VM slows down and speeds up by up to 1.5x for seconds
    at a time, whatever runs on it: a pure-Python loop and a FASTQ
    decode slow down together.  Over four minutes the medians of 8 s
    windows of a decode spread (interquartile range / median) by 15 %;
    divided by the time of a small fixed kernel run next to each
    operation they spread by 6 %.  So every timed operation is scaled by
    ``CALIBRATION_REFERENCE_S / (kernel time around it)``, the mean of
    a measurement before and one after.
    The kernel mixes what the program under test is made of: a
    bytecode loop and small numpy calls.
    """

    def __init__(self) -> None:
        self._array = np.arange(4096, dtype=np.int64)
        self.samples: list[float] = []
        self._last = CALIBRATION_REFERENCE_S
        self._taken = float("-inf")

    def _kernel(self) -> int:
        total = 0
        for i in range(300_000):
            total += i * i
        for _ in range(1500):
            total += int((self._array * 3 + 1).sum())
        return total

    def sample(self) -> float:
        begun = time.perf_counter()
        self._kernel()
        elapsed = time.perf_counter() - begun
        self.samples.append(elapsed)
        return elapsed

    def kernel_time(self, max_age: float = 0.5, samples: int = 1) -> float:
        """Seconds the kernel takes now: the last measurement if it is
        younger than ``max_age`` seconds, else the median of ``samples``
        new ones."""
        if time.perf_counter() - self._taken > max_age:
            self._last = statistics.median(self.sample()
                                           for _ in range(samples))
            self._taken = time.perf_counter()
        return self._last

    @staticmethod
    def scale(before: float, after: float | None = None) -> float:
        """Factor for an interval timed between two kernel times (or
        next to one)."""
        after = before if after is None else after
        return CALIBRATION_REFERENCE_S / ((before + after) / 2)

    @property
    def speed(self) -> float:
        """Median host speed seen, 1.0 = the reference."""
        return CALIBRATION_REFERENCE_S / statistics.median(self.samples)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))      # ceil(n q / 100)
    return float(ordered[int(rank) - 1])


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def multiset_signature(reads) -> str:
    """Order- and header-free digest of (sequence, quality) pairs.

    Archives store neither read order nor headers by default, so an
    encode is checked against its input as a multiset.
    """
    digest = hashlib.sha256()
    for pair in sorted((r.codes.tobytes(), r.quality.tobytes())
                       for r in reads):
        digest.update(pair[0])
        digest.update(b"|")
        digest.update(pair[1])
        digest.update(b"\n")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Corpus:
    """The files one workload's program under test receives."""

    fastq: Path
    reference: Path
    n_reads: int
    total_bases: int
    fastq_bytes: int
    signature: str          # multiset_signature of the reads


def build_corpus(kind: str, sizes: dict, seed: int, workdir: Path) -> Corpus:
    """Generate the ``short`` or ``long`` corpus for ``seed`` as files.

    The long corpus is the RS4 analog cut into pieces of at most
    ``piece`` bases.  Whole RS4 reads have a heavy-tailed cost — one
    10 kb read's quadratic tail alignment took 9.8 s of an 11.7 s
    encode on one seed and 0.7 s of 2.0 s on another — which would make
    every timing a property of the seed.  Pieces keep the error
    profile, variable lengths (so the long-read paths run) and a share
    of the chimeric junctions, with a bounded per-read cost.
    """
    spec = sizes[kind]
    sim = datasets.generate(spec["label"], base_genome=spec["base_genome"],
                            seed=seed)
    reads = list(sim.read_set)
    piece = spec.get("piece")
    if piece:
        reads = [Read(codes=r.codes[s:s + piece],
                      quality=r.quality[s:s + piece],
                      header=f"{r.header}/{s}")
                 for r in reads for s in range(0, len(r), piece)
                 if len(r) - s >= 100]
    if len(reads) < spec["n_reads"]:
        raise RuntimeError(
            f"{kind} corpus: generated {len(reads)} reads, need "
            f"{spec['n_reads']} (raise base_genome)")
    read_set = ReadSet(reads[:spec["n_reads"]], name=spec["label"])
    fastq_path = workdir / f"{kind}.fastq"
    fastq.write_file(read_set, fastq_path)
    reference = workdir / f"{kind}.ref.txt"
    reference.write_text(seqmod.decode(sim.reference) + "\n",
                         encoding="ascii")
    return Corpus(fastq=fastq_path, reference=reference,
                  n_reads=len(read_set), total_bases=read_set.total_bases,
                  fastq_bytes=fastq_path.stat().st_size,
                  signature=multiset_signature(read_set))


def zipf_picks(n_blocks: int, count: int, seed: int, exponent: float,
               epoch: int = 500) -> list[int]:
    """``count`` block ids, zipf(``exponent``) over a seed-permuted
    block order.

    Drawn by quota: every ``epoch`` picks hold each popularity rank
    exactly as often as the distribution says (largest remainders make
    up the rounding), in an order shuffled from the seed.  Independent
    draws would let the number of cold-block requests in a run of
    ~1000 vary by +-8 %, and the miss count with it, from the seed
    alone.
    """
    order = np.random.default_rng(seed).permutation(n_blocks)
    weights = 1.0 / np.arange(1, n_blocks + 1) ** exponent
    share = epoch * weights / weights.sum()
    quota = np.floor(share).astype(int)
    short = epoch - int(quota.sum())
    quota[np.argsort(share - quota)[::-1][:short]] += 1
    ranks = np.repeat(np.arange(n_blocks), quota)
    rng = np.random.default_rng([seed, epoch])
    picks: list[int] = []
    while len(picks) < count:
        picks.extend(int(b) for b in order[rng.permutation(ranks)])
    return picks[:count]


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git
    (the driver's checkout is not a repository: ``unknown`` there)."""
    git_dir = ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git_dir / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="ascii").strip()
        for line in (git_dir / "packed-refs").read_text(
                encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, scale: str, sizes: dict) -> dict:
    """Where and on what a result was measured (the ``versions.yml``
    idiom: every result file carries its own)."""
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "seed": seed,
        "scale": scale,
        "sizes": sizes,
        "codec": os.environ.get("SAGE_CODEC", "default"),
        "mapper": os.environ.get("SAGE_MAPPER", "default"),
    }
