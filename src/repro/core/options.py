"""Engine configuration: one validated options object for every path.

:class:`EngineOptions` is the only way to pass ``workers`` /
``backend`` / ``block_reads`` (and every other session knob) to an
engine: :class:`~repro.core.compressor.SAGeCompressor`,
:mod:`repro.pipeline.executor`, the :mod:`repro.api` facade and the CLI
all take ``options=`` and nothing else.  All validation happens here, in
``__post_init__`` — bad values fail at the API boundary with a clear
:class:`ValueError` instead of deep inside a worker pool.

The options say how a session *runs*; what the archive bytes *are*
(optimization level, quality, long-read mode, headers, order, …) and
which mapper finds the mismatches are stated on
:class:`~repro.core.compressor.SAGeConfig` and nowhere else.  The two
objects share no field.

The module sits below the engines it configures (of them it imports
only :class:`SAGeConfig`, and nothing from :mod:`repro.api`), so
``pipeline`` imports it at module level and the compressor names it for
type checking only; ``repro.api.EngineOptions`` is this class.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from .compressor import SAGeConfig
from .kernels import DEFAULT_CODEC, available_kernels

__all__ = ["BACKENDS", "DEFAULT_BLOCK_READS", "INFLIGHT_PER_WORKER",
           "ON_ERROR", "EngineOptions"]

#: Reads per batch the analytical pipeline model
#: (:func:`repro.pipeline.endtoend.batches_for_dataset`) assumes for a
#: dataset that exists only as a model.  Matches the order of the paper's
#: per-channel section granularity.  No compress path substitutes it:
#: ``EngineOptions.block_reads`` alone decides an archive's partition.
DEFAULT_BLOCK_READS = 4096

#: Submitted-but-unfinished blocks kept in flight per worker: the one
#: backpressure policy of both block compression
#: (:meth:`~repro.core.compressor.SAGeCompressor.compress`) and the
#: streaming decode executor (:mod:`repro.pipeline.executor`), read
#: through :attr:`EngineOptions.window`.
INFLIGHT_PER_WORKER = 2

#: Recognized decode backends.  ``auto`` picks ``serial`` for one worker
#: and ``process`` (with graceful fallback) otherwise.
BACKENDS = ("auto", "serial", "process")

#: Recognized streaming-decode failure policies.
ON_ERROR = ("raise", "skip")


@dataclass(frozen=True)
class EngineOptions:
    """Session-wide engine knobs, validated on construction.

    Parameters
    ----------
    workers:
        Worker processes for block compression / parallel block decode.
        ``1`` is the serial reference path; every value produces
        byte-identical output (a one-block archive has nothing to
        parallelise and is compressed and decoded serially, and so is
        an archive with no file behind it).  The decode pool of
        ``workers`` processes is the process's, reused by every pass.
    backend:
        Decode backend, one of :data:`BACKENDS`
        (``auto`` picks ``serial`` for one worker, ``process``
        otherwise).  ``process`` workers open the archive file and
        send back each block as its sinks take it (FASTQ or columns).
    block_reads:
        Reads per independently decodable block when compressing: ``0``
        writes a one-block archive, ``N > 0`` partitions the input into
        ``N``-read blocks.  Nothing else decides the partition (a
        caller's pre-chunked stream is taken as is), and the archive
        header records this value verbatim.
    codec:
        Decode kernel for the array-stream hot path, one of
        :func:`repro.core.kernels.available_kernels` (``numpy`` =
        vectorized batch kernel, the default; ``python`` = bit-serial
        reference).  Every kernel decodes identical reads — this is a
        pure-speed knob, and it never touches the encoder (one writer,
        no encode-side kernel).  The mapper kernel is a format-side
        choice: ``SAGeConfig(mapper_kernel=)``.
    on_error:
        Streaming-decode failure policy, one of :data:`ON_ERROR`.
        ``"raise"`` (default) propagates the first block failure;
        ``"skip"`` drops each failed block and records a
        :class:`~repro.pipeline.executor.BlockGap`, so every block the
        damage did not touch is still delivered (``sage salvage`` is
        a ``to_fastq`` on such a session).  Kernels decode identical
        reads from the same bytes, so no second kernel is tried.  A
        block that fails in a worker pool is first re-decoded once in
        the parent; see :class:`~repro.pipeline.executor.StreamExecutor`.

    What a pass decodes is not an option: the streaming executor decodes
    the union of its sinks' ``requires`` declarations, and random access
    (``decode_block(select=)``) names its stream groups per call.
    """

    workers: int = 1
    backend: str = "auto"
    block_reads: int = 0
    codec: str = DEFAULT_CODEC
    on_error: str = "raise"

    def __post_init__(self) -> None:
        for name in ("workers", "block_reads"):
            # An integer is whatever has __index__ (Python and numpy
            # ints) and is not a bool; 2.5, "2", None and True fail
            # here, not in a worker pool.
            value = getattr(self, name)
            if not hasattr(value, "__index__") or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, "
                                 f"got {value!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; "
                             f"expected one of {BACKENDS}")
        if self.block_reads < 0:
            raise ValueError(
                f"block_reads must be >= 0 (0 = one-block "
                f"archive), got {self.block_reads!r}")
        if self.codec not in available_kernels():
            raise ValueError(f"unknown codec {self.codec!r}; expected one "
                             f"of {available_kernels()}")
        if self.on_error not in ON_ERROR:
            raise ValueError(f"unknown on_error {self.on_error!r}; "
                             f"expected one of {ON_ERROR}")

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def effective_block_reads(self) -> int:
        """Alias of :attr:`block_reads` (the name ``bench/`` reads)."""
        return self.block_reads

    @property
    def window(self) -> int:
        """Maximum blocks in flight (submitted but not yet consumed)."""
        return self.workers * INFLIGHT_PER_WORKER

    def replace(self, **changes: Any) -> "EngineOptions":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def compressor_config(self, config: SAGeConfig | None = None
                          ) -> SAGeConfig:
        """A copy of ``config`` (default :class:`SAGeConfig`): the
        session stamps nothing on the format."""
        return dataclasses.replace(config or SAGeConfig())
