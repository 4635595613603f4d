"""Built-in sinks by name, and adapters, for the :class:`SAGeDataset`
facade.

Sinks are the pipelined consumers of the streaming decode
(:class:`repro.pipeline.executor.Sink`).  Three are built in and
resolve by name — most prominently for ``sage analyze --sink NAME`` —
so a caller need not wire mapper/reference plumbing itself; each is
built for the dataset being analyzed (e.g. bound to the archive's own
consensus).  Any other sink is piped as an object or a per-block
callable: ``ds.pipe(MySink(...))``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from ..analysis.properties import (MappingRateReport, MappingRateSink,
                                   PropertyAccumulator, PropertyReport)
from ..genomics.reads import ReadSet
from ..pipeline.executor import CollectSink, ExecutorStats, Sink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .dataset import SAGeDataset

__all__ = ["CallableSink", "available_sinks", "resolve_sink",
           "result_info", "stream_info"]

#: The built-in sinks.  The analysis sinks decode a block's sequence
#: group and map it against the archive's own consensus, so they need no
#: side files (no reference, no index).
_BUILT_IN: dict[str, Callable[["SAGeDataset"], Sink]] = {
    "property": lambda dataset: PropertyAccumulator(dataset.consensus),
    "mapping-rate": lambda dataset: MappingRateSink(dataset.consensus),
    "collect": lambda dataset: CollectSink(),
}


def available_sinks() -> tuple[str, ...]:
    """Built-in sink names, sorted."""
    return tuple(sorted(_BUILT_IN))


class CallableSink:
    """Adapts a plain per-block callable into the :class:`Sink` protocol.

    ``fn(block)`` is invoked once per decoded :class:`ReadSet` block in
    index order; ``finish()`` returns the list of per-block return
    values.  This is what lets ``dataset.pipe(lambda block: ...)``
    accept bare callables.
    """

    #: A bare callable's needs are unknown: request the full decode.
    #: Wrap in a sink with a narrower ``requires`` to opt into
    #: selective decode.
    requires = None

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self._fn = fn
        self._results: list[Any] = []

    def consume(self, index: int, block: Any) -> None:
        self._results.append(self._fn(block))

    def finish(self) -> list[Any]:
        return self._results


def _property_info(report: PropertyReport) -> dict:
    """JSON rendering of a ``property`` sink result."""
    mismatch_hist = report.mismatch_count_hist()
    return {
        "n_reads": report.n_reads,
        "n_mapped": report.n_reads - report.n_unmapped,
        "n_unmapped": report.n_unmapped,
        "n_chimeric": report.n_chimeric,
        "mapping_rate": (report.n_reads - report.n_unmapped)
        / max(1, report.n_reads),
        "mismatch_pos_bitcount_hist":
            report.mismatch_pos_bitcount_hist().tolist(),
        "mismatch_count_hist": mismatch_hist.tolist(),
        "matching_pos_bitcount_fractions":
            [round(float(f), 6) for f in
             report.matching_pos_bitcount_fractions()],
    }


def _mapping_info(rate: MappingRateReport) -> dict:
    """JSON rendering of a ``mapping-rate`` sink result."""
    return {"n_reads": rate.n_reads, "n_mapped": rate.n_mapped,
            "n_unmapped": rate.n_unmapped,
            "mapping_rate": rate.mapping_rate}


def result_info(result: Any) -> dict:
    """JSON-serializable rendering of any sink's result.

    The shared presentation layer for ``sage analyze --json`` and the
    serve endpoint ``POST /analyze``: built-in report objects get
    structured summaries, a collected :class:`ReadSet` gets counts, and
    anything else falls back to ``str``.
    """
    if isinstance(result, PropertyReport):
        return _property_info(result)
    if isinstance(result, MappingRateReport):
        return _mapping_info(result)
    if isinstance(result, ReadSet):                 # collect
        return {"n_reads": len(result),
                "total_bases": result.total_bases}
    return {"result": str(result)}


def stream_info(stats: ExecutorStats) -> dict:
    """JSON rendering of a pass's :class:`ExecutorStats`: the
    ``stream`` object of ``sage analyze --json`` and ``POST /analyze``.

    Beside the block count and queue depth, the transport and selection
    observability: pickled task bytes sent to pooled workers (0 on
    in-parent backends) and the stream bits each group decoded.
    """
    return {"blocks": stats.blocks,
            "peak_inflight_blocks": stats.peak_inflight,
            "bytes_shipped": stats.bytes_shipped,
            "streams_decoded": dict(stats.streams_decoded),
            "stream_bits_total": stats.stream_bits_total}


def resolve_sink(dataset: "SAGeDataset", spec: Any) -> Sink:
    """Turn a sink spec (built-in name, sink object, or callable) into a
    sink."""
    if isinstance(spec, str):
        try:
            factory = _BUILT_IN[spec]
        except KeyError:
            raise ValueError(f"unknown sink {spec!r}; available: "
                             f"{', '.join(available_sinks())}") from None
        return factory(dataset)
    if isinstance(spec, Sink):
        return spec
    if callable(spec):
        return CallableSink(spec)
    raise TypeError(f"cannot use {spec!r} as a sink: expected a "
                    f"built-in name, a Sink, or a callable")
