"""Server-side observability: latency percentiles and work counters.

All mutation happens on the server's event-loop thread, so the
structures here are deliberately lock-free; readers that snapshot from
other threads (the shutdown path) only do so after the loop has
stopped.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

__all__ = ["LatencyWindow", "ServerStats"]

#: Keep at most this many samples per endpoint; the window then behaves
#: as "the most recent N requests", which is what live p99 should mean.
_WINDOW_SAMPLES = 4096


class LatencyWindow:
    """Recent request latencies for one endpoint, in milliseconds."""

    def __init__(self) -> None:
        self.count = 0
        self.total_ms = 0.0
        self._samples: deque[float] = deque(maxlen=_WINDOW_SAMPLES)

    def record(self, elapsed_ms: float) -> None:
        self.count += 1
        self.total_ms += elapsed_ms
        self._samples.append(elapsed_ms)

    def percentile(self, q: float) -> float:
        """Exact q-th percentile (0..100) of the retained window."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = min(len(ordered) - 1,
                   max(0, round(q / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def to_dict(self) -> dict:
        return {"count": self.count,
                "p50_ms": round(self.percentile(50), 3),
                "p99_ms": round(self.percentile(99), 3),
                "mean_ms": round(self.total_ms / self.count, 3)
                if self.count else 0.0}


@dataclass
class ServerStats:
    """One server's lifetime counters, surfaced at ``/stats``."""

    started: float = field(default_factory=time.monotonic)
    requests: int = 0
    errors: int = 0
    #: Block decodes actually executed (cache misses that led work).
    decodes: int = 0
    #: Requests that joined another request's in-flight decode.
    coalesced: int = 0
    inflight: int = 0
    inflight_peak: int = 0
    #: Body-cache counters: lookups, LRU drops, bodies over the whole
    #: budget (never stored), and the bytes held now and at most.
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    rejected: int = 0
    current_bytes: int = 0
    peak_bytes: int = 0
    endpoints: dict[str, LatencyWindow] = field(default_factory=dict)

    def begin_request(self) -> None:
        self.inflight += 1
        self.inflight_peak = max(self.inflight_peak, self.inflight)

    def end_request(self, endpoint: str, elapsed_ms: float,
                    *, error: bool = False) -> None:
        self.inflight -= 1
        self.requests += 1
        if error:
            self.errors += 1
        window = self.endpoints.get(endpoint)
        if window is None:
            window = self.endpoints[endpoint] = LatencyWindow()
        window.record(elapsed_ms)

    def to_dict(self) -> dict:
        lookups = self.hits + self.misses
        return {
            "uptime_s": round(time.monotonic() - self.started, 3),
            "requests": self.requests,
            "errors": self.errors,
            "decodes": self.decodes,
            "coalesced": self.coalesced,
            "inflight": self.inflight,
            "inflight_peak": self.inflight_peak,
            "endpoints": {name: window.to_dict()
                          for name, window in sorted(self.endpoints.items())},
            "cache": {"hits": self.hits, "misses": self.misses,
                      "evictions": self.evictions,
                      "rejected": self.rejected,
                      "current_bytes": self.current_bytes,
                      "peak_bytes": self.peak_bytes,
                      "hit_rate": round(self.hits / lookups, 4)
                      if lookups else 0.0},
        }

    def render(self) -> str:
        """Human-readable shutdown summary."""
        info = self.to_dict()
        cache = info["cache"]
        lines = [f"requests: {info['requests']} "
                 f"(errors {info['errors']}, inflight peak "
                 f"{info['inflight_peak']})",
                 f"decodes: {info['decodes']} "
                 f"(coalesced {info['coalesced']})",
                 f"cache: {cache['hits']} hits / {cache['misses']} misses "
                 f"(rate {cache['hit_rate']:.2%}, "
                 f"evictions {cache['evictions']})"]
        for name, window in info["endpoints"].items():
            lines.append(f"  {name}: n={window['count']} "
                         f"p50={window['p50_ms']}ms "
                         f"p99={window['p99_ms']}ms")
        return "\n".join(lines)
