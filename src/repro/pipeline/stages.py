"""Batched producer-consumer pipeline simulator (§7).

I/O, decompression, and analysis "operate in a pipelined manner and in
batches … which enables partial overlapping" — while batch *i* is being
decompressed, the mapper analyzes batch *i−1*.  The simulator computes
per-batch start/finish times with the classic recurrence
``finish[i][s] = max(finish[i][s-1], finish[i-1][s]) + service[i][s]``,
yielding makespans, per-stage busy times, and the Fig.-1-style timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Stage:
    """One pipeline stage with a sustained rate over work units."""

    name: str
    rate_units_per_s: float        # inf => zero-time stage
    latency_s: float = 0.0         # fixed per-batch overhead

    def service_time(self, units: float) -> float:
        if self.rate_units_per_s <= 0:
            raise ValueError(f"stage {self.name!r} has non-positive rate")
        if math.isinf(self.rate_units_per_s):
            return self.latency_s
        return self.latency_s + units / self.rate_units_per_s


@dataclass
class StageTimeline:
    """Busy intervals of one stage across batches."""

    name: str
    intervals: list[tuple[float, float]] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(b - a for a, b in self.intervals)


@dataclass
class PipelineResult:
    """Outcome of a pipelined execution."""

    makespan_s: float
    total_units: float
    timelines: list[StageTimeline]

    @property
    def throughput_units_per_s(self) -> float:
        return self.total_units / self.makespan_s if self.makespan_s \
            else float("inf")

    def stage(self, name: str) -> StageTimeline:
        for timeline in self.timelines:
            if timeline.name == name:
                return timeline
        raise KeyError(f"no stage named {name!r}")

    @property
    def bottleneck(self) -> str:
        """The stage with the largest busy time."""
        return max(self.timelines, key=lambda t: t.busy_s).name


def simulate_pipeline(stages: list[Stage], total_units: float,
                      n_batches: int = 64) -> PipelineResult:
    """Run ``total_units`` of work through the stages in equal batches."""
    if not stages:
        raise ValueError("need at least one stage")
    if total_units <= 0:
        return PipelineResult(0.0, 0.0,
                              [StageTimeline(s.name) for s in stages])
    n_batches = max(1, n_batches)
    batch_units = total_units / n_batches
    timelines = [StageTimeline(s.name) for s in stages]
    prev_finish = [0.0] * len(stages)
    for _ in range(n_batches):
        upstream = 0.0
        for s, stage in enumerate(stages):
            start = max(upstream, prev_finish[s])
            finish = start + stage.service_time(batch_units)
            timelines[s].intervals.append((start, finish))
            prev_finish[s] = finish
            upstream = finish
    return PipelineResult(makespan_s=prev_finish[-1],
                          total_units=total_units, timelines=timelines)
