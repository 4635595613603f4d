"""Runs one workload in this process and reports it.

``bench.run`` starts this module once per workload and per mode, with
``PYTHONPATH`` and the allocator settings already in the environment.
:func:`run_workload` is the same thing as a function (the smoke test
calls it in-process).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from . import spec
from .harness import Tracer, median, provenance
from .serve import ServeZipf
from .workloads import BATCH

WORKLOADS = {**BATCH, ServeZipf.name: ServeZipf}


def _peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its waited children
    (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_workload(name: str, *, seed: int, scale: str = "full",
                 seconds: float | None = None, trace: bool = False,
                 out: Path, started: float | None = None) -> dict:
    """Set up, run and check one workload; returns (and writes under
    ``out``) its result.  ``started`` is the wall-clock time the run
    was launched (``bench.run`` passes it, so that interpreter start-up
    and imports count as set-up); default: now."""
    sizes = spec.SIZES[scale]
    seconds = sizes["seconds"] if seconds is None else seconds
    started = time.time() if started is None else started
    out.mkdir(parents=True, exist_ok=True)
    workdir = out / f"tmp-{name}-{os.getpid()}"
    workdir.mkdir()
    workload = WORKLOADS[name](sizes, seed, workdir)
    tracer = Tracer()
    try:
        ready = time.time()
        setups = []
        for repeat in range(sizes["setup_repeats"]):
            if repeat:
                workload.teardown()
            before = workload.host.kernel_time(0.0, samples=5)
            begun = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - begun
            setups.append((workload.host.scale(
                before, workload.host.kernel_time(0.0, samples=5)),
                elapsed))
        # Keep what set-up left on the heap out of the collector's way
        # while the program under test runs.
        gc.collect()
        gc.freeze()
        values: dict[str, float] = {}
        raw: dict[str, float] = {}
        detail: dict = {}
        attempted = failed = 0
        samples: dict[str, int] = {}
        if trace:
            values, attempted, failed = workload.trace(seconds, tracer)
            tracer.dump(out / f"trace_{name}.json", workload=name,
                        seed=seed, scale=scale)
        else:
            measured = workload.measure(seconds)
            attempted, failed = measured.attempted, measured.failed
            values, raw = dict(measured.values), measured.raw
            detail = measured.detail
            values["fail_ratio"] = failed / attempted
            for key in ("fastq_mb_per_s", "req_per_s", "latency_p50_ms",
                        "latency_p99_ms"):
                if key in values:
                    samples[key] = len(measured.latencies)
    finally:
        workload.teardown()
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        # Start-up (interpreter, imports) at the first repeat's scale.
        values["setup_s"] = setups[0][0] * (ready - started) \
            + median(scale * elapsed for scale, elapsed in setups)
        raw["setup_s"] = (ready - started) \
            + median(elapsed for _scale, elapsed in setups)
        samples["setup_s"] = len(setups)
        values["peak_rss_mb"] = _peak_rss_mb()

    metrics = {}
    for key, value in values.items():
        metric = spec.METRICS[key]
        if name not in metric.on:
            raise AssertionError(f"{key} is not defined on {name}")
        metrics[key] = {"value": float(value), "unit": metric.unit}
        if key in samples:
            metrics[key]["n"] = samples[key]
    result = {
        "workload": name,
        "trace": int(trace),
        "correct": failed == 0
        and all(math.isfinite(m["value"]) for m in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "failures": workload.failures[:10],
        "metrics": metrics,
        # Timings are scaled to the reference host speed; ``raw`` has
        # the untraced metrics as the clock read them.
        "host_speed": workload.host.speed,
        "raw": raw,
        "detail": detail,
        "provenance": provenance(seed, scale, sizes),
    }
    path = out / f"{name}.trace{int(trace)}.seed{seed}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def contract_line(result: dict) -> str:
    """The one-line JSON the driver reads: every judged metric of the
    mode, in declaration order.  A per-layer metric whose layer does no
    work on this workload reads 0 here (the result file omits it)."""
    declared = spec.PER_LAYER if result["trace"] else spec.END_TO_END
    metrics = {}
    for metric in declared:
        entry = result["metrics"].get(metric.name)
        if entry is None and not result["trace"]:
            raise AssertionError(f"{metric.name} missing on "
                                 f"{result['workload']}")
        metrics[metric.name] = {
            "value": entry["value"] if entry else 0.0, "unit": metric.unit}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def render(result: dict) -> str:
    """Every metric by name with its unit, one per line."""
    mode = "traced" if result["trace"] else "untraced"
    lines = [f"{result['workload']} ({mode}): attempted "
             f"{result['attempted']}, failed {result['failed']}"]
    for key, entry in result["metrics"].items():
        count = f"  (n={entry['n']})" if "n" in entry else ""
        lines.append(f"  {key:<42} {entry['value']:>14.6g} "
                     f"{entry['unit']}{count}")
    for failure in result["failures"]:
        lines.append(f"  FAILED: {failure}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.worker")
    parser.add_argument("--workload", required=True, choices=spec.ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(spec.SIZES),
                        default="full")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--started", type=float, default=None)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, seed=args.seed, scale=args.scale,
                          seconds=args.seconds, trace=bool(args.trace),
                          out=args.out, started=args.started)
    print(render(result))
    print(contract_line(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
