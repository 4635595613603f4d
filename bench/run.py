"""Command line of the benchmark.

    python3 -m bench.run --workload NAME --seed S [--seconds T] [--trace 0|1]
    python3 -m bench.run --all --seed S [--scale smoke|full]

Run from the repository root.  Each workload runs in a process of its
own (``bench.worker``): one workload's heap, caches and children never
leak into the next, and ``peak_rss_mb`` is that process's.  Results land
in ``bench/out`` (untracked), never in tracked files.  With
``--workload`` the last line of standard output is the one-line JSON
``BENCHMARK.json``'s contract describes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:           # `python3 bench/run.py`
    sys.path.insert(0, str(ROOT))

from bench import spec                  # noqa: E402

#: glibc malloc settings of the workload process and its children:
#: freed memory stays in the heap instead of going back to the kernel.
#: Without them the long-read mapper's alignment matrices are mapped
#: and unmapped on every operation, and on the reference VM the page
#: faults alone took between 0.1 s and 7 s of an encode of the same
#: input (user time 1.5-1.8 s throughout).
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_TOP_PAD_": str(64 << 20),
}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    source = str(ROOT / "src")
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = source + (os.pathsep + inherited if inherited
                                  else "")
    for key, value in MALLOC_ENV.items():
        env.setdefault(key, value)
    return env


def worker_command(workload: str, args: argparse.Namespace,
                   trace: int) -> list[str]:
    command = [sys.executable, "-m", "bench.worker",
               "--workload", workload, "--seed", str(args.seed),
               "--trace", str(trace), "--scale", args.scale,
               "--out", str(args.out), "--started", repr(time.time())]
    if args.seconds is not None:
        command += ["--seconds", repr(args.seconds)]
    return command


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced; one combined result file."""
    combined: dict = {"workloads": {}}
    ok = True
    for workload in spec.ALL:
        entry = combined["workloads"][workload] = {}
        for trace in (0, 1):
            done = subprocess.run(worker_command(workload, args, trace),
                                  cwd=ROOT, env=worker_env(),
                                  stdout=subprocess.PIPE, text=True)
            lines = done.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            path = args.out / f"{workload}.trace{trace}.seed{args.seed}.json"
            if done.returncode != 0 or not path.exists():
                print(f"{workload} (trace {trace}): exit "
                      f"{done.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(path.read_text(encoding="utf-8"))
            combined.setdefault("provenance", result["provenance"])
            key = "per_layer" if trace else "end_to_end"
            entry[key] = result["metrics"]
            entry[f"{key}_ops"] = {"attempted": result["attempted"],
                                   "failed": result["failed"]}
            ok = ok and result["correct"]
    target = args.out / f"all.seed{args.seed}.{args.scale}.json"
    target.write_text(json.dumps(combined, indent=1), encoding="utf-8")
    print(f"\nwrote {target}" + ("" if ok else "  (FAILURES above)"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.run", description=__doc__,
                                     formatter_class=argparse
                                     .RawDescriptionHelpFormatter)
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=spec.ALL)
    which.add_argument("--all", action="store_true",
                       help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1,
                        help="inputs are generated from it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed part (default: the "
                             "scale's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--scale", choices=tuple(spec.SIZES),
                        default="full")
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out",
                        help="where results and scratch files go")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("bench.run: no src/repro next to bench/ (run from a "
              "checkout of the repository)", file=sys.stderr)
        return 2
    args.out = args.out.resolve()
    if args.all:
        return run_all(args)
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execve(sys.executable,
              worker_command(args.workload, args, args.trace), worker_env())


if __name__ == "__main__":
    sys.exit(main())
