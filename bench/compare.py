"""Compare two sets of ``bench.run --all`` results, metric by metric.

    python3 -m bench.compare BASE.json NEW.json
    python3 -m bench.compare --base B1.json B2.json ... --new N1.json ...

One row per workload and end-to-end metric: the new median, the base
median, their ratio, the metric's bound and a verdict.

``ok``          the new median is not worse than the base median by
                more than the bound (a share of the base median;
                ``fail_ratio``'s bound is absolute);
``worse``       it is;
``unresolved``  the base runs themselves spread (interquartile range /
                median) wider than the bound, so neither can be said —
                unless every new run reads better than every base run,
                which is ``ok``.  Needs several runs per side.

Exit status 1 if any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import spec                  # noqa: E402

JUDGED = spec.END_TO_END + spec.BENCH_ONLY


def load(paths: list[Path]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per result file."""
    values: dict[str, dict[str, list[float]]] = {}
    for path in paths:
        result = json.loads(path.read_text(encoding="utf-8"))
        for workload, entry in result["workloads"].items():
            for name, metric in entry.get("end_to_end", {}).items():
                values.setdefault(workload, {}).setdefault(name, []) \
                    .append(metric["value"])
    return values


def spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median (None: too few)."""
    if len(values) < 4:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(metric: spec.Metric, base: list[float],
            new: list[float]) -> tuple[str, float]:
    """(``ok`` | ``worse`` | ``unresolved``, new median / base median)."""
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    ratio = new_median / base_median if base_median else float("nan")
    lower = metric.better == "lower"
    if metric.name == "fail_ratio":
        return ("worse" if new_median > base_median + metric.bound
                else "ok"), ratio
    base_spread = spread(base)
    if base_spread is not None and base_spread > metric.bound:
        all_better = (max(new) < min(base)) if lower \
            else (min(new) > max(base))
        return ("ok" if all_better else "unresolved"), ratio
    worsening = (ratio - 1.0) if lower else (1.0 - ratio)
    return ("worse" if worsening > metric.bound else "ok"), ratio


def compare(base_files: list[Path], new_files: list[Path]) -> list[dict]:
    base, new = load(base_files), load(new_files)
    rows = []
    for workload in spec.ALL:
        for metric in JUDGED:
            b = base.get(workload, {}).get(metric.name)
            n = new.get(workload, {}).get(metric.name)
            if not b or not n:
                continue
            outcome, ratio = verdict(metric, b, n)
            rows.append({"workload": workload, "metric": metric.name,
                         "unit": metric.unit,
                         "value": statistics.median(n),
                         "base": statistics.median(b), "ratio": ratio,
                         "bound": metric.bound, "verdict": outcome})
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<18} {'metric':<16} {'value':>12} {'base':>12} "
             f"{'ratio':>7} {'bound':>6}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:<18} {row['metric']:<16} "
            f"{row['value']:>12.5g} {row['base']:>12.5g} "
            f"{row['ratio']:>7.3f} {row['bound']:>6.3f}  {row['verdict']}"
            f"  [{row['unit']}]")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench.compare", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="*", type=Path,
                        help="BASE.json NEW.json")
    parser.add_argument("--base", nargs="+", type=Path, default=[])
    parser.add_argument("--new", nargs="+", type=Path, default=[])
    args = parser.parse_args(argv)
    if len(args.files) == 2 and not args.base and not args.new:
        args.base, args.new = [args.files[0]], [args.files[1]]
    elif args.files or not args.base or not args.new:
        parser.error("give BASE.json NEW.json, or --base ... --new ...")
    rows = compare(args.base, args.new)
    if not rows:
        print("bench.compare: the two sets share no metric",
              file=sys.stderr)
        return 2
    print(render(rows))
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    print(f"\n{len(rows)} rows: {len(worse)} worse, "
          f"{unresolved} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
