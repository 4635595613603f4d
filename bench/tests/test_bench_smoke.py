"""Smoke test of the benchmark itself, at ``--scale smoke``.

Every workload runs once untraced and once traced, in this process and
writing only under ``tmp_path``; the command line and the comparison
tool get one subprocess call each.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bench import compare, spec
from bench.harness import zipf_picks
from bench.run import worker_env
from bench.worker import contract_line, run_workload
from repro.mapping.batch import resolve_mapper

ROOT = Path(__file__).resolve().parents[2]
SEED = 7


@pytest.fixture(scope="module")
def out(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("bench_out")


@pytest.fixture(scope="module")
def results(out) -> dict:
    """(workload, trace) -> result, every workload in both modes."""
    return {(name, trace): run_workload(name, seed=SEED, scale="smoke",
                                        trace=bool(trace), out=out)
            for name in spec.ALL for trace in (0, 1)}


def _expected(name: str, trace: int) -> set[str]:
    pool = spec.PER_LAYER if trace else spec.END_TO_END + spec.BENCH_ONLY
    names = {m.name for m in spec.defined_on(name, pool)}
    if resolve_mapper(None) != "numpy":
        # Only the batch mapper keeps MapperStats.
        names -= {"mapping.batch.fast_path_ratio", "mapping.batch.dp_cells"}
    return names


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", spec.ALL)
def test_every_metric_present_finite_with_unit(results, name, trace):
    result = results[name, trace]
    assert result["correct"] and result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == _expected(name, trace)
    for key, entry in result["metrics"].items():
        assert math.isfinite(entry["value"]), key
        assert entry["unit"] == spec.METRICS[key].unit
    for key in ("host", "nproc", "python", "numpy", "git_sha", "seed",
                "scale", "sizes"):
        assert key in result["provenance"]


@pytest.mark.parametrize("name", spec.ALL)
def test_judged_metrics_are_never_zero(results, name):
    line = json.loads(contract_line(results[name, 0]))
    assert [*line["metrics"]] == [m.name for m in spec.END_TO_END]
    assert all(entry["value"] > 0 for entry in line["metrics"].values())
    traced = json.loads(contract_line(results[name, 1]))
    assert [*traced["metrics"]] == [m.name for m in spec.PER_LAYER]


@pytest.mark.parametrize("name", spec.ALL)
def test_trace_covers_the_blocking_path(results, out, name):
    metrics = results[name, 1]["metrics"]
    assert metrics["trace.coverage"]["value"] >= 0.85
    assert metrics["trace.overhead_ratio"]["value"] > 0
    trace = json.loads((out / f"trace_{name}.json").read_text())
    assert {"name", "id", "parent", "start", "end"} <= set(trace["spans"][0])


def test_same_seed_gives_the_same_counts(results, out):
    again = {(name, trace): run_workload(name, seed=SEED, scale="smoke",
                                         trace=bool(trace), out=out)
             for name, trace in (("encode_short", 0), ("scan_sequence", 1),
                                 ("decode_fastq_proc", 1))}
    for (name, trace), second in again.items():
        first = results[name, trace]["metrics"]
        exact = [m.name for m in spec.defined_on(name) if m.exact] \
            + ["stored_ratio"]
        compared = [key for key in exact if key in second["metrics"]]
        assert compared
        for key in compared:
            assert second["metrics"][key]["value"] == first[key]["value"], \
                (name, key)


def test_seed_changes_the_zipf_picks():
    picks = zipf_picks(24, 1000, SEED, spec.ZIPF_EXPONENT)
    assert picks == zipf_picks(24, 1000, SEED, spec.ZIPF_EXPONENT)
    assert picks != zipf_picks(24, 1000, SEED + 1, spec.ZIPF_EXPONENT)
    assert set(picks) == set(range(24))
    # Drawn by quota: every epoch holds the same number of each rank.
    assert sorted(picks[:500]) != picks[:500]
    first, second = (sorted(picks[k:k + 500].count(b) for b in range(24))
                     for k in (0, 500))
    assert first == second


def test_benchmark_json_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert doc["run_seconds"] == spec.SIZES["full"]["seconds"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == spec.WORKLOADS
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in spec.END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER]
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])


def test_command_line_prints_the_contract_line(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "scan_sequence",
         "--seed", "3", "--seconds", "0.2", "--trace", "0",
         "--scale", "smoke", "--out", str(tmp_path)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert (tmp_path / "scan_sequence.trace0.seed3.json").exists()
    assert not list(tmp_path.glob("tmp-*")), "scratch directory left behind"


def test_wrong_output_fails_the_run(out, monkeypatch):
    from bench import workloads
    monkeypatch.setattr(workloads.ScanSequence, "check",
                        lambda self, bases: False)
    result = run_workload("scan_sequence", seed=SEED, scale="smoke",
                          out=out / "broken")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["fail_ratio"]["value"] == 1.0


def _all_file(path: Path, scale: float) -> Path:
    entry = {m.name: {"value": 10.0 * (scale if m.better == "lower"
                                      else 1 / scale), "unit": m.unit}
             for m in spec.END_TO_END}
    entry["fail_ratio"] = {"value": 0.0, "unit": "fraction"}
    path.write_text(json.dumps(
        {"workloads": {"decode_fastq": {"end_to_end": entry}}}))
    return path


def test_compare_flags_only_what_is_beyond_the_bound(tmp_path, capsys):
    base = _all_file(tmp_path / "base.json", 1.0)
    same = _all_file(tmp_path / "same.json", 1.01)
    slow = _all_file(tmp_path / "slow.json", 1.5)
    assert compare.main([str(base), str(same)]) == 0
    assert compare.main([str(base), str(slow)]) == 1
    assert "worse" in capsys.readouterr().out
    # Base runs that spread wider than the bound settle nothing.
    noisy = [_all_file(tmp_path / f"noisy{i}.json", s)
             for i, s in enumerate((0.5, 0.8, 1.2, 1.6))]
    rows = compare.compare(noisy, [slow])
    assert {row["verdict"] for row in rows
            if row["metric"] == "setup_s"} == {"unresolved"}


def test_env_for_workers_puts_src_first():
    assert worker_env()["PYTHONPATH"].split(os.pathsep)[0] \
        == str(ROOT / "src")
