"""The benchmark's own tests, at toy scale.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import graphwalk.cli  # noqa: E402,F401  (loads every layer module)
import spans  # noqa: E402
import workloads  # noqa: E402

import graphwalk as gw  # noqa: E402

WORKLOADS = ("pipeline", "rel", "ned")

# the named end-to-end metrics each workload's report must print
NAMED = {
    "pipeline": ("setup_s", "peak_rss_mib", "failed_ops_share", "ingest_s", "build_s", "load_s"),
    "rel": ("setup_s", "peak_rss_mib", "failed_ops_share", "load_s", "rel_pairs_per_s",
            "rel_spearman"),
    "ned": ("setup_s", "peak_rss_mib", "failed_ops_share", "load_s", "ned_queries_per_s",
            "ned_ngd_s", "ned_accuracy"),
}


def bench_config() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_toy(workload: str, trace: int, workdir: Path) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "toy",
         "--workdir", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[0])["report"], json.loads(lines[-1])


def input_digest(workload: str, seed: int, workdir: Path) -> str:
    workdir.mkdir()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return workloads.WORKLOADS[workload](gw, "toy", seed).setup()
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_inputs(workload, tmp_path):
    first = input_digest(workload, 7, tmp_path / "a")
    again = input_digest(workload, 7, tmp_path / "b")
    other = input_digest(workload, 8, tmp_path / "c")
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(workload, tmp_path):
    report, result = run_toy(workload, 0, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for metric in bench_config()["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0
    for name in NAMED[workload]:
        assert report["metrics"][name]["unit"]
    assert report["metrics"]["failed_ops_share"]["value"] == 0.0
    assert all(report["checks"].values()), report["checks"]
    env = report["env"]
    for key in ("nproc", "python", "numpy", "scipy", "l2", "llc",
                "graph_working_set_bytes_computed", "git_commit"):
        assert key in env


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_outputs_and_prints_per_layer_metrics(workload, tmp_path):
    report, result = run_toy(workload, 1, tmp_path)
    assert result["correct"] is True
    assert report["checks"]["traced_outputs_equal_untraced"] is True
    assert report["traced_repetitions"] >= 1
    for metric in bench_config()["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    layer = {k: v["value"] for k, v in result["metrics"].items()}
    assert layer["trace.attributed_share"] >= 0.9
    if workload == "rel":
        assert layer["relatedness.walks_per_pair"] == 2.0
    assert (tmp_path / "trace.jsonl").stat().st_size > 0


def test_benchmark_json_lists_every_per_layer_metric_once():
    names = [m["name"] for m in bench_config()["per_layer"]]
    assert names == spans.per_layer_names()
    for m in bench_config()["per_layer"]:
        assert (m["unit"], m["better"]) == spans.unit_of(m["name"])


def test_self_time_subtracts_children_and_merges_parallel_ones():
    # parent 0..10 with two overlapping worker children 2..6 and 4..8, and a
    # lazy child that was busy 1.5 s in total
    spans_ = [(1, "ned.run_batch", 0.0, 10.0, 10.0, None, None, True, None),
              (2, "ned.disambiguate", 2.0, 6.0, 4.0, 1, 1, True, None),
              (3, "ned.disambiguate", 4.0, 8.0, 4.0, 1, 2, True, None),
              (4, "ingest.iter_links", 0.5, 9.5, 1.5, 1, None, True, {"lazy": True})]
    st = spans.self_times(spans_)
    assert st[1] == pytest.approx(10.0 - 6.0 - 1.5)
    assert st[2] == st[3] == 4.0
    assert st[4] == 1.5
