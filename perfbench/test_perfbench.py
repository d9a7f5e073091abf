"""Smoke test of the benchmark itself.

Runs every workload at a tiny size with fixed seeds and checks that
every metric BENCHMARK.json names is emitted, that no request got an
unexpected response, that one seed reproduces the same request stream
and outcomes while another seed changes the stream, and that the traced
run agrees with the untraced one.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REQUESTS = 1000


def bench(workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--trace", str(trace),
            "--requests", str(REQUESTS),
            "--scale", "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 2:
            info[parts[0]] = parts[1]
    return proc, result, info


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reproduces_per_seed(workload):
    proc, result, info = bench(workload, 7, 0)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= REQUESTS
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0
    assert result["metrics"]["ok_share"]["value"] == 1.0

    _, again, info_again = bench(workload, 7, 0)
    assert info_again["stream_digest"] == info["stream_digest"]
    assert info_again["outcome_digest"] == info["outcome_digest"]
    _, other, info_other = bench(workload, 8, 0)
    assert other["correct"]
    assert info_other["stream_digest"] != info["stream_digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced(workload):
    proc, result, info = bench(workload, 7, 1)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert info["digests_match"] == "True"
    assert info["outcome_digest"] == info["untraced_outcome_digest"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert abs(metrics["trace.coverage"] - 1.0) <= 0.10
    assert metrics["gram.client.calls_per_req"] == 1.0
    assert metrics["core.pep.calls_per_req"] > 0
    # Each workload exercises the layers it was chosen for.
    if workload == "monitor_repeat":
        assert metrics["core.store.calls_per_req"] > 0
        assert metrics["gram.spill.calls_per_req"] > 0
        assert metrics["core.capability.hit_ratio"] > 0.5
    else:
        assert metrics["core.pipeline.calls_per_req"] == 0
        assert metrics["core.capability.calls_per_req"] == 0
    if workload == "vo_scale":
        assert metrics["core.query.fast_deny_ratio"] > 0
    if workload == "nfc_mixed":
        assert metrics["lrm.queue_depth"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
