"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench

Every workload runs untraced and traced with ``--tiny`` and must print
every metric named in BENCHMARK.json with its unit, the detail line with
the workload's own metrics, sample counts and machine facts, and pass
each of its correctness checks. Without the program's sources the
benchmark must fail and print no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOAD_METRICS = {
    "train": {"setup_s", "train_s", "heldout_accuracy", "peak_rss_mb", "failed"},
    "events": {
        "setup_s",
        "series_ms.p50",
        "series_ms.p90",
        "rtf",
        "exact_set_rate",
        "false_alarms",
        "peak_rss_mb",
        "failed",
    },
    "healthy_long": {"setup_s", "rtf", "false_alarms", "peak_rss_mb", "failed"},
}
CHECKS = {
    "train": {"gen_exit_0", "train_exit_0", "heldout_accuracy_gate", "model_bytes_repeat"},
    "events": {"report_returned", "windows_whole_periods"},
    "healthy_long": {"report_returned", "windows_whole_periods"},
}
MACHINE = {"nproc", "cpu_model", "python", "numpy", "commit", "src_sha256"}


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_unit_and_checks_pass(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    detail = json.loads(detail_line)["perfbench"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    checks = CHECKS[workload] | ({"traced_equals_untraced"} if trace else set())
    assert set(detail["checks"]) == checks
    assert all(detail["checks"].values())
    if not trace:
        assert WORKLOAD_METRICS[workload] <= set(detail["metrics"])
    for metric in detail["metrics"].values():
        if isinstance(metric, dict):
            assert {"value", "unit", "n"} <= set(metric)
    assert MACHINE <= set(detail["machine"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "events", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
