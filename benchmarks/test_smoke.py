"""Tests of the benchmark itself; run with `python3 -m pytest benchmarks`."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def test_smoke_mode_reports_every_metric_and_no_failures():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "SMOKE FAILURE" not in proc.stdout


def test_run_without_simulator_source_fails_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "acceptance", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
