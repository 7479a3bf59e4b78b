"""Smoke test of the benchmark itself: one operation of every workload, both
passes, every metric named in BENCHMARK.json printed or marked absent.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_operation_prints_every_metric(workload, trace):
    proc = bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--max-ops", "1",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] == 1 + trace  # the traced pass repeats the operation
    assert any(line.startswith("env {") for line in lines)
    for name in ("op_s_p50", "op_s_tail", "ops_per_s", "key_bits_per_s", "failed_frac",
                 "peak_rss_mb", "setup_s", "ref_s"):
        assert any(line.startswith(f"metric {name} = ") for line in lines), name

    if workload == "sweep_small":
        assert any(line.startswith("known_defect ladder crash: ") for line in lines)

    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    absent = {line.split()[1] for line in lines if line.startswith("layer ") and "absent" in line}
    for metric in wanted:
        name = metric["name"]
        if name in absent:
            continue
        entry = result["metrics"][name]
        assert entry["unit"] == metric["unit"], name
        assert isinstance(entry["value"], float), name


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
