"""Smoke test of the benchmark harness on every workload it declares.

``perfbench/run.py`` drives the package through its public API and patches
layers by name, so a change that drops something it uses (the ``workers=``
keyword, ``_kernels.USING_NUMBA``, the result's ``tower``, ``filtration`` or
``snapshots[].before``) fails here instead of in the next benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_is_correct(workload):
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "5",
            "--seconds", "0.2",
            "--trace", "1",
            "--tiny",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
