"""The benchmark's traced rounds, on their small inputs.

Each workload of `perfbench/worker.py` runs once, traced, in a fresh
interpreter. The traced round wraps every schurcx function the benchmark
times and checks its output against theory, so a refactor that drops a
wrapped name or breaks a theory check fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = ("koszul-build", "generic-ranks", "sweep-small", "cli-roundtrip")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_round_runs_clean(workload, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "worker.py"),
         "--workload", workload, "--seed", "1", "--mode", "traced", "--small",
         "--tmp", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert result["problems"] == []
    assert result["errors"] == []
    assert result["missing"] == []
