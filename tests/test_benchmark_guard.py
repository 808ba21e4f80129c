"""The benchmark's view of the library: a short traced run of each
workload must complete with every op passing its check. A traced run
reaches the names the tracer wraps and reads (solve and Picard reports,
the assembled system, the boundary-data transform), so a change that
breaks one of them fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["reservoir_sweep", "strip_picard", "refine_ladder"])
def test_traced_tiny_run_passes(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
