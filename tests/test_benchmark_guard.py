"""The benchmark's view of the library. A short traced run of each workload
must complete with every op passing its check: a traced run reaches the
names the tracer wraps and reads (solve and Picard reports, the assembled
system, the boundary-data transform), so a change that breaks one of them
fails here; on strip_picard the Picard sweeps must report CG iterations.
The benchmark's self-test must pass too: it runs each workload tiny,
untraced and traced (seed 7), needs every metric to carry the name and unit
BENCHMARK.json lists, checks that a wrong reference fails every op and that
a directory without the library makes the benchmark fail."""

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
    if workload == "strip_picard":
        # the benchmark's Picard sweeps take the preconditioned CG path
        assert result["metrics"]["barus_direct.linear_iterations"]["value"] > 0, proc.stdout


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
