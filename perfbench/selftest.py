"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. A tiny run of each workload, untraced and traced, passes its checks and
   reports exactly the metrics BENCHMARK.json lists, each with its unit.
2. With a deliberately wrong reference every op of every workload counts as
   failed, so the checks can fail.
3. In a directory holding only BENCHMARK.json and the benchmark's files the
   benchmark exits with a non-zero code and prints no result.

Exits with code 1 when any of these does not hold.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 170


def bench(workload, trace, *extra, cwd=None):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), *extra],
        cwd=cwd or HERE.parent, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def result(proc):
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            res = result(bench(workload, trace, "--tiny"))
            units = {name: m["unit"] for name, m in res["metrics"].items()}
            expect(units == expected[trace], f"{workload} trace={trace}: metric names and units")
            expect(res["correct"] and res["failed"] == 0, f"{workload} trace={trace}: all ops pass")
        res = result(bench(workload, 0, "--tiny", "--wrong-reference"))
        expect(
            not res["correct"] and res["failed"] == res["attempted"] >= 1,
            f"{workload}: a wrong reference fails every op",
        )

    scratch = HERE / "out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("out"))
        proc = bench(spec["workloads"][0]["name"], 0, cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without ./src the benchmark fails and prints no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
