"""Benchmark of the poroflow library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree: it imports ``poroflow`` from
``./src`` and from nowhere else, and exits with code 2 without a result when
that is missing.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
wraps each layer and reports per-layer self times and counts instead, and
writes its spans to ``perfbench/out/``.  See perfbench/README.md.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name and unit, the accuracy metrics of the workload,
the failures by type and the numpy/scipy versions and processor count.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, imports included

import os  # noqa: E402

# One thread for BLAS and OpenMP; must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

clock = time.perf_counter

SETUP_REPEATS = 3  # setup_s reports the median set-up
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many ops beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_best_s": "s",
    "transformed_best_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Self-test only: small meshes, and a reference that is deliberately wrong.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--wrong-reference", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library(root):
    """Import poroflow from ``root/src``; None when it is not there."""
    src = (root / "src").resolve()
    if not (src / "poroflow" / "__init__.py").is_file():
        return None
    sys.dont_write_bytecode = True  # leave the source tree as it was
    sys.path.insert(0, str(src))
    import poroflow

    if src not in Path(poroflow.__file__).resolve().parents:
        return None
    return poroflow


def tail(times):
    """(value, percentile, samples) of the highest percentile of ``times``
    with TAIL_BEYOND values above it; None when that percentile would not
    lie above the median."""
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(times)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def best(times_by_class):
    """Geometric mean over input classes of each class's fastest time.

    The fastest of many identical calls is the figure that least depends on
    what else the machine runs; taking it per class keeps the figure from
    depending on how many ops of each class a run happened to hold.
    """
    logs = [math.log(min(times)) for times in times_by_class.values()]
    return math.exp(statistics.fmean(logs))


def run(args, poroflow):
    import numpy
    import scipy

    import tracing
    import workloads

    import_s = clock() - T_START
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracing.install(tracer)
    root = tracer.root if tracer else lambda name, op: contextlib.nullcontext()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, args.wrong_reference)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        with root("setup", "setup"):
            workload.setup()
        setup_times.append(clock() - t0)

    attempted = 0
    completed = []  # op ids that ran without error and passed their check
    times = defaultdict(lambda: defaultdict(list))  # "op" or call -> input class -> s
    all_op_time = 0.0
    failures = Counter()
    loop_start = clock()
    while attempted == 0 or clock() - loop_start < args.seconds:
        for _ in range(workload.block):
            x = workload.draw()
            op = attempted
            attempted += 1
            result = None
            with root("op", op):
                t0 = clock()
                try:
                    result = workload.run(x)
                except poroflow.PoroflowError as err:
                    failures[type(err).__name__] += 1
                elapsed = clock() - t0
            all_op_time += elapsed
            if result is None:
                continue
            failed_checks = workload.check(x, result)
            if failed_checks:
                failures.update(f"check:{name}" for name in failed_checks)
                continue
            completed.append(op)
            key = workload.key(x)
            times["op"][key].append(elapsed)
            for call, seconds in result.times.items():
                times[call][key].append(seconds)

    failed = attempted - len(completed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Printed with every run but not bounded (see README.md): medians drift
    # with the load on the machine by more than any useful bound.
    report = {"failed_ratio": (failed / attempted, "ratio")}
    if completed:
        op_times = [t for by_class in times["op"].values() for t in by_class]
        report["ops_per_s"] = (len(op_times) / all_op_time, "1/s")
        op_tail = tail(op_times)
        if op_tail is not None:
            report["op_tail_s"] = (op_tail[0], "s")
            report["op_tail_percentile"] = (op_tail[1], "%")
            report["op_tail_samples"] = (op_tail[2], "count")
        for call, by_class in sorted(times.items()):
            samples = [t for ts in by_class.values() for t in ts]
            report[f"{call}_p50_s"] = (statistics.median(samples), "s")
    report.update(workload.report())

    if tracer:
        metrics = tracing.layer_metrics(tracer, completed, SETUP_REPEATS)
        out = Path(__file__).resolve().parent / "out"
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.json")
    elif completed:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "op_best_s": best(times["op"]),
            "transformed_best_s": best(times["transformed"]),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    else:
        metrics = {}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_completed": len(completed),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "threads": os.environ["OMP_NUM_THREADS"],
    }
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"{name} = {value:.6g} {unit}")
    print("failures = " + json.dumps(dict(failures), sort_keys=True))
    print("provenance = " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    poroflow = import_library(Path.cwd())
    if poroflow is None:
        print("run from the root of a poroflow source tree (no ./src/poroflow)", file=sys.stderr)
        return 2
    import workloads  # from this script's directory, first on sys.path

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    return run(args, poroflow)


if __name__ == "__main__":
    sys.exit(main())
