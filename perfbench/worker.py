"""Run one workload in this process and print its result as one JSON line.

`run.py` starts one fresh process per workload:

    python3 perfbench/worker.py --workload big-trees --seed 1 --seconds 10 \
        --trace 0 [--scale smoke]

The process caps its own address space, so a construction that blows up
fails as one operation (MemoryError) instead of taking the machine down.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MEMORY_CAP = 2 << 30
SETUP_REPEATS = 5
IMPORT_REPEATS = 15
MIN_ROUNDS = 3
MAX_SECONDS = 100.0

_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
           "t = time.perf_counter(); import wtgc, wtgc.cli; "
           "print(time.perf_counter() - t)")


def import_library():
    """Import `wtgc` from this checkout's sources and nowhere else."""
    if not (SRC / "wtgc" / "__init__.py").is_file():
        raise SystemExit(f"error: no wtgc sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import wtgc
    import wtgc.cli  # noqa: F401

    if Path(wtgc.__file__).resolve().parent != SRC / "wtgc":
        raise SystemExit(f"error: imported wtgc from {wtgc.__file__}")


def import_seconds() -> float:
    """Time to import wtgc in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT, str(SRC)],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(proc.stdout)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", import_s: float = 0.0) -> dict:
    """Run one workload here; `import_s` is the speed-corrected time to
    import wtgc, to which `setup_s` adds the median set-up repetition."""
    import harness
    import workloads

    setup, run_round = workloads.WORKLOADS[name]
    sizes = workloads.SCALES[scale]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        inputs = setup(seed, sizes)
        setup_times.append(perf_counter() - start)
    warmup, rounds = harness.run_rounds(run_round, inputs, seconds, trace,
                                        MIN_ROUNDS, MAX_SECONDS)
    depth, wrong = workloads.max_depth_ok(
        (workloads.FIXTURES / "fx2g.wtg").read_text())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for r in [warmup] + rounds:
        wrong += r.wrong
    failures = {}
    for r in rounds:
        for op, message in r.failures.items():
            failures.setdefault(op, message)
    attempted = sum(len(r.latencies) for r in rounds)
    failed = sum(r.failed for r in rounds)
    if trace:
        metrics = harness.per_layer(rounds, warmup)
    else:
        # the set-up repetitions are too short to bracket with probes of
        # their own; they take the run's median speed correction
        setup_s = import_s + statistics.median(setup_times) * \
            statistics.median(r.correction for r in rounds)
        metrics = harness.end_to_end(rounds, setup_s, rss_mb, depth)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "rounds": len(rounds),
        "ops_per_round": len(rounds[0].latencies),
        "raw_wall_s": statistics.median(r.wall for r in rounds),
        "speed_correction": statistics.median(r.correction for r in rounds),
        "wrong": wrong[:harness.MAX_WRONG],
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    # One CPU for this process and its children, so the speed probe and
    # the work it corrects always share a core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import harness

    harness.speed_probe()  # the first probe of a process runs cold
    before = harness.speed_probe()
    start = perf_counter()
    import_library()
    # One import per process is too few to time it steadily: add the
    # imports of fresh interpreters (on the same CPU), take the median and
    # correct it by probes on either side.
    imports = [perf_counter() - start]
    imports += [import_seconds() for _ in range(IMPORT_REPEATS - 1)]
    import_s = statistics.median(imports) * harness.speed_correction(
        before, harness.speed_probe())
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.scale, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
