"""Benchmark entry point for wtgc.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

NAME is oracle-sweep, constructions or big-trees.  Each workload runs in
a fresh single-threaded process (`worker.py`), one after another.  The
run prints every metric by name and unit and, as its last line, one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
they are the per-layer ones, among them `trace.overhead_s`, the gap
between the traced and the untraced round wall time.
`--smoke` runs tiny inputs, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle-sweep", "constructions", "big-trees")
TIMEOUT = 170


def run_worker(workload: str, args) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.smoke:
        cmd += ["--scale", "smoke"]
    # A fixed hash seed keeps set and dict orders, and with them the
    # timings, the same from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=TIMEOUT, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: workload {workload} exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(workload: str, result: dict):
    samples = result["attempted"]
    ratio = result["failed"] / samples
    print(f"{workload}: {result['rounds']} rounds of "
          f"{result['ops_per_round']} operations, {samples} samples; "
          f"raw round wall {result['raw_wall_s']:.4g} s; times below are "
          f"multiplied by the speed correction "
          f"{result['speed_correction']:.4g}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'ops_failed_ratio':40s} {ratio:>16.6g} "
          f"({result['failed']} of {samples})")
    for op, message in result["failures"].items():
        print(f"  failed {op}: {message}")
    for message in result["wrong"]:
        print(f"  WRONG {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wtgc" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no wtgc sources (src/wtgc)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_worker(name, args)
        report(name, results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": value
                   for name, result in results.items()
                   for metric, value in result["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
