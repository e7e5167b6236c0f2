"""Run every workload untraced and traced, and print all metrics.

    python3 benchmarks/report.py [--seed N] [--seconds S]

Prints each workload's end-to-end metrics with units, its failed fraction,
its per-layer metrics, and the tracing overhead: 1 - traced ops_per_s /
untraced ops_per_s.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run(workload, args.seed, seconds, 0)
        traced = run(workload, args.seed, seconds, 1)
        print("%s (seed %d, %d ops, failed_frac %.4f)"
              % (workload, args.seed, plain["attempted"], plain["failed"] / plain["attempted"]))
        for result in (plain, traced):
            for name, metric in result["metrics"].items():
                print("  %-36s %.6g %s" % (name, metric["value"], metric["unit"]))
        overhead = 1.0 - (traced["metrics"]["trace.ops_per_s"]["value"]
                          / plain["metrics"]["ops_per_s"]["value"])
        print("  %-36s %.4f" % ("tracing overhead", overhead))
    return 0


if __name__ == "__main__":
    sys.exit(main())
