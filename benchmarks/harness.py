"""Closed-loop runner, metrics and environment record of the benchmark.

One process, one client: the next op starts only after the previous one has
returned and been checked.  ``run.py`` pins BLAS to one thread and puts the
checkout's ``src`` on the path before this module is imported.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy

import specloc
from spans import Tracer
from workloads import WORKLOADS

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: set-ups per untraced run (this process plus fresh interpreters); the
#: median is reported as setup_s
SETUP_REPEATS = 5

#: end-to-end metrics of an untraced run: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: per-layer metrics of a traced run: (name, unit, better).  ``.calls`` and
#: ``.self_s`` are per op; self time is span time minus child-span time.
PER_LAYER = (
    ("subordination.bound.calls", "count/op", "lower"),
    ("subordination.bound.self_s", "s/op", "lower"),
    ("enclosure.certified_r0.self_s", "s/op", "lower"),
    ("enclosure.verify.self_s", "s/op", "lower"),
    ("instances.generate.self_s", "s/op", "lower"),
    ("operators.assemble.self_s", "s/op", "lower"),
    ("numerics.eig.calls", "count/op", "lower"),
    ("numerics.eig.self_s", "s/op", "lower"),
    ("numerics.opnorm.calls", "count/op", "lower"),
    ("numerics.opnorm.self_s", "s/op", "lower"),
    ("contours.margin.calls", "count/op", "lower"),
    ("contours.margin.svds", "count/op", "lower"),
    ("contours.margin.self_s", "s/op", "lower"),
    ("contours.refine.calls", "count/op", "lower"),
    ("projections.riesz.calls", "count/op", "lower"),
    ("projections.riesz.solves", "count/op", "lower"),
    ("projections.riesz.self_s", "s/op", "lower"),
    ("projections.riesz.solve_yield", "ratio", "higher"),
    ("projections.riesz.idempotency_max", "norm", "lower"),
    ("projections.family.self_s", "s/op", "lower"),
    ("projections.make_family.self_s", "s/op", "lower"),
    ("projections.oracle.self_s", "s/op", "lower"),
    ("projections.sum_bound.self_s", "s/op", "lower"),
    ("rieszbasis.sign_pattern.calls", "count/op", "lower"),
    ("rieszbasis.sign_pattern.opnorms", "count/op", "lower"),
    ("rieszbasis.sign_pattern.self_s", "s/op", "lower"),
    ("rieszbasis.estimate.self_s", "s/op", "lower"),
    ("rieszbasis.range_family.self_s", "s/op", "lower"),
    ("rieszbasis.riesz_constant.calls", "count/op", "lower"),
    ("blockop.build.self_s", "s/op", "lower"),
    ("blockop.verify.self_s", "s/op", "lower"),
    ("cli.self_s", "s/op", "lower"),
    ("lapack.solve.calls", "count/op", "lower"),
    ("lapack.solve.self_s", "s/op", "lower"),
    ("lapack.svd.calls", "count/op", "lower"),
    ("lapack.svd.self_s", "s/op", "lower"),
    ("lapack.eig.calls", "count/op", "lower"),
    ("lapack.eig.self_s", "s/op", "lower"),
    ("op.self_s", "s/op", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
)

#: counts of one child span name under one parent span name
CHILD_COUNTS = {
    "contours.margin.svds": ("contours.margin", "lapack.svd"),
    "projections.riesz.solves": ("projections.riesz", "lapack.solve"),
    "rieszbasis.sign_pattern.opnorms": ("rieszbasis.sign_pattern", "numerics.opnorm"),
}


@dataclass
class Measurement:
    durations: list[float] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return len(self.durations) / sum(self.durations)


def measure(ops, seconds: float, tracer: Tracer | None = None) -> Measurement:
    """Run whole rounds of ``ops`` until ``seconds`` have passed.

    Only ``run`` is timed.  An op that raises or fails its check counts as
    failed; its time stays among the samples.
    """
    result = Measurement()
    begin = time.perf_counter()
    while not result.durations or time.perf_counter() - begin < seconds:
        for run, check in ops:
            scope = tracer.op(len(result.durations)) if tracer else contextlib.nullcontext()
            error = None
            start = time.perf_counter()
            try:
                with scope:
                    out = run()
            except Exception:  # a failing op is counted, never dropped
                error = traceback.format_exc(limit=3)
            result.durations.append(time.perf_counter() - start)
            if error is None:
                try:
                    with tracer.paused() if tracer else contextlib.nullcontext():
                        if not check(out):
                            error = "output check failed"
                except Exception:
                    error = traceback.format_exc(limit=3)
            if error is not None:
                result.failed += 1
                result.errors.append(error)
    return result


def end_to_end_metrics(m: Measurement, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "ops_per_s": m.ops_per_s,
        "op_p50_s": statistics.median(m.durations),
        "op_p90_s": (statistics.quantiles(m.durations, n=10, method="inclusive")[-1]
                     if len(m.durations) > 1 else m.durations[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(m: Measurement, tracer: Tracer) -> dict:
    ops = len(m.durations)
    solves = tracer.child_calls[CHILD_COUNTS["projections.riesz.solves"]]
    out = {}
    for name, _, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if name in CHILD_COUNTS:
            out[name] = tracer.child_calls[CHILD_COUNTS[name]] / ops
        elif kind == "calls":
            out[name] = tracer.calls[span] / ops
        elif kind == "self_s":
            out[name] = tracer.self_s[span] / ops
    out["projections.riesz.solve_yield"] = tracer.accepted_nodes / solves if solves else 0.0
    out["projections.riesz.idempotency_max"] = tracer.idempotency_max
    out["trace.ops_per_s"] = m.ops_per_s
    return out


def _git_commit(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(root: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "commit": _git_commit(root),
    }


def _repeat_setups(argv: list[str], count: int) -> list[float]:
    """Set-up times of ``count`` fresh interpreters, one after another."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    times = []
    for _ in range(count):
        done = subprocess.run([sys.executable, script, *argv, "--setup-only"],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def parse_args(argv):
    parser = argparse.ArgumentParser(description="specloc closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this interpreter's set-up time and exit")
    return parser.parse_args(argv)


def main(argv, start: float, root: str) -> int:
    args = parse_args(argv)
    src = os.path.join(root, "src")
    if os.path.commonpath([os.path.abspath(specloc.__file__), src]) != src:
        raise SystemExit("specloc was imported from %s, not from %s" % (specloc.__file__, src))
    workdir = os.path.join(root, "benchmarks", "out")
    os.makedirs(workdir, exist_ok=True)
    ops = WORKLOADS[args.workload](args.seed, workdir)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    setups = [setup_s]
    if args.trace:
        with Tracer() as tracer:
            m = measure(ops, args.seconds, tracer)
        tracer.dump(os.path.join(workdir, "spans-%s.csv" % tag))
        metrics = layer_metrics(m, tracer)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        m = measure(ops, args.seconds)
        setups += _repeat_setups(argv, SETUP_REPEATS - 1)
        metrics = end_to_end_metrics(m, statistics.median(setups))
        units = dict(END_TO_END)

    attempted = len(m.durations)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": attempted,
        "failed_frac": m.failed / attempted, "environment": environment(root),
        "metrics": metrics, "durations": m.durations, "setups": setups,
        "errors": m.errors[:5],
    }
    with open(os.path.join(workdir, "result-%s.json" % tag), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    for error in m.errors[:5]:
        print(error, file=sys.stderr)
    print("environment %s" % json.dumps(record["environment"], sort_keys=True))
    print("%s seed %d: %d ops (samples), failed_frac %.4f"
          % (args.workload, args.seed, attempted, record["failed_frac"]))
    for name, value in metrics.items():
        print("  %-36s %.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0
