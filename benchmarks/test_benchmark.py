"""Tests of the benchmark itself: python3 -m pytest benchmarks"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import harness  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from specloc import instances  # noqa: E402

#: shrunken workloads: one 36-cell sweep grid, 7 projection instances and a
#: Hamiltonian with 6 gap contours
SMALL = {"SWEEP_BLOCK": 36, "ORACLE_BLOCK": 7, "HAMILTONIAN_N": 6}


@pytest.fixture(autouse=True)
def small(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(workloads, name, value)


def _run(capsys, workload, trace, seed=3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    assert harness.main(argv, time.perf_counter(), str(ROOT)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_unit(capsys, workload, trace):
    result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = harness.PER_LAYER if trace else harness.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        entry[0]: entry[1] for entry in named}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(capsys, workload):
    first, second = (_run(capsys, workload, 1)["metrics"] for _ in range(2))
    counts = [name for name, unit, _ in harness.PER_LAYER
              if unit == "count/op" or name == "projections.riesz.solve_yield"]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_hamiltonian_counts_per_gap_contour(capsys):
    metrics = _run(capsys, "hamiltonian-family", 1)["metrics"]
    contours_per_op = SMALL["HAMILTONIAN_N"]
    assert metrics["contours.margin.calls"]["value"] == 2 * contours_per_op
    solves = metrics["projections.riesz.solves"]["value"] / contours_per_op
    assert solves == 132 + 260 + 516
    assert metrics["projections.riesz.solve_yield"]["value"] == pytest.approx(508 / 908)


def test_failed_ops_are_counted_not_dropped():
    good = (lambda: instances.run_enclosure_case(0), workloads._sweep_check)
    raises = (lambda: instances.run_enclosure_case(0, alpha_factor=0.5), workloads._sweep_check)
    wrong = (lambda: dict(instances.run_enclosure_case(1), allInside=False),
             workloads._sweep_check)
    with Tracer() as tracer:
        m = harness.measure([good, raises, wrong], 0.0, tracer)
    assert len(m.durations) == 3 and m.failed == 2
    assert tracer.calls["op"] == 3 and not tracer._stack


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        harness.PER_LAYER)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "projection-oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
