"""Smoke test of the benchmark at its tiny size.

    python -m pytest perfbench/smoke.py

(The file name keeps it out of the package's own test run.)  It checks that
every metric BENCHMARK.json names is emitted with its unit, that the seed
moves Monte Carlo seeds and frequencies but no size, that no operation fails
on the current code, and that the benchmark refuses to run without the
package beside it.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
    BENCH = json.load(fh)

# flags whose values set how much work an operation does
SIZE_FLAGS = {"--trials", "--mc", "--shape", "--t-max", "--bin-width", "--harmonics",
              "--samples", "--tau-max", "--threads"}


def _run(*args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def _shape(plan):
    """Everything about a plan that must not depend on the seed."""
    ops = []
    for op in plan.ops:
        argv = op.argv or []
        flags = [a for a in argv if a.startswith("--")]
        sizes = {a: argv[i + 1] for i, a in enumerate(argv) if a in SIZE_FLAGS}
        if "--f-sweep" in argv:
            sizes["steps"] = argv[argv.index("--f-sweep") + 1].rsplit(":", 1)[1]
        ops.append((op.name, argv[:1], flags, sizes, len(op.outputs), op.units))
    sized = {k: v for k, v in plan.params.items() if k in workloads.SIZES[plan.size]}
    return ops, sized


@pytest.mark.parametrize("workload", sorted(workloads.PLANNERS))
def test_seed_moves_inputs_not_sizes(workload):
    a = workloads.make_plan(workload, 1, "full")
    b = workloads.make_plan(workload, 2, "full")
    assert _shape(a) == _shape(b)
    assert a.params != b.params
    assert workloads.make_plan(workload, 1, "full").params == a.params
    moved = {
        "mc_random_window": "mc_seeds",
        "periodic_sweep": "f_lo",
        "renewal_table": "f",
        "route_crosscheck": "generative_seed",
    }[workload]
    assert a.params[moved] != b.params[moved]
    if workload == "route_crosscheck":
        assert a.params["cf_frequencies"] != b.params["cf_frequencies"]
        assert len(a.params["cf_frequencies"]) == len(b.params["cf_frequencies"])


def test_benchmark_file_matches_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(workloads.PLANNERS)
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert sorted(tracer.MOVES) == sorted(m["name"] for m in BENCH["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.PLANNERS))
def test_tiny_run_emits_every_metric_and_fails_nothing(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    info = json.loads(proc.stdout.splitlines()[-2])
    assert result["failed"] == 0 and result["correct"], info["failures"]
    assert result["attempted"] >= 1
    if trace:
        assert result["metrics"]["fail_ratio"]["value"] == 0.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "route_crosscheck", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path), timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
