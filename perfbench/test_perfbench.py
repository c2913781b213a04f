"""Tests of the benchmark itself:  python3 -m pytest perfbench

They check that inputs follow the seed, that the names the benchmark prints
are the names BENCHMARK.json declares, and that short runs complete with
ok_frac counted against the ops attempted.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _inputs(name, seed, tmp_path):
    w = workloads.WORKLOADS[name](seed, str(tmp_path))
    return [(op.case, op.run.scheme, op.run.h, op.run.n_steps,
             op.run.q0.tobytes(), op.run.p0.tobytes(), op.argv) for op in w.ops]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_fixes_inputs(name, tmp_path):
    first = _inputs(name, 7, tmp_path)
    assert first == _inputs(name, 7, tmp_path)
    other = _inputs(name, 8, tmp_path)
    assert other != first
    # a pass has the same composition under every seed
    assert sorted(op[0] for op in other) == sorted(op[0] for op in first)


def test_workload_names_match_spec():
    assert set(run.WORKLOAD_NAMES) == {w["name"] for w in SPEC["workloads"]}
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_ok_frac_counts_against_attempted():
    ok = workloads.Outcome(0.01, 10, energy_err=1e-6)
    solver = workloads.Outcome(0.02, 1, reported_failure=True)
    wrong = workloads.Outcome(0.03, 10, check_error="bad")
    op = None
    metrics = run.end_to_end([(op, ok), (op, solver), (op, wrong), (op, ok)], 0.5)
    assert metrics["ok_frac"][0] == pytest.approx(0.5)
    assert metrics["steps_per_s"][0] == pytest.approx(31 / 0.07)
    assert metrics["energy_err.p50"][0] == pytest.approx(1e-6)


def test_cli_reported_failure_is_not_a_wrong_output():
    """A check whose FAIL rows all come from a non-converged solve or the
    energy-bounded row counts against ok_frac; any other FAIL row is a
    wrong output."""
    solver = ("gradient-fd     5.4e-09  <= 1.0e-06  pass\n"
              "reversibility         -  <= 5.0e-11  FAIL  (StepError: forward leg failed at step 1)\n"
              "energy-bounded        -  <= 1.5e+00  FAIL  (solver failure at step 1)\n")
    wrong = solver + "energy-drift    3.0e-02  <= 2.0e-02  FAIL\n"
    exit_diag, exit_solver = workloads.cli.EXIT_DIAGNOSTIC, workloads.cli.EXIT_SOLVER
    assert workloads._reported_failure(exit_diag, solver, "")
    assert not workloads._reported_failure(exit_diag, wrong, "")
    bounded = ("energy-bounded  2.9e-03  <= 2.1e-03  FAIL\n"
               "energy-drift    2.9e-03  <= 3.8e-01  pass\n")
    assert workloads._reported_failure(exit_diag, bounded, "")
    assert workloads._reported_failure(exit_solver, "", "symstep: solver failure at step 3")
    assert not workloads._reported_failure(workloads.cli.EXIT_IO, "", "cannot write")


def _run(*args):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_short_run_prints_end_to_end_metrics():
    result = _run("--workload", "kepler-sweep", "--seed", "1",
                  "--seconds", "0", "--trace", "0")
    _check_metrics(result, SPEC["end_to_end"])
    assert result["attempted"] == 72
    assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_short_traced_run_prints_per_layer_metrics():
    result = _run("--workload", "kepler-sweep", "--seed", "1",
                  "--seconds", "0", "--trace", "1")
    _check_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["solvers.newton_iters.mean"]["value"] >= 1.0
    spans = os.path.join(run.OUT_DIR, "spans-kepler-sweep-seed1.json")
    with open(spans) as f:
        recorded = json.load(f)["spans"]
    assert {"id", "name", "op", "parent", "start", "end"} <= set(recorded[0])


def test_lj_short_run_counts_the_failing_case():
    """One pass: the N = 16, h = 0.002 op hits max_iterations and counts
    against ok_frac; every other op is correct."""
    result = _run("--workload", "lj-cluster", "--seed", "1",
                  "--seconds", "0", "--trace", "0")
    assert result["correct"] and result["attempted"] == 11
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(10 / 11)


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (bench / name).write_text(open(os.path.join(HERE, name)).read())
    out = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                          "kepler-sweep", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
