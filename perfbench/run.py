"""The symstep benchmark: one command for every end-to-end and per-layer metric.

    python3 perfbench/run.py --workload kepler-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports ``symstep`` from
``src/`` and refuses to run without it.  One process, one client in a closed
loop: each op starts when the previous one has returned.  BLAS may use as
many threads as there are usable cores, and no more.

Workloads (see ``workloads.py``):

* ``kepler-sweep`` -- integrate + energy_drift over one Kepler orbit; d = 2,
  so the cost is per-step Python overhead, not arithmetic.
* ``lj-cluster``  -- integrate segments of LJ clusters, N = 8 and 16; the
  interpreted Hessian assembly and dense solve dominate.
* ``cli-session`` -- in-process ``symstep`` command lines: run (CSV),
  compare, converge, check; many single step() calls and file writes.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics:

* ``setup_s``: a fresh interpreter importing symstep, generating the inputs
  and running the warm-up, until the first op is ready (median of
  SETUP_REPEATS child processes);
* ``op_ms.p50`` / ``op_ms.p90``: wall time per op;
* ``steps_per_s``: integration steps completed over summed op wall time;
* ``ok_frac``: ops that completed without a reported failure or a failed
  output check, over ops attempted (1 - fail_frac; a fraction that is never
  0);
* ``energy_err.p50``: median over ops of max |H - H0| / |H0|;
* ``peak_rss_mb``: peak resident memory of this process.

``failed`` in that line counts ops whose output was wrong; a run with any is
reported as incorrect and exits 1.  A solve that does not converge is not a
wrong output when the library reports it as a failed trajectory with a step
and a cause, nor is a FAIL in ``check``'s energy-bounded row (see
``workloads._reported_failure``): both are counted in ``ok_frac``.  On
``lj-cluster`` the run is also incorrect when the implicit steps average
fewer than one Newton iteration, since it would then time no solve.

With ``--trace 1`` the same ops run once untraced and once with spans around
each public call, then ``tracing.py`` probes every layer; the spans go to
``.perfbench_out/`` and the line carries the per-layer metrics.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 7
WORKLOAD_NAMES = ("kepler-sweep", "lj-cluster", "cli-session")


def _import_library():
    """Import symstep from this checkout's sources, never an installed copy."""
    package = os.path.join(SRC, "symstep")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"perfbench: no symstep sources at {package}")
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cores
    sys.path.insert(0, SRC)
    import symstep
    if os.path.dirname(os.path.abspath(symstep.__file__)) != package:
        raise SystemExit(f"perfbench: symstep imported from {symstep.__file__}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build inputs, warm up, print 'ready' and exit "
                             "(the child process behind setup_s)")
    return parser.parse_args(argv)


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q))


def measure_setup(args):
    """Median wall time from spawning a fresh interpreter to its 'ready'."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up child failed (exit {code})")
        times.append(elapsed)
    return sorted(times)[len(times) // 2]


def run_passes(workload, seconds):
    """Repeat whole passes over the workload's ops until `seconds` elapse;
    returns the (op, outcome) pairs."""
    outcomes = []
    t_end = time.perf_counter() + seconds
    while not outcomes or time.perf_counter() < t_end:
        outcomes += [(op, workload.execute(op)) for op in workload.ops]
    return outcomes


def work_precision(outcomes):
    """(case, seconds per unit simulated time, energy error) medians per
    (scheme, h) over the kepler-sweep ops."""
    import numpy as np
    rows = {}
    for op, out in outcomes:
        if out.energy_err is not None:
            t_sim = op.run.h * op.run.n_steps
            rows.setdefault(op.case, ([], []))
            rows[op.case][0].append(out.wall_s / t_sim)
            rows[op.case][1].append(out.energy_err)
    return [(case, float(np.median(s)), float(np.median(e)))
            for case, (s, e) in sorted(rows.items())]


def end_to_end(outcomes, setup_s):
    """The end-to-end metrics of a run from its (op, outcome) pairs."""
    import numpy as np
    walls = [out.wall_s for _, out in outcomes]
    errs = [out.energy_err for _, out in outcomes if out.energy_err is not None]
    not_ok = sum(1 for _, out in outcomes
                 if out.reported_failure or out.check_error)
    return {
        "setup_s": (setup_s, "s"),
        "op_ms.p50": (1e3 * _percentile(walls, 50), "ms"),
        "op_ms.p90": (1e3 * _percentile(walls, 90), "ms"),
        "steps_per_s": (sum(out.steps for _, out in outcomes) / sum(walls), "1/s"),
        "ok_frac": (1.0 - not_ok / len(outcomes), "fraction"),
        "energy_err.p50": (float(np.median(errs)), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_run(workload, args, scratch):
    """Untraced and traced executions of the same ops (alternating which
    goes first), then the per-layer probes."""
    import tracing
    tracer = tracing.Tracer()
    tracing.host_probe(tracer)
    plain, traced, outcomes = 0.0, 0.0, []
    t_end = time.perf_counter() + args.seconds / 2
    first_traced = False
    while True:
        for op in workload.ops:
            for use_tracer in ((True, False) if first_traced else (False, True)):
                if use_tracer:
                    tracer.op_id = len(outcomes)
                    with tracer.span("op", case=op.case) as sp:
                        out = workload.execute(op, tracer.span)
                    traced += sp["end"] - sp["start"]
                else:
                    out = workload.execute(op)
                    plain += out.wall_s
                outcomes.append((op, out))
        first_traced = not first_traced
        if time.perf_counter() >= t_end:
            break

    cheapest = {}
    for op in workload.ops:
        tracer.op_id = f"probe:{op.case}"
        with tracer.span("probe", case=op.case):
            tracing.probe_trajectory(tracer, op.run)
        key = (op.run.model.name, op.run.scheme)
        size = (op.run.model.dimension, op.run.n_steps)
        if key not in cheapest or size < cheapest[key][0]:
            cheapest[key] = (size, op)
    for _, op in cheapest.values():
        tracer.op_id = f"diagnostics:{op.case}"
        with tracer.span("probe", case=op.case):
            tracing.probe_diagnostics(tracer, op.run, scratch)

    metrics = tracing.layer_metrics(tracer, traced / plain - 1.0)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "spans": tracer.spans,
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, f)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    return outcomes, metrics


def main(argv=None):
    args = _parse_args(argv)
    _import_library()
    import workloads

    scratch = os.path.join(OUT_DIR, f"scratch-{os.getpid()}")
    os.makedirs(scratch)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        workload.warm_up()
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            outcomes, metrics = traced_run(workload, args, scratch)
        else:
            setup_s = measure_setup(args)
            outcomes = run_passes(workload, args.seconds)
            metrics = end_to_end(outcomes, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    errors = [out.check_error for _, out in outcomes if out.check_error]
    for message in sorted(set(errors)):
        print(f"check failed: {message}")
    correct = not errors
    if args.workload == "lj-cluster":
        mean_iters = (metrics["solvers.newton_iters.mean"][0] if args.trace
                      else workload.solver_probe())
        print(f"mean Newton iterations per implicit step: {mean_iters:.3f}")
        if mean_iters < 1.0:
            print("check failed: fewer than one Newton iteration per implicit "
                  "step; the solver is not being measured")
            correct = False
    if args.workload == "kepler-sweep":
        print(f"{'case':28s} {'s per unit time':>16s} {'energy_err':>11s}")
        for case, sec, err in work_precision(outcomes):
            print(f"{case:28s} {sec:16.6f} {err:11.3e}")
    walls = [out.wall_s for _, out in outcomes]
    print(f"ops: {len(outcomes)} ({len(workload.ops)} per pass); op_ms p50 "
          f"{1e3 * _percentile(walls, 50):.3f}, p90 {1e3 * _percentile(walls, 90):.3f}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
