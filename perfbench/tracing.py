"""Spans around the benchmark's calls into ``symstep``, and the traced run's
per-layer probes.

Spans are recorded by the benchmark, never inside the library: each one has
a name (``layer.function``), start and end (``time.perf_counter`` seconds),
the id of the span that caused it, the op id shared by all spans of one op,
and free attributes such as call counts.  They stay in memory and are written
out when the run ends.

For every distinct op of one pass the probe integrates once through
``integrate``, then drives the same trajectory through public ``step()``
calls (which expose each step's ``SolverReport``), and replays sampled states
of that trajectory through ``build_step_system``, ``solve_newton`` and
``s3_momentum_update``.  Diagnostics, the command line's post-processing and
config resolution are probed on the cheapest op of each (model, scheme).
"""

import contextlib
import os
import time

import numpy as np

import symstep as ss
from symstep import config as ss_config

import workloads

REPEAT_CHEAP = 20     # calls per span for microsecond-scale evaluations
REPEAT_DEFAULT = 3


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "name": name, "op": self.op_id,
               "parent": self._stack[-1] if self._stack else None}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]


def _repeat(model):
    return REPEAT_CHEAP if model.dimension <= 2 else REPEAT_DEFAULT


def _timed_calls(tracer, name, fn, calls):
    with tracer.span(name, calls=calls):
        for _ in range(calls):
            out = fn()
    return out


def probe_trajectory(tracer, run):
    """integrate, then the same run through step(), then replays."""
    model, scheme, h = run.model, run.scheme, run.h
    with tracer.span("integrators.integrate", steps=run.n_steps) as sp:
        traj = ss.integrate(model, scheme, run.state(), h, run.n_steps,
                            solver_cfg=workloads.SOLVER)
    sp["failed"] = bool(traj.failed)
    if not traj.failed:
        with tracer.span("diagnostics.energy_drift", records=len(traj)):
            ss.energy_drift(traj, model)

    states = [run.state()]
    implicit = scheme != "verlet"
    for _ in range(run.n_steps):
        with tracer.span("integrators.step", implicit=implicit) as sp:
            try:
                res = ss.step(scheme, model, states[-1], h, workloads.SOLVER)
                report = res.solver
            except ss.StepError as err:
                res, report = None, err.report
        sp.update(iterations=report.iterations, converged=report.converged,
                  residual=report.final_residual_norm)
        if res is None:
            break
        states.append(res.state)

    reps = _repeat(model)
    for s in (states[0], states[len(states) // 2], states[-1]):
        _timed_calls(tracer, "models.value", lambda: model.value(s.q), reps)
        _timed_calls(tracer, "models.gradient", lambda: model.gradient(s.q), reps)
        _timed_calls(tracer, "models.hessian", lambda: model.hessian(s.q), reps)
        if not implicit:
            continue
        residual, jacobian = _timed_calls(
            tracer, "integrators.build_step_system",
            lambda: ss.build_step_system(scheme, model, s, h), reps)
        # the Verlet predictor, the start s3_step gives Newton
        g = model.gradient(s.q)
        x0 = s.q + h * s.p / model.mass - 0.5 * h * h * g / model.mass
        _timed_calls(tracer, "integrators.residual", lambda: residual(x0), reps)
        _timed_calls(tracer, "integrators.jacobian", lambda: jacobian(x0), reps)
        with tracer.span("solvers.solve_newton") as sp:
            x, report = ss.solve_newton(residual, jacobian, x0, workloads.SOLVER)
        sp.update(iterations=report.iterations, converged=report.converged)
        if report.converged:
            _timed_calls(tracer, "integrators.s3_momentum_update",
                         lambda: ss.s3_momentum_update(scheme, model, s.q, x, h),
                         reps)
    return traj


def probe_diagnostics(tracer, run, scratch_dir):
    """Diagnostics, CLI post-processing and config resolution on one run."""
    model, scheme, h, n = run.model, run.scheme, run.h, run.n_steps
    s0 = run.state()
    with tracer.span("diagnostics.validate_derivatives"):
        ss.validate_derivatives(model, run.q0)
    with tracer.span("diagnostics.symplecticity_defect") as sp:
        try:
            ss.symplecticity_defect(scheme, model, s0, h)
        except ss.StepError:
            sp["failed"] = True
    with tracer.span("diagnostics.reversibility_error") as sp:
        try:
            ss.reversibility_error(scheme, model, s0, h, n)
        except ss.StepError:
            sp["failed"] = True

    text = "\n".join(f"{key} = {value}" for key, value in run.settings())
    _timed_calls(tracer, "config.resolve",
                 lambda: ss_config.resolve(ss.parse_config(text)), _repeat(model))

    path = os.path.join(scratch_dir, "probe.csv")
    with tracer.span("cli.postprocess") as sp:
        with tracer.span("integrators.integrate", steps=n) as inner:
            ss.integrate(model, scheme, s0, h, n)
        code, wall, _, _ = workloads.call_cli(
            ["run"] + run.flags() + ["--record_stride", "1", "--output", path])
        sp.update(exit_code=code, csv_bytes=os.path.getsize(path),
                  postprocess_s=wall - (inner["end"] - inner["start"]))
    os.unlink(path)


def host_probe(tracer, repeats=5):
    """A fixed pure-Python loop: the speed of the host itself."""
    for _ in range(repeats):
        with tracer.span("host.probe"):
            acc = 0
            for i in range(200_000):
                acc += i * i


def _durations(spans, per="calls"):
    return [(s["end"] - s["start"]) / s.get(per, 1) for s in spans]


def _median(values):
    return float(np.median(values)) if values else float("nan")


def layer_metrics(tracer, overhead_frac):
    """Per-layer metrics (name -> (value, unit)) from the recorded spans."""
    named = tracer.named
    m = {}
    for fn in ("value", "gradient", "hessian"):
        m[f"models.{fn}_us"] = (1e6 * _median(_durations(named(f"models.{fn}"))), "us")

    steps = [s for s in named("integrators.step") if s["implicit"]]
    iters = np.array([s["iterations"] for s in steps])
    m["solvers.newton_ms"] = (1e3 * _median(_durations(named("solvers.solve_newton"))), "ms")
    m["solvers.newton_iters.mean"] = (float(iters.mean()), "count")
    m["solvers.newton_iters.max"] = (float(iters.max()), "count")
    for k in (1, 2, 3, 5):
        m[f"solvers.newton_iters.hist.le{k}"] = (float(np.mean(iters <= k)), "fraction")
    m["solvers.residual_max"] = (max(s["residual"] for s in steps), "norm")
    m["solvers.converged_frac"] = (float(np.mean([s["converged"] for s in steps])), "fraction")

    for fn in ("build_step_system", "residual", "jacobian", "s3_momentum_update"):
        m[f"integrators.{fn}_us"] = (1e6 * _median(_durations(named(f"integrators.{fn}"))), "us")
    step_us = 1e6 * _median(_durations(named("integrators.step")))
    # the probes' own integrate calls that ran every step
    loop = [s for s in named("integrators.integrate") if s.get("failed") is False]
    loop_us = 1e6 * _median(_durations(loop, per="steps"))
    m["integrators.step_us"] = (step_us, "us")
    m["integrators.loop_us_per_step"] = (loop_us, "us")
    m["integrators.call_overhead_us"] = (step_us - loop_us, "us")

    m["diagnostics.energy_drift_us_per_record"] = (
        1e6 * _median(_durations(named("diagnostics.energy_drift"), per="records")), "us")
    m["diagnostics.reversibility_s"] = (_median(
        _durations([s for s in named("diagnostics.reversibility_error")
                    if not s.get("failed")])), "s")
    m["diagnostics.symplecticity_s"] = (_median(
        _durations([s for s in named("diagnostics.symplecticity_defect")
                    if not s.get("failed")])), "s")
    m["diagnostics.validate_derivatives_ms"] = (
        1e3 * _median(_durations(named("diagnostics.validate_derivatives"))), "ms")

    post = named("cli.postprocess")
    m["cli.postprocess_ms"] = (1e3 * _median([s["postprocess_s"] for s in post]), "ms")
    m["cli.csv_bytes"] = (_median([s["csv_bytes"] for s in post]), "bytes")
    m["config.resolve_us"] = (1e6 * _median(_durations(named("config.resolve"))), "us")
    m["host.probe_ms"] = (1e3 * _median(_durations(named("host.probe"))), "ms")
    m["trace.overhead_frac"] = (overhead_frac, "fraction")
    return m
