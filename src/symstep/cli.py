"""Experiment command line: ``symstep {run,compare,converge,check}``.

Every config key doubles as a flag (``--h 0.1`` overrides an ``h`` line from
``--config file``).  Exit codes: 0 success, 1 usage/config error, 2 solver
failure, 3 I/O failure, 4 diagnostic inconsistency.
"""

import argparse
import functools
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .config import KEYS, ConfigError, build_config, parse_lines, resolve, resolve_start
from .diagnostics import (analytic_reference, angular_momentum_series,
                          convergence_order, energy_drift, energy_series,
                          reversibility_error, symplecticity_defect)
from .integrators import SchemeVariant, StepError, integrate
from .models import SingularityError, validate_derivatives

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_IO = 3
EXIT_DIAGNOSTIC = 4

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x):
    return f"{x:.17g}"


def _write_output(path, text):
    """Write atomically (temp file + rename); path None or '-' means stdout."""
    if path is None or path == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".symstep-")
    try:
        with os.fdopen(fd, "w") as f:
            # mkstemp creates the file 0600 and the rename keeps that mode;
            # give the output the mode a plain open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(f.fileno(), 0o666 & ~umask)
            f.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _trajectory_csv(traj, model):
    d = model.dimension
    header = ("t,"
              + ",".join(f"q{i + 1}" for i in range(d)) + ","
              + ",".join(f"p{i + 1}" for i in range(d)) + ",H,dH")
    # a singular start has no energy; integrate then fails at step 1
    energy = (energy_series(traj, model) if traj.initial_energy is not None
              else np.full(len(traj), np.nan))
    lines = [header]
    for i in range(len(traj)):
        cells = [_fmt(traj.times[i])]
        cells += [_fmt(v) for v in traj.q[i]]
        cells += [_fmt(v) for v in traj.p[i]]
        cells += [_fmt(energy[i]), _fmt(energy[i] - energy[0])]
        lines.append(",".join(cells))
    if traj.failed:
        lines.append(f"# aborted at step {traj.failed_step}")
    return "\n".join(lines) + "\n"


def _integrate(cfg, model, variant, s0, n_steps, solver):
    """integrate at the config's h and record stride; a run that integrate
    refuses, such as one with too many records to allocate, is a
    ConfigError."""
    try:
        return integrate(model, variant, s0, cfg.h, n_steps,
                         record_stride=cfg.record_stride, solver_cfg=solver)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def cmd_run(cfg):
    model, s0, n_steps, solver = resolve(cfg)
    traj = _integrate(cfg, model, cfg.scheme, s0, n_steps, solver)
    text = _trajectory_csv(traj, model)
    try:
        _write_output(cfg.output, text)
    except OSError as err:
        print(f"symstep: cannot write {cfg.output}: {err}", file=sys.stderr)
        return EXIT_IO
    if traj.failed:
        print(f"symstep: solver failure at step {traj.failed_step} "
              f"({traj.failure.cause})", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


@dataclass(frozen=True)
class ComparisonSummary:
    variants: tuple
    max_abs_drift: tuple
    reversibility: tuple
    wall_seconds: tuple
    drift_ratio: float


def _comparison_csv(summary):
    lines = ["variant,max_abs_drift,reversibility_error,wall_seconds"]
    for i in range(2):
        lines.append(",".join([str(summary.variants[i]),
                               _fmt(summary.max_abs_drift[i]),
                               _fmt(summary.reversibility[i]),
                               _fmt(summary.wall_seconds[i])]))
    lines.append(f"drift_ratio,{_fmt(summary.drift_ratio)}")
    return "\n".join(lines) + "\n"


def _comparison_table(summary):
    rows = [("variant", "max|dH|", "reversibility", "seconds")]
    for i in range(2):
        rows.append((str(summary.variants[i]),
                     f"{summary.max_abs_drift[i]:.6e}",
                     f"{summary.reversibility[i]:.6e}",
                     f"{summary.wall_seconds[i]:.2f}"))
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    out = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
           for row in rows]
    out.append(f"drift ratio ({summary.variants[1]} / {summary.variants[0]}): "
               f"{summary.drift_ratio:.6e}")
    return "\n".join(out) + "\n"


def cmd_compare(cfg):
    """Run verlet and the configured scheme on identical data, compare drift."""
    model, s0, n_steps, solver = resolve(cfg)
    variants = (SchemeVariant.VERLET, cfg.scheme)
    drifts, revs, secs = [], [], []
    for variant in variants:
        t0 = time.perf_counter()
        traj = _integrate(cfg, model, variant, s0, n_steps, solver)
        if traj.failed:
            print(f"symstep: {variant} failed at step {traj.failed_step}",
                  file=sys.stderr)
            return EXIT_SOLVER
        drift = energy_drift(traj, model)
        try:
            rev = reversibility_error(variant, model, s0, cfg.h, n_steps,
                                      solver_cfg=solver, forward=traj)
        except StepError as err:
            print(f"symstep: {variant} reversibility run failed: {err}",
                  file=sys.stderr)
            return EXIT_SOLVER
        secs.append(time.perf_counter() - t0)
        drifts.append(drift.max_abs)
        revs.append(rev)
    if drifts[0] == 0.0 and drifts[1] == 0.0:
        ratio = float("nan")
    elif drifts[0] == 0.0:
        ratio = float("inf")
    else:
        ratio = drifts[1] / drifts[0]
    summary = ComparisonSummary((str(variants[0]), str(variants[1])),
                                tuple(drifts), tuple(revs), tuple(secs), ratio)
    sys.stdout.write(_comparison_table(summary))
    csv = _comparison_csv(summary)
    try:
        if cfg.output is not None:
            _write_output(cfg.output, csv)
        else:
            sys.stdout.write("\n" + csv)
    except OSError as err:
        print(f"symstep: cannot write {cfg.output}: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_converge(cfg):
    model, s0, solver = resolve_start(cfg)
    if cfg.steps is None or len(set(cfg.steps)) < 2:
        raise ConfigError("converge needs 'steps' with at least two distinct "
                          "step sizes (e.g. steps = 0.1, 0.05)")
    reference = analytic_reference(model, s0)
    try:
        est = convergence_order(cfg.scheme, model, s0, cfg.t_end, cfg.steps,
                                reference=reference, solver_cfg=solver)
    except StepError as err:
        print(f"symstep: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as err:
        raise ConfigError(str(err)) from None
    lines = ["h,global_error"]
    for h, e in zip(est.step_sizes, est.global_errors):
        lines.append(f"{_fmt(h)},{_fmt(e)}")
    lines.append(f"order,{_fmt(est.fitted_order)}")
    try:
        _write_output(cfg.output, "\n".join(lines) + "\n")
    except OSError as err:
        print(f"symstep: cannot write {cfg.output}: {err}", file=sys.stderr)
        return EXIT_IO
    if not est.monotone:
        print("symstep: errors are not monotone in h; the reference is too "
              "coarse for these step sizes", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    return EXIT_OK


def cmd_check(cfg):
    """Derivative, reversibility, symplecticity, and energy checks; exit 0
    only if every row passes its threshold."""
    model, s0, n_steps, solver = resolve(cfg)
    rows = []

    def record(name, value, threshold, note=""):
        rows.append((name, value, threshold,
                     value is not None and bool(value <= threshold), note))

    def guarded(name, threshold, fn):
        try:
            value = fn()
        except (StepError, SingularityError, ValueError) as err:
            record(name, None, threshold, f"{type(err).__name__}: {err}")
            return None
        record(name, value, threshold)
        return value

    try:
        report = validate_derivatives(model, s0.q, cfg.fd_step)
        record("gradient-fd", report.gradient_error, 1e-6)
        record("hessian-fd", report.hessian_error, 1e-6)
    except (SingularityError, ValueError) as err:
        record("gradient-fd", None, 1e-6, f"{type(err).__name__}: {err}")
        record("hessian-fd", None, 1e-6, f"{type(err).__name__}: {err}")

    # the energy rows' run goes first, and is the reversibility check's
    # forward leg: one with too many records to allocate then ends the
    # check at once, before the backward leg integrates all of its steps
    traj = _integrate(cfg, model, cfg.scheme, s0, n_steps, solver)
    guarded("reversibility", 10.0 * n_steps * cfg.tolerance,
            lambda: reversibility_error(cfg.scheme, model, s0, cfg.h, n_steps,
                                        solver_cfg=solver, forward=traj))
    guarded("symplecticity", 1e-6,
            lambda: symplecticity_defect(cfg.scheme, model, s0, cfg.h,
                                         fd_eps=cfg.fd_eps, solver_cfg=solver))

    if traj.failed:
        note = f"solver failure at step {traj.failed_step}"
        record("energy-bounded", None, 1.5, note)
        record("energy-drift", None, 0.0, note)
    else:
        drift = energy_drift(traj, model)
        record("energy-bounded", drift.max_abs_second_half,
               1.5 * drift.max_abs_first_half)
        h0 = abs(traj.initial_energy.total)
        bound = 50.0 * cfg.h * cfg.h * max(1.0, h0)
        record("energy-drift", drift.max_abs, bound)
        if model.name == "kepler":
            ell = angular_momentum_series(traj)
            dev = float(np.max(np.abs(ell - ell[0])))
            record("angular-momentum", dev, 1e-9)

    width = max(len(r[0]) for r in rows)
    for name, value, threshold, ok, note in rows:
        status = "pass" if ok else "FAIL"
        val = "-" if value is None else f"{value:.6e}"
        line = f"{name.ljust(width)}  {val:>14}  <= {threshold:.6e}  {status}"
        if note:
            line += f"  ({note})"
        print(line)
    return EXIT_OK if all(r[3] for r in rows) else EXIT_DIAGNOSTIC


@functools.cache
def _build_parser():
    parser = _Parser(prog="symstep",
                     description="Symmetric implicit integrators for separable "
                                 "Hamiltonian systems: run, compare, converge, "
                                 "check.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (("run", cmd_run, "integrate and write trajectory CSV"),
                          ("compare", cmd_compare,
                           "verlet vs configured scheme energy-drift comparison"),
                          ("converge", cmd_converge,
                           "global-error convergence study over a step list"),
                          ("check", cmd_check,
                           "derivative/reversibility/symplecticity/energy checks")):
        p = sub.add_parser(name, help=doc)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="config file of key = value lines")
        for key in KEYS:
            p.add_argument(f"--{key}", dest=f"opt_{key}", metavar="V")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"symstep: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        mapping = {}
        if args.config is not None:
            try:
                with open(args.config, "r") as f:
                    text = f.read()
            except OSError as err:
                print(f"symstep: cannot read {args.config}: {err}",
                      file=sys.stderr)
                return EXIT_IO
            mapping = parse_lines(text)
        for key in KEYS:
            value = getattr(args, f"opt_{key}")
            if value is not None:
                mapping[key] = (value, None)
        cfg = build_config(mapping)
        return args.fn(cfg)
    except ConfigError as err:
        print(f"symstep: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
