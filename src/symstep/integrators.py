"""One-step maps and the trajectory driver.

Two families of integrators are provided for separable Hamiltonians
H = p^T M^{-1} p / 2 + V(q):

* ``verlet`` -- the explicit velocity Verlet map (half kick, drift, half
  kick), second order, symplectic, time-symmetric.

* the ``s3`` family -- an implicit symmetric scheme built from a two-point
  action: a step solves one vector equation for the new position x and then
  evaluates an explicit momentum relation.  With a = q_k, p = p_k,
  D = x - a, g = grad V, Hs = Hessian of V, and a coefficient triple
  (ca, cx, cb), the position equation and momentum update are

      R(x) = M D / h + (h/12)(ca g(a) + cx g(x)) + (h/12) cb Hs(a) D - p = 0
      p'   = M D / h + (h/12)(-cx g(a) - ca g(x)) + (h/12) cb Hs(x) D

  The three shipped variants differ only in the triple:

      s3-printed     (ca, cx, cb) = (-5, -1, -1)
      s3-generating  (ca, cx, cb) = (+7, -1, -1)
      s3-corrected   (ca, cx, cb) = (+5, +1, +1)

  Every variant is exactly symplectic (each is generated by a scalar
  two-point action, see :func:`step_action`) and self-adjoint: swapping the
  roles of the endpoints and negating h maps the pair of relations onto
  itself, which is visible above as the coefficient swap (ca, cx) ->
  (-cx, -ca) between R and p'.  s3-corrected and s3-generating track the
  flow of H; s3-printed is the corrected map applied to -V, so it conserves
  kinetic MINUS potential energy instead of H and is shipped as an
  executable witness of that sign behaviour (the diagnostics suite measures
  it).  Newton on R converges in one iteration for quadratic potentials
  since R is then affine.
"""

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .models import PhaseState, SingularityError, hamiltonian_energy
from .solvers import (CAUSE_MAX_ITERATIONS, CAUSE_NON_FINITE,
                      CAUSE_SINGULAR_JACOBIAN, IDENTITY_REPORT, SolverConfig,
                      SolverReport, solve_fixed_point, solve_newton)


class SchemeVariant(str, enum.Enum):
    VERLET = "verlet"
    S3_PRINTED = "s3-printed"
    S3_GENERATING = "s3-generating"
    S3_CORRECTED = "s3-corrected"

    def __str__(self):
        return self.value


_S3_COEFFS = {
    SchemeVariant.S3_PRINTED: (-5.0, -1.0, -1.0),
    SchemeVariant.S3_GENERATING: (7.0, -1.0, -1.0),
    SchemeVariant.S3_CORRECTED: (5.0, 1.0, 1.0),
}

# scalar action S(a, x): kinetic + sv*(h/2)(V(a)+V(x)) + sg*(h/12)(g(x)-g(a)).D
_S3_ACTION_SIGNS = {
    SchemeVariant.S3_PRINTED: (1.0, -1.0),
    SchemeVariant.S3_GENERATING: (-1.0, -1.0),
    SchemeVariant.S3_CORRECTED: (-1.0, 1.0),
}

_KERNEL_CAUSE = {
    kernels.STATUS_OK: "",
    kernels.STATUS_MAX_ITERATIONS: CAUSE_MAX_ITERATIONS,
    kernels.STATUS_SINGULAR_JACOBIAN: CAUSE_SINGULAR_JACOBIAN,
    kernels.STATUS_NON_FINITE: CAUSE_NON_FINITE,
}


def as_variant(variant) -> SchemeVariant:
    if isinstance(variant, SchemeVariant):
        return variant
    try:
        return SchemeVariant(str(variant))
    except ValueError:
        names = ", ".join(v.value for v in SchemeVariant)
        raise ValueError(f"unknown scheme variant {variant!r} (choose {names})") from None


class StepError(RuntimeError):
    """A one-step map failed; carries the solver report of the failed solve."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class StepResult:
    state: PhaseState
    solver: SolverReport


@dataclass
class Trajectory:
    """Recorded states of one run: the initial state plus every
    record_stride-th step, stored as (n_records, d) arrays."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    model_name: str
    variant: SchemeVariant
    h: float
    record_stride: int
    initial_energy: object
    failed: bool = False
    failed_step: Optional[int] = None
    failure: Optional[SolverReport] = None

    def __len__(self):
        return len(self.times)

    @property
    def states(self):
        return [PhaseState(self.q[i], self.p[i]) for i in range(len(self.times))]

    def final_state(self):
        return PhaseState(self.q[-1], self.p[-1])


def _check_h(h):
    h = float(h)
    if h == 0.0 or not np.isfinite(h):
        raise ValueError("step size h must be finite and nonzero")
    return h


def _check_state(model, s):
    if s.dimension != model.dimension:
        raise ValueError(
            f"state dimension {s.dimension} != model dimension {model.dimension}")


def verlet_step(model, s, h):
    """One velocity Verlet step: p -= h/2 g(a); x = a + h p/M; p -= h/2 g(x)."""
    h = _check_h(h)
    _check_state(model, s)
    if model.kind >= 0:
        x, pn = kernels.verlet_step_kernel(model.kind, model.kernel_params,
                                           model.mass, s.q, s.p, h)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(pn))):
            # rerun through the model wrapper so the offending gradient
            # evaluation surfaces as a SingularityError
            ph = s.p - 0.5 * h * model.gradient(s.q)
            model.gradient(s.q + h * ph / model.mass)
            raise StepError("verlet step produced a non-finite state")
    else:
        ph = s.p - 0.5 * h * model.gradient(s.q)
        x = s.q + h * ph / model.mass
        pn = ph - 0.5 * h * model.gradient(x)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(pn))):
            raise StepError("verlet step produced a non-finite state")
    return StepResult(PhaseState(x, pn), IDENTITY_REPORT)


def _require_s3(variant):
    variant = as_variant(variant)
    if variant is SchemeVariant.VERLET:
        raise ValueError("verlet is explicit; this operation needs an s3-* variant")
    return variant


def build_step_system(variant, model, s, h):
    """Residual and analytic Jacobian of the implicit position equation,
    as closures over the frozen step data (start state, g(a), Hs(a))."""
    variant = _require_s3(variant)
    h = _check_h(h)
    _check_state(model, s)
    ca, cx, cb = _S3_COEFFS[variant]
    a, p, m = s.q, s.p, model.mass
    ga = model.gradient(a)
    Ha = model.hessian(a)
    c = h / 12.0

    def residual(x):
        x = np.asarray(x, dtype=np.float64)
        delta = x - a
        return (m * delta / h + c * (ca * ga + cx * model.gradient(x))
                + c * cb * (Ha @ delta) - p)

    def jacobian(x):
        x = np.asarray(x, dtype=np.float64)
        return np.diag(m / h) + c * (cx * model.hessian(x) + cb * Ha)

    return residual, jacobian


def s3_momentum_update(variant, model, a, x, h):
    """Explicit momentum relation evaluated at the solved position x."""
    variant = _require_s3(variant)
    h = _check_h(h)
    ca, cx, cb = _S3_COEFFS[variant]
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if model.kind >= 0:
        consts = kernels.s3_constants(model.mass, h, ca, cx, cb)
        return kernels.s3_momentum_kernel(model.kind, model.kernel_params,
                                          consts, a, x)
    delta = x - a
    c = h / 12.0
    return (model.mass * delta / h
            + c * (-cx * model.gradient(a) - ca * model.gradient(x))
            + c * cb * (model.hessian(x) @ delta))


def step_action(variant, model, a, x, h):
    """Scalar two-point action S(a, x) generating the variant.

    S = D^T M D / (2h) + sv (h/2)(V(a) + V(x)) + sg (h/12)(g(x) - g(a)).D
    with variant signs (sv, sg); the step relations are p = -dS/da and
    p' = +dS/dx.  Used as a finite-difference cross-check of the residual
    and momentum formulas, nothing else.
    """
    variant = _require_s3(variant)
    h = _check_h(h)
    sv, sg = _S3_ACTION_SIGNS[variant]
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    delta = x - a
    kinetic = float(delta @ (model.mass * delta)) / (2.0 * h)
    pot = sv * 0.5 * h * (model.value(a) + model.value(x))
    corr = sg * (h / 12.0) * float((model.gradient(x) - model.gradient(a)) @ delta)
    return kinetic + pot + corr


def _predictor(model, s, h):
    return s.q + h * s.p / model.mass - 0.5 * h * h * model.gradient(s.q) / model.mass


def s3_step(variant, model, s, h, solver_cfg=None):
    """One implicit step: solve the position equation (Newton by default,
    starting from the Verlet predictor), then update the momentum.

    Raises StepError carrying the SolverReport when the solve fails.
    """
    variant = _require_s3(variant)
    h = _check_h(h)
    _check_state(model, s)
    cfg = solver_cfg if solver_cfg is not None else SolverConfig()
    ca, cx, cb = _S3_COEFFS[variant]

    if model.kind >= 0 and cfg.method == "newton":
        consts = kernels.s3_constants(model.mass, h, ca, cx, cb)
        x, pn, status, iters, rnorm = kernels.s3_step_kernel(
            model.kind, model.kernel_params, consts, s.q, s.p, h,
            cfg.tolerance, cfg.max_iterations)
        report = SolverReport(status == kernels.STATUS_OK, int(iters),
                              float(rnorm), _KERNEL_CAUSE[int(status)])
        if status != kernels.STATUS_OK:
            if status == kernels.STATUS_NON_FINITE:
                model.gradient(s.q)  # singular start -> SingularityError
            raise StepError(
                f"implicit step failed ({report.cause}) after "
                f"{report.iterations} iterations, residual "
                f"{report.final_residual_norm:.3e}", report)
        return StepResult(PhaseState(x, pn), report)

    residual, jacobian = build_step_system(variant, model, s, h)
    x0 = _predictor(model, s, h)
    if cfg.method == "newton":
        x, report = solve_newton(residual, jacobian, x0, cfg)
    else:
        a, p, m = s.q, s.p, model.mass
        ga = model.gradient(a)
        Ha = model.hessian(a)
        cc = h * h / 12.0

        def fp_map(x):
            delta = np.asarray(x, dtype=np.float64) - a
            force = ca * ga + cx * model.gradient(x) + cb * (Ha @ delta)
            return a + h * p / m - cc * force / m

        x, report = solve_fixed_point(fp_map, x0, cfg)
    if not report.converged:
        raise StepError(
            f"implicit step failed ({report.cause}) after {report.iterations} "
            f"iterations, residual {report.final_residual_norm:.3e}", report)
    pn = s3_momentum_update(variant, model, s.q, x, h)
    if not np.all(np.isfinite(pn)):
        raise StepError("momentum update produced a non-finite value", report)
    return StepResult(PhaseState(x, pn), report)


def step(variant, model, s, h, solver_cfg=None):
    """Dispatch one step of any variant."""
    variant = as_variant(variant)
    if variant is SchemeVariant.VERLET:
        return verlet_step(model, s, h)
    return s3_step(variant, model, s, h, solver_cfg)


def integrate(model, variant, s0, h, n_steps, record_stride=1, solver_cfg=None):
    """Apply the one-step map n_steps times from s0, recording the initial
    state and every record_stride-th state.

    n_steps must be a positive multiple of record_stride so records stay
    uniformly spaced.  h may be negative (backward integration).  On a step
    failure the partial trajectory is returned with failed=True and the
    1-based index of the failing step; no exception is raised here.
    """
    variant = as_variant(variant)
    h = _check_h(h)
    _check_state(model, s0)
    n_steps = int(n_steps)
    record_stride = int(record_stride)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    if n_steps % record_stride != 0:
        raise ValueError("n_steps must be a multiple of record_stride")
    cfg = solver_cfg if solver_cfg is not None else SolverConfig()
    e0 = hamiltonian_energy(model, s0)

    fast = model.kind >= 0 and (
        variant is SchemeVariant.VERLET or cfg.method == "newton")
    if fast:
        if variant is SchemeVariant.VERLET:
            Q, P, rec, fstep, status, iters, rnorm = kernels.run_verlet_kernel(
                model.kind, model.kernel_params, model.mass, s0.q, s0.p, h,
                n_steps, record_stride)
        else:
            ca, cx, cb = _S3_COEFFS[variant]
            Q, P, rec, fstep, status, iters, rnorm = kernels.run_s3_kernel(
                model.kind, model.kernel_params, model.mass, s0.q, s0.p, h,
                n_steps, record_stride, ca, cx, cb,
                cfg.tolerance, cfg.max_iterations)
        failed = fstep > 0
        failure = None
        if failed:
            failure = SolverReport(False, int(iters), float(rnorm),
                                   _KERNEL_CAUSE[int(status)])
        Q = Q[:rec + 1].copy()
        P = P[:rec + 1].copy()
    else:
        qs = [s0.q]
        ps = [s0.p]
        s = s0
        failed = False
        fstep = 0
        failure = None
        for k in range(1, n_steps + 1):
            try:
                res = step(variant, model, s, h, cfg)
            except StepError as err:
                failed, fstep, failure = True, k, err.report
                break
            except SingularityError:
                failed, fstep = True, k
                failure = SolverReport(False, 0, np.inf, CAUSE_NON_FINITE)
                break
            s = res.state
            if k % record_stride == 0:
                qs.append(s.q)
                ps.append(s.p)
        Q = np.vstack(qs)
        P = np.vstack(ps)
    times = np.arange(Q.shape[0]) * (h * record_stride)
    return Trajectory(times, Q, P, model.name, variant, h, record_stride, e0,
                      failed, fstep if failed else None, failure)
