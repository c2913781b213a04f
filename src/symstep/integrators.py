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

  Each variant is fixed by the two signs (sv, sg) of the action S(a, x)
  that generates it (:func:`step_action`): p = -dS/da and p' = dS/dx give
  (ca, cx, cb) = (-6 sv - sg, sg, sg), with (sv, sg) = (+1, -1) for
  s3-printed, (-1, -1) for s3-generating and (-1, +1) for s3-corrected.
  Velocity Verlet is the (-1, 0) member, (ca, cx, cb) = (6, 0, 0).

  Every variant is therefore exactly symplectic and self-adjoint: swapping
  the roles of the endpoints and negating h maps the pair of relations onto
  itself, which is visible above as the coefficient swap (ca, cx) ->
  (-cx, -ca) between R and p'.  s3-corrected and s3-generating track the
  flow of H; s3-printed is the corrected map applied to -V, so it conserves
  kinetic MINUS potential energy instead of H and is shipped as an
  executable witness of that sign behaviour (the diagnostics suite measures
  it).

Every model, built-in or custom, runs on one engine.  A scheme object built
once per call (or per ``integrate`` run) holds the per-run constants and
steps through the model's ``_gradient``/``_hessian`` hooks.  The implicit
scheme is written once: it takes its vector work from ARRAY_STEP, on numpy
arrays at any d, or FLOAT_STEP, on Python floats at d <= 2 (the hooks still
get arrays), as the Newton loop takes its own from ARRAY_OPS or FLOAT_OPS,
and ``model.dimension <= 2`` chooses the float sets.  An implicit step
runs the one Newton loop (solvers.newton_loop) from x = a, where R(a) =
(h/12)(ca + cx) g(a) - p needs no new evaluation, with J(a) = M/h + (h/12)
(cb + cx) Hs(a) inverted once and kept while the residual at least halves
per update; its first update is exact when R is affine (quadratic
potentials) and O(h^4) accurate otherwise.  The momentum update reuses the
residual's last g(x), and a trajectory reuses each step's end evaluations
as the next step's start: a step with k updates makes k gradient and 1
Hessian evaluation and one inversion of J(a), plus one Hessian and
inversion per refresh.  The public build_step_system and
s3_momentum_update run on ARRAY_STEP at every d and check their evaluation
points; only step and integrate choose the float sets.
"""

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .models import PhaseState, SingularityError, as_count, hamiltonian_energy
from .solvers import (ARRAY_OPS, CAUSE_NON_FINITE, FLOAT_OPS, IDENTITY_REPORT,
                      SolverConfig, SolverReport, newton_loop)


class SchemeVariant(str, enum.Enum):
    VERLET = "verlet"
    S3_PRINTED = "s3-printed"
    S3_GENERATING = "s3-generating"
    S3_CORRECTED = "s3-corrected"

    def __str__(self):
        return self.value


# the action signs (sv, sg) of each s3 variant (module docstring)
_S3_SIGNS = {
    SchemeVariant.S3_PRINTED: (1.0, -1.0),
    SchemeVariant.S3_GENERATING: (-1.0, -1.0),
    SchemeVariant.S3_CORRECTED: (-1.0, 1.0),
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


def _vector(v):
    """v as a float64 array: the form Verlet and the array step work in."""
    return np.asarray(v, dtype=np.float64)


def _finite(v):
    """Whether every entry of the vector v is finite; at the small d of most
    models this costs a fraction of ``np.isfinite(v).all()``."""
    return all(map(math.isfinite, v.tolist()))


_NON_FINITE = SolverReport(False, 0, np.inf, CAUSE_NON_FINITE)


class _Verlet:
    """Velocity Verlet on one model at step h.

    Each scheme object has three methods.  ``form(v)`` returns the vector v
    in the form the scheme steps.  ``start(q)`` returns the validated
    evaluations ``ev`` that a step needs at its start state.  ``advance(q,
    p, ev)`` takes one step on vectors in that form through the model's
    hooks and returns (x, p', ev at x, report), so the next step reuses them.
    """

    form = staticmethod(_vector)

    def __init__(self, model, h):
        self.model = model
        self.h = h

    def start(self, q):
        return self.model.gradient(q)

    def advance(self, q, p, g):
        """p -= h/2 g(a); x = a + h p/M; p -= h/2 g(x)."""
        h, model = self.h, self.model
        ph = p - 0.5 * h * g
        x = q + h * ph / model.mass
        gx = model._gradient(x)
        pn = ph - 0.5 * h * gx
        if not (_finite(x) and _finite(pn)):
            model.gradient(x)  # a singular x surfaces as SingularityError
            raise StepError("verlet step produced a non-finite state", _NON_FINITE)
        return x, pn, gx, IDENTITY_REPORT


def _fhooks(model):
    """The model's hooks on lists of floats: arrays in, flat lists out."""
    gradient, hessian = model._gradient, model._hessian
    return (lambda x: gradient(np.array(x)).tolist(),
            lambda x: hessian(np.array(x)).ravel().tolist())


def _fresidual(J, x, a, c, g, b):
    """J (x - a) + c g + b at d <= 2, J as the flat list of its rows."""
    if len(x) == 1:
        return (J[0] * (x[0] - a[0]) + c * g[0] + b[0],)
    u0, u1 = x[0] - a[0], x[1] - a[1]
    return (J[0] * u0 + J[1] * u1 + c * g[0] + b[0],
            J[2] * u0 + J[3] * u1 + c * g[1] + b[1])


def _fmomentum(J, x, a, c, g, e, w):
    """J (x - a) - (c g + e w) at d <= 2, J as the flat list of its rows."""
    if len(x) == 1:
        return (J[0] * (x[0] - a[0]) - (c * g[0] + e * w[0]),)
    u0, u1 = x[0] - a[0], x[1] - a[1]
    return (J[0] * u0 + J[1] * u1 - (c * g[0] + e * w[0]),
            J[2] * u0 + J[3] * u1 - (c * g[1] + e * w[1]))


# The implicit step's vector work: v in the step's form (a matrix flat on
# floats), the hooks in that form, c u + v, c u - v, R = J0 (x - a) + c g +
# b, p' = J0 (x - a) - (c g + e w), whether every entry is finite, and the
# loop's ops.  FLOAT_STEP rounds as ARRAY_STEP does, except where BLAS fuses
# a multiply-add in a matrix-vector product.
ARRAY_STEP = (_vector, lambda model: (model._gradient, model._hessian),
              lambda c, u, v: c * u + v, lambda c, u, v: c * u - v,
              lambda J, x, a, c, g, b: J.dot(x - a) + c * g + b,
              lambda J, x, a, c, g, e, w: J.dot(x - a) - (c * g + e * w),
              _finite, ARRAY_OPS)
FLOAT_STEP = (lambda v: _vector(v).ravel().tolist(), _fhooks,
              lambda c, u, v: [c * s + t for s, t in zip(u, v)],
              lambda c, u, v: [c * s - t for s, t in zip(u, v)],
              _fresidual, _fmomentum, lambda v: all(map(math.isfinite, v)), FLOAT_OPS)


class _Implicit:
    """One s3 variant on one model at step h, on the vector work of ARRAY_STEP
    or FLOAT_STEP.  It holds diag(M/h) and (h/12)(ca, cx, cb); its ``ev`` is
    (g, Hs, J0 = M/h + (h/12) cb Hs) at the start state (see
    :class:`_Verlet`).  The momentum update forms J0 at x, and the next step
    reuses it in R and in J(a) = J0 + (h/12) cx Hs(a).  The residual keeps
    its last (x, g(x)) in ``_residual_at`` for the momentum update."""

    def __init__(self, variant, model, h, cfg, step_set):
        sv, sg = _S3_SIGNS[variant]
        ca, cx, cb = -6.0 * sv - sg, sg, sg
        c = h / 12.0
        self.model = model
        self.cfg = cfg if cfg is not None else SolverConfig()
        (self.form, hooks, self.axpy, self.axmy, self.R, self.P, self.finite,
         self.ops) = step_set
        self.hooks = hooks(model)
        self.Mh = self.form(np.diag(model.mass / h))
        self.cca, self.ccx, self.ccb = c * ca, c * cx, c * cb
        self._residual_at = None, None

    def start(self, q):
        g, H = self.form(self.model.gradient(q)), self.form(self.model.hessian(q))
        return g, H, self.axpy(self.ccb, H, self.Mh)

    def system(self, a, p, ga, Ha, J0, gradient, hessian):
        """R(x) = J0 (x - a) + (h/12) cx g(x) + (h/12) ca g(a) - p, with J0 =
        M/h + (h/12) cb Hs(a), and its Jacobian as closures through the given
        g and Hs, plus R(a) and J(a)."""
        ccx, R, axpy = self.ccx, self.R, self.axpy
        base = self.axmy(self.cca, ga, p)

        def residual(x):
            g = gradient(x)
            self._residual_at = x, g
            return R(J0, x, a, ccx, g, base)

        def jacobian(x):
            return axpy(ccx, hessian(x), J0)

        return residual, jacobian, self.axmy(self.cca + ccx, ga, p), axpy(ccx, Ha, J0)

    def momentum(self, a, x, ga, gx=None):
        """p' and the evaluations (g, Hs, M/h + (h/12) cb Hs) at x, which
        are the next step's start; it evaluates Hs(x), and g(x) when not
        given."""
        gradient, hessian = self.hooks
        if gx is None:
            gx = gradient(x)
        Hx = hessian(x)
        J0 = self.axpy(self.ccb, Hx, self.Mh)
        return self.P(J0, x, a, self.ccx, ga, self.cca, gx), (gx, Hx, J0)

    def advance(self, a, p, ev):
        # from x = a, with r0 = R(a) and j0 = J(a) (module docstring)
        residual, jacobian, r0, j0 = self.system(a, p, *ev, *self.hooks)
        x, report = newton_loop(residual, jacobian, a, self.cfg, r0, j0, self.ops)
        if not report.converged:
            raise StepError(
                f"implicit step failed ({report.cause}) after {report.iterations} "
                f"iterations, residual {report.final_residual_norm:.3e}", report)
        # Newton returns the iterate its last residual was evaluated at,
        # so g(x) is known, except for a start x = a that needs no update:
        # its residual came from r0 and never reached the closure
        x_r, g_r = self._residual_at
        self._residual_at = None, None
        pn, ev = self.momentum(a, x, ev[0], g_r if x is x_r else None)
        if not self.finite(pn):
            raise StepError("momentum update produced a non-finite value",
                            replace(report, converged=False, cause=CAUSE_NON_FINITE))
        return x, pn, ev, report


def _scheme(variant, model, h, cfg=None):
    if variant is SchemeVariant.VERLET:
        return _Verlet(model, h)
    return _Implicit(variant, model, h, cfg,
                     FLOAT_STEP if model.dimension <= 2 else ARRAY_STEP)


def _require_s3(variant):
    variant = as_variant(variant)
    if variant is SchemeVariant.VERLET:
        raise ValueError("verlet is explicit; this operation needs an s3-* variant")
    return variant


def build_step_system(variant, model, s, h):
    """Residual and analytic Jacobian of the implicit position equation, as
    closures over the frozen step data (start state, g(a), Hs(a)) that
    compute as the array step does and check x like any evaluation point."""
    scheme = _Implicit(_require_s3(variant), model, _check_h(h), None, ARRAY_STEP)
    _check_state(model, s)
    return scheme.system(s.q, s.p, *scheme.start(s.q), model.gradient, model.hessian)[:2]


def s3_momentum_update(variant, model, a, x, h):
    """Explicit momentum relation evaluated at the solved position x, as the
    array step computes it; a and x are validated like any evaluation point
    (wrong length: ValueError, singular: SingularityError)."""
    scheme = _Implicit(_require_s3(variant), model, _check_h(h), None, ARRAY_STEP)
    a, x = map(scheme.form, (a, x))
    return scheme.momentum(a, x, model.gradient(a), model.gradient(x))[0]


def step_action(variant, model, a, x, h):
    """Scalar two-point action S(a, x) generating the variant.

    S = D^T M D / (2h) + sv (h/2)(V(a) + V(x)) + sg (h/12)(g(x) - g(a)).D
    with variant signs (sv, sg); the step relations are p = -dS/da and
    p' = +dS/dx.  Used as a finite-difference cross-check of the residual
    and momentum formulas, nothing else.
    """
    variant = _require_s3(variant)
    h = _check_h(h)
    sv, sg = _S3_SIGNS[variant]
    a, x = map(_vector, (a, x))
    delta = x - a
    kinetic = float(delta @ (model.mass * delta)) / (2.0 * h)
    pot = sv * 0.5 * h * (model.value(a) + model.value(x))
    corr = sg * (h / 12.0) * float((model.gradient(x) - model.gradient(a)) @ delta)
    return kinetic + pot + corr


def step(variant, model, s, h, solver_cfg=None):
    """One step of any variant: velocity Verlet, or an implicit step that
    solves the position equation (Newton from the start point, keeping J
    while it contracts) and then updates the momentum.

    Raises StepError carrying the SolverReport when the solve fails.
    """
    scheme = _scheme(as_variant(variant), model, _check_h(h), solver_cfg)
    _check_state(model, s)
    q = scheme.form(s.q)
    x, pn, _, report = scheme.advance(q, scheme.form(s.p), scheme.start(q))
    return StepResult(PhaseState(x, pn), report)


def integrate(model, variant, s0, h, n_steps, record_stride=1, solver_cfg=None):
    """Apply the one-step map n_steps times from s0, recording the initial
    state and every record_stride-th state.

    n_steps must be a multiple of record_stride so records stay uniformly
    spaced, and both integers >= 1 (10.0 is one, 10.7 is not); a record
    buffer too large to allocate is a ValueError.  h may be negative
    (backward integration).  On a step failure the partial trajectory is
    returned with failed=True and the 1-based index of the failing step; no
    exception is raised here.  A singular start fails at step 1 and has no
    initial_energy (None).
    """
    variant = as_variant(variant)
    h = _check_h(h)
    _check_state(model, s0)
    n_steps = as_count(n_steps, "n_steps")
    record_stride = as_count(record_stride, "record_stride")
    if n_steps % record_stride != 0:
        raise ValueError("n_steps must be a multiple of record_stride")
    n_records = n_steps // record_stride + 1
    try:
        Q = np.empty((n_records, model.dimension))
        P = np.empty_like(Q)
    except (ValueError, MemoryError):
        # numpy refuses such a shape, or its allocation, without allocating
        raise ValueError(f"{n_records} records of dimension {model.dimension} "
                         "are too many to allocate") from None
    scheme = _scheme(variant, model, h, solver_cfg)
    q, p = scheme.form(s0.q), scheme.form(s0.p)
    Q[0], P[0] = q, p
    rec, k, e0, failure = 0, 1, None, None
    try:
        e0 = hamiltonian_energy(model, s0)
        ev = scheme.start(q)
        for k in range(1, n_steps + 1):
            q, p, ev, _ = scheme.advance(q, p, ev)
            if k % record_stride == 0:
                rec += 1
                Q[rec] = q
                P[rec] = p
    except StepError as err:
        failure = err.report
    except SingularityError:
        failure = _NON_FINITE
    if failure is not None:
        Q, P = Q[:rec + 1].copy(), P[:rec + 1].copy()
    times = np.arange(Q.shape[0]) * (h * record_stride)
    return Trajectory(times, Q, P, model.name, variant, h, record_stride, e0,
                      failure is not None, k if failure is not None else None,
                      failure)
