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
  it).

Every model, built-in or custom, runs on one engine.  A scheme object built
once per call (or per ``integrate`` run) holds the per-run constants and
steps raw arrays through the model's ``_gradient``/``_hessian`` hooks; each
implicit step solves through :func:`solve_newton`.  It starts at x = a,
where R(a) = (h/12)(ca + cx) g(a) - p needs no new evaluation, with
J(a) = M/h + (h/12)(cb + cx) Hs(a) inverted once (on Python floats at d <= 2;
see solvers._minus_inverse) and kept while the residual at least halves per
update.  Its first update is exact when R is affine (quadratic potentials)
and O(h^4) accurate otherwise, and it stops only once x is at round-off.
An update that does not halve the residual re-inverts J, and a residual
stalled at its round-off floor above the tolerance fails the step at once
(see :func:`solve_newton`).  The momentum update reuses the g(x) that the
residual computed at the last iterate, and a trajectory reuses each step's
end evaluations as the next step's start, so an implicit step with k
updates makes k gradient and 1 Hessian evaluation and one inversion of
J(a), and one more Hessian and inversion per refresh.  The public functions
check the state and the hooks' output at the start state only.
"""

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .models import PhaseState, SingularityError, hamiltonian_energy
from .solvers import (CAUSE_NON_FINITE, IDENTITY_REPORT, SolverConfig,
                      SolverReport, solve_newton)


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


def _finite(v):
    """Whether every entry of the vector v is finite; at the small d of most
    models this costs a fraction of ``np.isfinite(v).all()``."""
    return all(map(math.isfinite, v.tolist()))


_NON_FINITE = SolverReport(False, 0, np.inf, CAUSE_NON_FINITE)


class _Verlet:
    """Velocity Verlet on one model at step h.

    Each scheme object has two methods.  ``start(q)`` returns the validated
    evaluations ``ev`` that a step needs at its start state.  ``advance(q,
    p, ev)`` takes one step on raw arrays through the model's hooks and
    returns (x, p', ev at x, report), so the next step reuses them.
    """

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


class _Implicit:
    """One s3 variant on one model at step h.  It holds the per-run
    constants diag(M/h) and (h/12)(ca, cx, cb), and its ``ev`` is
    (g, Hs, J0 = M/h + (h/12) cb Hs) at the start state (see
    :class:`_Verlet`): the momentum update forms J0 at x, and the next step
    reuses it in R and in J(a) = J0 + (h/12) cx Hs(a).  Within a step, the
    residual keeps its last (x, g(x)) in ``_residual_at`` for the momentum
    update."""

    def __init__(self, variant, model, h, cfg=None):
        ca, cx, cb = _S3_COEFFS[variant]
        c = h / 12.0
        self.model = model
        self.cfg = cfg if cfg is not None else SolverConfig()
        self.Mh = np.diag(model.mass / h)
        self.cca, self.ccx, self.ccb = c * ca, c * cx, c * cb
        self._residual_at = None, None

    def start(self, q):
        g, H = self.model.gradient(q), self.model.hessian(q)
        return g, H, self.Mh + self.ccb * H

    def system(self, a, p, ga, J0):
        """Residual and Jacobian of the position equation,
        R(x) = J0 (x - a) + (h/12) cx g(x) + (h/12) ca g(a) - p with
        J0 = M/h + (h/12) cb Hs(a)."""
        base = self.cca * ga - p
        ccx, model = self.ccx, self.model

        def residual(x):
            g = model._gradient(x)
            self._residual_at = x, g
            return J0.dot(x - a) + ccx * g + base

        def jacobian(x):
            return J0 + ccx * model._hessian(x)

        return residual, jacobian

    def momentum(self, a, x, ga, gx=None):
        """p' and the evaluations (g, Hs, M/h + (h/12) cb Hs) at x, which
        are the next step's start; it evaluates Hs(x), and g(x) when not
        given."""
        if gx is None:
            gx = self.model._gradient(x)
        Hx = self.model._hessian(x)
        J0 = self.Mh + self.ccb * Hx
        pn = J0.dot(x - a) - (self.ccx * ga + self.cca * gx)
        return pn, (gx, Hx, J0)

    def advance(self, a, p, ev):
        ga, Ha, J0 = ev
        residual, jacobian = self.system(a, p, ga, J0)
        # from x = a, with j0 = J(a) (module docstring)
        x, report = solve_newton(residual, jacobian, a, self.cfg,
                                 r0=(self.cca + self.ccx) * ga - p,
                                 j0=J0 + self.ccx * Ha)
        if not report.converged:
            raise StepError(
                f"implicit step failed ({report.cause}) after {report.iterations} "
                f"iterations, residual {report.final_residual_norm:.3e}", report)
        # Newton returns the iterate its last residual was evaluated at,
        # so g(x) is known, except for a start x = a that needs no update:
        # its residual came from r0 and never reached the closure
        x_r, g_r = self._residual_at
        self._residual_at = None, None
        pn, ev = self.momentum(a, x, ga, g_r if x is x_r else None)
        if not _finite(pn):
            raise StepError("momentum update produced a non-finite value",
                            replace(report, converged=False, cause=CAUSE_NON_FINITE))
        return x, pn, ev, report


def _scheme(variant, model, h, cfg):
    if variant is SchemeVariant.VERLET:
        return _Verlet(model, h)
    return _Implicit(variant, model, h, cfg)


def verlet_step(model, s, h):
    """One velocity Verlet step: p -= h/2 g(a); x = a + h p/M; p -= h/2 g(x)."""
    return step(SchemeVariant.VERLET, model, s, h)


def _require_s3(variant):
    variant = as_variant(variant)
    if variant is SchemeVariant.VERLET:
        raise ValueError("verlet is explicit; this operation needs an s3-* variant")
    return variant


def build_step_system(variant, model, s, h):
    """Residual and analytic Jacobian of the implicit position equation,
    as closures over the frozen step data (start state, g(a), Hs(a))."""
    scheme = _Implicit(_require_s3(variant), model, _check_h(h))
    _check_state(model, s)
    ga, _, J0 = scheme.start(s.q)
    return scheme.system(s.q, s.p, ga, J0)


def s3_momentum_update(variant, model, a, x, h):
    """Explicit momentum relation evaluated at the solved position x."""
    scheme = _Implicit(_require_s3(variant), model, _check_h(h))
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return scheme.momentum(a, x, model.gradient(a))[0]


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


def s3_step(variant, model, s, h, solver_cfg=None):
    """One implicit step: solve the position equation (Newton from the start
    point, keeping J while it contracts), then update the momentum.

    Raises StepError carrying the SolverReport when the solve fails.
    """
    return step(_require_s3(variant), model, s, h, solver_cfg)


def step(variant, model, s, h, solver_cfg=None):
    """One step of any variant."""
    scheme = _scheme(as_variant(variant), model, _check_h(h), solver_cfg)
    _check_state(model, s)
    x, pn, _, report = scheme.advance(s.q, s.p, scheme.start(s.q))
    return StepResult(PhaseState(x, pn), report)


def integrate(model, variant, s0, h, n_steps, record_stride=1, solver_cfg=None):
    """Apply the one-step map n_steps times from s0, recording the initial
    state and every record_stride-th state.

    n_steps must be a positive multiple of record_stride so records stay
    uniformly spaced; a record buffer too large to allocate is a ValueError.
    h may be negative (backward integration).  On a step
    failure the partial trajectory is returned with failed=True and the
    1-based index of the failing step; no exception is raised here.  A
    singular start fails at step 1 and has no initial_energy (None).
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
    n_records = n_steps // record_stride + 1
    try:
        Q = np.empty((n_records, model.dimension))
        P = np.empty_like(Q)
    except (ValueError, MemoryError):
        # numpy refuses such a shape, or its allocation, without allocating
        raise ValueError(f"{n_records} records of dimension {model.dimension} "
                         "are too many to allocate") from None
    scheme = _scheme(variant, model, h, solver_cfg)
    q, p = s0.q, s0.p
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
