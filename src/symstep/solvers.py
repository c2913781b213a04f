"""The Newton solver for the per-step implicit equation.

It takes closures (the residual and its Jacobian) and is the one solve
loop of the package: every implicit step, of every model, runs through it,
on numpy arrays, or at d <= 2 on Python floats.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

CAUSE_OK = ""
CAUSE_MAX_ITERATIONS = "max_iterations"
CAUSE_SINGULAR_JACOBIAN = "singular_jacobian"
CAUSE_NON_FINITE = "non_finite"
CAUSE_RESIDUAL_FLOOR = "residual_floor"

# A Jacobian of order >= NEUMANN_MIN_D whose off-diagonal rows sum to at
# most NEUMANN_MAX_COUPLING of their diagonal entry is inverted by one
# Jacobi-Neumann term instead of LAPACK (see _minus_inverse).
NEUMANN_MIN_D = 16
NEUMANN_MAX_COUPLING = 1e-2


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-13
    max_iterations: int = 50

    def __post_init__(self):
        if not (self.tolerance > 0):
            raise ValueError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class SolverReport:
    converged: bool
    iterations: int
    final_residual_norm: float
    cause: str = CAUSE_OK


IDENTITY_REPORT = SolverReport(True, 0, 0.0)


def _fnorm(t):
    """||t||_inf of floats t, bit for bit numpy's; 0 if t is empty."""
    if t and math.isfinite(sum(t)):     # so no entry is NaN or inf
        return max(map(abs, t))
    return float(abs(np.array(t)).max()) if t else 0.0


def _norm(v):
    """||v||_inf of an array, on Python floats at up to 16 entries."""
    return _fnorm(v.tolist()) if len(v) <= 16 else float(abs(v).max())


def _fminus_inverse(J):
    """-J^-1 of a J of order 1 or 2 as its flat rows, or None if J is singular:
    LAPACK's own steps (LU, reciprocal pivots) on floats, unless a row exchange
    or a subnormal, NaN or round-off pivot leaves it to numpy.linalg.inv."""
    if len(J) == 1 and sys.float_info.min <= abs(J[0]) <= sys.float_info.max:
        return [-1.0 / J[0]]
    if len(J) == 4 and abs(J[0]) >= max(abs(J[2]), sys.float_info.min):
        a, b, c, e = J
        ia = 1.0 / a
        u = e - c * ia * b
        if abs(u) > max(1e-12 * abs(e), sys.float_info.min):
            iu = 1.0 / u
            y = (0.0 - c * ia) * iu
            return [-((1.0 - b * y) * ia), -((0.0 - b * iu) * ia), -y, -iu]
    try:
        return (-np.linalg.inv(np.reshape(J, (math.isqrt(len(J)),) * 2))).ravel().tolist()
    except np.linalg.LinAlgError:
        return None


def _minus_inverse(J):
    """-K for an approximate inverse K of the square matrix J, or None when J
    is singular: _fminus_inverse's at order 1 or 2.  At order >= NEUMANN_MIN_D,
    J = D + O (diagonal plus the rest) with ||D^-1 O||_inf <= NEUMANN_MAX_COUPLING
    gets the one-term Jacobi-Neumann inverse K = 2 D^-1 - D^-1 J D^-1, one
    elementwise pass: I - K J = (D^-1 O)^2, exact for a diagonal J.  Every other
    J gets numpy.linalg.inv, cheaper at small orders: None where it raises."""
    J = np.asarray(J, dtype=np.float64)
    d = len(J)
    if d <= 2:
        K = _fminus_inverse(J.ravel().tolist())
        return None if K is None else np.reshape(K, (d, d))
    if d >= NEUMANN_MIN_D:
        dg = J.diagonal()
        if dg.all():
            dinv = 1.0 / dg
            S = J * dinv[:, None]   # D^-1 J, unit diagonal up to rounding
            if abs(S).sum(axis=1).max() - 1.0 <= NEUMANN_MAX_COUPLING:
                S *= dinv           # D^-1 J D^-1
                S.flat[::d + 1] = -dinv
                return S
    try:
        return -np.linalg.inv(J)
    except np.linalg.LinAlgError:
        return None


def _update(minus_K, r, x):
    delta = minus_K.dot(r)
    return delta, x + delta


def float_update(minus_K, r, x):
    if len(r) == 1:
        d0 = minus_K[0] * r[0]
        return (d0,), (x[0] + d0,)
    a, b, c, e = minus_K
    r0, r1 = r
    d0, d1 = a * r0 + b * r1, c * r0 + e * r1
    return (d0, d1), (x[0] + d0, x[1] + d1)


# The loop's vector work (delta = -K r with x + delta, ||.||_inf, r . delta,
# -K / 2, -J^-1) on arrays, or at d <= 2 on lists of floats (a matrix flat).
ARRAY_OPS = (_update, _norm, np.dot, lambda K: 0.5 * K, _minus_inverse)
FLOAT_OPS = (float_update, _fnorm, lambda r, d: sum([u * v for u, v in zip(r, d)]),
             lambda K: [0.5 * k for k in K], _fminus_inverse)


def solve_newton(residual, jacobian, x0, cfg, r0=None, j0=None):
    """Newton iteration on R(x) = 0 that keeps J^-1 while it contracts.

    ``jacobian`` is a callable J(x); ``r0`` and ``j0``, when given, are R(x0)
    and J(x0) and save their evaluations.  At d <= 2 the iteration runs on
    Python floats, converting x and the closures' values at each call.
    K = J(x0)^-1 (a large diagonally dominant J inverted approximately, see
    _minus_inverse) is kept while each update halves the residual: the chord
    iteration.  An update above round-off with theta = ||R(x_new)|| / ||R(x)||
    in (1/2, 1] re-inverts J at x_new; full Newton is the limit of refreshing
    at every update (Shamanskii's method, and the theta-driven Jacobian reuse
    of RADAU5).  An update that raises the residual, or makes it non-finite,
    is dropped: J is re-inverted at x, or K is halved if it was formed at x
    already.  Only a first update that points uphill in R (R(x0) . delta > 0)
    is taken whole: for a residual that is a gradient, as the s3 position
    equation is, J(x0) is then not positive definite, and a shorter update
    would head for a saddle.

    Convergence means ||R(x)||_inf <= cfg.tolerance with x at round-off,
    since the chord converges only linearly: the update that reached x is
    at most 16 ulp(1 + ||x||_inf), or the next one, predicted from theta,
    is at most a quarter of that ulp.  An update at round-off with theta >
    1/2 and the residual above the tolerance stops with "residual_floor":
    x no longer moves, and a fresh J meets the same floor.  iterations
    counts the updates tried (0 when x0 meets the tolerance).  On failure
    the lowest-residual iterate seen is returned, with the cause
    ("max_iterations", "singular_jacobian", "non_finite", "residual_floor").
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    if len(x) > 2:
        vec = lambda v: None if v is None else np.asarray(v, dtype=np.float64)
        return newton_loop(lambda x: vec(residual(x)), jacobian, x, cfg, vec(r0),
                           j0, ARRAY_OPS)
    flat = lambda v: v if v is None else np.asarray(v, dtype=np.float64).ravel().tolist()
    x, report = newton_loop(lambda x: flat(residual(np.array(x))),
                            lambda x: flat(jacobian(np.array(x))), x.tolist(), cfg,
                            flat(r0), flat(j0), FLOAT_OPS)
    return np.array(x), report


def newton_loop(residual, jacobian, x, cfg, r0, j0, ops):
    """solve_newton's iteration on the vectors of ``ops``; x is never written."""
    update, norm, dot, half, inverse = ops
    r = residual(x) if r0 is None else r0
    # the norm is non-finite exactly when some entry of r is
    rnorm = norm(r)
    if not math.isfinite(rnorm):
        return x, SolverReport(False, 0, np.inf, CAUSE_NON_FINITE)
    if rnorm <= cfg.tolerance:
        return x, SolverReport(True, 0, rnorm)
    minus_K = inverse(jacobian(x) if j0 is None else j0)
    if minus_K is None:
        return x, SolverReport(False, 0, rnorm, CAUSE_SINGULAR_JACOBIAN)
    fresh = True    # minus_K was formed at x
    best_x, best_norm = x, rnorm
    cause = CAUSE_MAX_ITERATIONS
    for it in range(1, cfg.max_iterations + 1):
        delta, x_new = update(minus_K, r, x)
        r_new = residual(x_new)
        norm_new = norm(r_new)
        if norm_new < best_norm:
            best_x, best_norm = x_new, norm_new
        within = norm_new <= cfg.tolerance
        contracting = norm_new <= 0.5 * rnorm
        if within or not contracting:
            ulp = math.ulp(1.0 + norm(x_new))
            dnorm = norm(delta)
            if dnorm <= 16.0 * ulp or norm_new * dnorm <= 0.25 * ulp * rnorm:
                if within:
                    return x_new, SolverReport(True, it, norm_new)
                cause = CAUSE_RESIDUAL_FLOOR
                break
        if norm_new <= rnorm or (it == 1 and dot(r, delta) > 0
                                 and math.isfinite(norm_new)):
            x, r, rnorm, fresh = x_new, r_new, norm_new, False
            if contracting:
                continue
        elif fresh:
            minus_K = half(minus_K)
            continue
        if it == cfg.max_iterations:
            break
        minus_K = inverse(jacobian(x))
        if minus_K is None:
            cause = CAUSE_SINGULAR_JACOBIAN
            break
        fresh = True
    return best_x, SolverReport(False, it, best_norm, cause)
