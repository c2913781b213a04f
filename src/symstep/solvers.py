"""The Newton solver for the per-step implicit equation.

It takes closures (the residual and its Jacobian, which may also be a
fixed matrix) and is the one solve loop of the package: every implicit
step, of every model, runs through it.
"""

import math
from dataclasses import dataclass

import numpy as np

CAUSE_OK = ""
CAUSE_MAX_ITERATIONS = "max_iterations"
CAUSE_SINGULAR_JACOBIAN = "singular_jacobian"
CAUSE_NON_FINITE = "non_finite"
CAUSE_NO_CONTRACTION = "no_contraction"
CAUSE_RESIDUAL_FLOOR = "residual_floor"

# A fixed matrix of order >= NEUMANN_MIN_D whose off-diagonal rows sum to at
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


def _norm(v):
    return float(abs(v).max()) if v.size else 0.0


def _minus_inverse(J):
    """-K for an approximate inverse K of the square matrix J, or None when
    J is singular.

    With J = D + O (diagonal plus the rest), a matrix of order >=
    NEUMANN_MIN_D with ||D^-1 O||_inf <= NEUMANN_MAX_COUPLING gets the
    one-term Jacobi-Neumann inverse K = 2 D^-1 - D^-1 J D^-1, one elementwise
    pass: I - K J = (D^-1 O)^2, and K = D^-1 is exact for a diagonal J.
    Every other J, smaller or less dominant, gets numpy.linalg.inv, which is
    cheaper than the elementwise pass at small orders.
    """
    J = np.asarray(J, dtype=np.float64)
    d = len(J)
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


def solve_newton(residual, jacobian, x0, cfg, r0=None):
    """Newton iteration on R(x) = 0 with a dense direct linear solve.

    ``jacobian`` is either a callable J(x), evaluated and solved at every
    iterate (Newton), or a fixed matrix, inverted once and applied at every
    iterate (simplified Newton, the chord iteration; a large diagonally
    dominant matrix is inverted approximately, see _minus_inverse).
    ``r0``, when given, is R(x0) and saves its evaluation.

    Convergence means ||R(x)||_inf <= cfg.tolerance.  Newton converges
    quadratically, so from there its next update is below round-off; the
    chord iteration converges only linearly, so it also requires x to be at
    round-off: the update that reached x is at most 16 ulp(1 + ||x||_inf),
    or the next one, predicted from the observed contraction
    theta = ||R(x)|| / ||R(x_prev)||, is at most a quarter of that ulp.  A
    chord update above round-off with theta > 1/2 stops the iteration with
    cause "no_contraction": the fixed matrix is too far from J(x) for the
    iteration to reach round-off in the default 50 updates, if at all.  A
    chord update at round-off with theta > 1/2 and the residual still above
    the tolerance stops it with cause "residual_floor": x no longer moves,
    so the residual cannot fall further than its round-off floor, and more
    updates (or full Newton, which meets the same floor) cannot help.

    iterations counts accepted updates, so an x0 that already satisfies the
    tolerance reports 0 iterations.  On failure the lowest-residual iterate
    seen is returned, with the cause recorded ("max_iterations",
    "singular_jacobian", "non_finite", "no_contraction" or
    "residual_floor").
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    r = np.asarray(residual(x) if r0 is None else r0, dtype=np.float64)
    # the norm is non-finite exactly when some entry of r is
    rnorm = _norm(r)
    if not math.isfinite(rnorm):
        return x, SolverReport(False, 0, np.inf, CAUSE_NON_FINITE)
    if rnorm <= cfg.tolerance:
        return x, SolverReport(True, 0, rnorm)
    chord = not callable(jacobian)
    if chord:
        minus_J_inv = _minus_inverse(jacobian)
        if minus_J_inv is None:
            return x, SolverReport(False, 0, rnorm, CAUSE_SINGULAR_JACOBIAN)
    # x is rebound, never written in place, so iterates need no copies
    best_x = x
    best_norm = rnorm
    iters = 0
    cause = CAUSE_MAX_ITERATIONS
    for it in range(1, cfg.max_iterations + 1):
        if chord:
            delta = minus_J_inv.dot(r)
        else:
            try:
                J = np.asarray(jacobian(x), dtype=np.float64)
                delta = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError:
                cause = CAUSE_SINGULAR_JACOBIAN
                break
        x = x + delta
        iters = it
        r = np.asarray(residual(x), dtype=np.float64)
        rnorm, prev_norm = _norm(r), rnorm
        if not math.isfinite(rnorm):
            cause = CAUSE_NON_FINITE
            break
        if rnorm < best_norm:
            best_norm = rnorm
            best_x = x
        within = rnorm <= cfg.tolerance
        if within and not chord:
            return x, SolverReport(True, it, rnorm)
        contracting = rnorm <= 0.5 * prev_norm
        if chord and (within or not contracting):
            ulp = math.ulp(1.0 + _norm(x))
            dnorm = _norm(delta)
            at_roundoff = (dnorm <= 16.0 * ulp
                           or rnorm * dnorm <= 0.25 * ulp * prev_norm)
            if at_roundoff:
                if within:
                    return x, SolverReport(True, it, rnorm)
                cause = CAUSE_RESIDUAL_FLOOR
                break
            if not contracting:
                cause = CAUSE_NO_CONTRACTION
                break
    return best_x, SolverReport(False, iters, best_norm, cause)
