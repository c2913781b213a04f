"""Newton and fixed-point solvers for the per-step implicit equation.

These are the generic (closure-based) solvers used for custom models and for
the fixed-point fallback; built-in models normally go through the step
kernels, which implement the same Newton control flow.
"""

from dataclasses import dataclass

import numpy as np

CAUSE_OK = ""
CAUSE_MAX_ITERATIONS = "max_iterations"
CAUSE_SINGULAR_JACOBIAN = "singular_jacobian"
CAUSE_NON_FINITE = "non_finite"

_METHODS = ("newton", "fixed_point")


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-13
    max_iterations: int = 50
    method: str = "newton"

    def __post_init__(self):
        if not (self.tolerance > 0):
            raise ValueError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")


@dataclass(frozen=True)
class SolverReport:
    converged: bool
    iterations: int
    final_residual_norm: float
    cause: str = CAUSE_OK


IDENTITY_REPORT = SolverReport(True, 0, 0.0)


def _norm(v):
    return float(np.max(np.abs(v))) if v.size else 0.0


def solve_newton(residual, jacobian, x0, cfg):
    """Newton iteration on R(x) = 0 with a dense direct linear solve.

    Convergence means ||R(x)||_inf <= cfg.tolerance; iterations counts
    accepted updates, so an x0 that already satisfies the tolerance reports
    0 iterations.  On failure the lowest-residual iterate seen is returned,
    with the cause recorded ("max_iterations", "singular_jacobian", or
    "non_finite").
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    r = np.asarray(residual(x), dtype=np.float64)
    if not np.all(np.isfinite(r)):
        return x, SolverReport(False, 0, np.inf, CAUSE_NON_FINITE)
    rnorm = _norm(r)
    if rnorm <= cfg.tolerance:
        return x, SolverReport(True, 0, rnorm)
    best_x = x.copy()
    best_norm = rnorm
    iters = 0
    cause = CAUSE_MAX_ITERATIONS
    for it in range(1, cfg.max_iterations + 1):
        J = np.asarray(jacobian(x), dtype=np.float64)
        try:
            delta = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            cause = CAUSE_SINGULAR_JACOBIAN
            break
        x = x + delta
        r = np.asarray(residual(x), dtype=np.float64)
        if not np.all(np.isfinite(r)):
            cause = CAUSE_NON_FINITE
            iters = it
            break
        rnorm = _norm(r)
        if rnorm < best_norm:
            best_norm = rnorm
            best_x = x.copy()
        if rnorm <= cfg.tolerance:
            return x, SolverReport(True, it, rnorm)
        iters = it
    return best_x, SolverReport(False, iters, best_norm, cause)


def solve_fixed_point(map_fn, x0, cfg):
    """Fixed-point iteration x <- map_fn(x).

    Converges when the step norm ||map_fn(x) - x||_inf drops to the
    tolerance; the check runs before the first update, so a fixed point of
    the map reports 0 iterations.  final_residual_norm is the last step
    norm.  Non-convergence returns the smallest-step iterate seen.
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    best_x = x.copy()
    best_norm = np.inf
    iters = 0
    for it in range(cfg.max_iterations + 1):
        fx = np.asarray(map_fn(x), dtype=np.float64)
        if not np.all(np.isfinite(fx)):
            return best_x if np.isfinite(best_norm) else x, SolverReport(
                False, iters, best_norm if np.isfinite(best_norm) else np.inf,
                CAUSE_NON_FINITE)
        step = _norm(fx - x)
        if step < best_norm:
            best_norm = step
            best_x = x.copy()
        if step <= cfg.tolerance:
            return fx, SolverReport(True, iters, step)
        if it == cfg.max_iterations:
            break
        x = fx
        iters = it + 1
    return best_x, SolverReport(False, iters, best_norm, CAUSE_MAX_ITERATIONS)
