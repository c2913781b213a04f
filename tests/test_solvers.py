"""The Newton solver on scalar and vector problems."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

import symstep as ss
from symstep import solvers
from symstep.solvers import (CAUSE_MAX_ITERATIONS, CAUSE_NO_CONTRACTION,
                             CAUSE_NON_FINITE, CAUSE_RESIDUAL_FLOOR,
                             CAUSE_SINGULAR_JACOBIAN)


def scalar_problem(f, df):
    residual = lambda x: np.array([f(x[0])])
    jacobian = lambda x: np.array([[df(x[0])]])
    return residual, jacobian


# ------------------------------------------------------------------- config

def test_config_defaults():
    cfg = ss.SolverConfig()
    assert cfg.tolerance == 1e-13
    assert cfg.max_iterations == 50


def test_config_validation():
    with pytest.raises(ValueError):
        ss.SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        ss.SolverConfig(max_iterations=0)
    # there is one solve path; code that still selects one fails loudly
    with pytest.raises(TypeError):
        ss.SolverConfig(method="fixed_point")


# ------------------------------------------------------------------- newton

def test_newton_linear_one_step():
    residual, jacobian = scalar_problem(lambda x: 2 * x - 4, lambda x: 2.0)
    x, report = ss.solve_newton(residual, jacobian, np.array([0.0]),
                                ss.SolverConfig())
    assert report.converged
    assert report.iterations == 1
    assert x[0] == pytest.approx(2.0, abs=1e-15)


def test_newton_quadratic_iterates():
    seen = []

    def f(x):
        seen.append(x[0])
        return np.array([x[0] ** 2 - 4.0])

    jac = lambda x: np.array([[2.0 * x[0]]])
    x, report = ss.solve_newton(f, jac, np.array([3.0]),
                                ss.SolverConfig(tolerance=1e-12))
    assert report.converged
    assert abs(x[0] - 2.0) <= 1e-12
    # hand iteration: 3 -> 13/6 -> 313/156 -> ...
    npt.assert_allclose(seen[:3], [3.0, 13 / 6, 313 / 156], rtol=0, atol=1e-15)


def test_newton_zero_iterations_at_root():
    residual, jacobian = scalar_problem(lambda x: x - 1.0, lambda x: 1.0)
    x, report = ss.solve_newton(residual, jacobian, np.array([1.0]),
                                ss.SolverConfig())
    assert report.converged
    assert report.iterations == 0
    assert x[0] == 1.0


def test_newton_singular_jacobian_reported():
    residual, jacobian = scalar_problem(lambda x: x ** 2 + 1, lambda x: 0.0)
    x, report = ss.solve_newton(residual, jacobian, np.array([0.0]),
                                ss.SolverConfig())
    assert not report.converged
    assert report.cause == CAUSE_SINGULAR_JACOBIAN


def test_newton_max_iterations_returns_best():
    # residual floor ~1 everywhere: no root, solver must give up cleanly
    residual, jacobian = scalar_problem(lambda x: np.cos(x) + 2.0,
                                        lambda x: -np.sin(x) + 1e-3)
    cfg = ss.SolverConfig(max_iterations=5)
    x, report = ss.solve_newton(residual, jacobian, np.array([0.2]), cfg)
    assert not report.converged
    assert report.cause == CAUSE_MAX_ITERATIONS
    assert report.iterations == 5
    assert np.isfinite(report.final_residual_norm)


def test_newton_non_finite_detected():
    residual, jacobian = scalar_problem(
        lambda x: np.nan, lambda x: 1.0)
    x, report = ss.solve_newton(residual, jacobian, np.array([0.0]),
                                ss.SolverConfig())
    assert not report.converged
    assert report.cause == CAUSE_NON_FINITE


def test_newton_vector_system():
    # R(x) = A x - b with SPD A: one Newton step must land on the solution
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    residual = lambda x: A @ x - b
    jacobian = lambda x: A
    x, report = ss.solve_newton(residual, jacobian, np.zeros(2),
                                ss.SolverConfig())
    assert report.converged
    assert report.iterations == 1
    npt.assert_allclose(A @ x, b, rtol=0, atol=1e-14)


# ------------------------------------------------- chord (fixed Jacobian)

def test_chord_linear_one_update():
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    x, report = ss.solve_newton(lambda x: A @ x - b, A, np.zeros(2),
                                ss.SolverConfig())
    assert report.converged
    assert report.iterations == 1
    npt.assert_allclose(A @ x, b, rtol=0, atol=1e-14)


def test_chord_given_start_residual_is_not_evaluated():
    seen = []

    def residual(x):
        seen.append(x[0])
        return np.array([2.0 * x[0] - 4.0])

    x, report = ss.solve_newton(residual, np.array([[2.0]]), np.array([0.0]),
                                ss.SolverConfig(), r0=np.array([-4.0]))
    assert report.converged
    assert seen == [2.0]


def test_chord_iterates_past_the_tolerance_to_round_off():
    """x^2 = 4 with the derivative frozen at x0 = 3 contracts by about 1/3
    per update.  The residual test alone could stop up to 2.5e-11 from the
    root; the chord goes on until its update is within 16 ulp of 1 + |x|."""
    x, report = ss.solve_newton(lambda x: np.array([x[0] ** 2 - 4.0]),
                                np.array([[6.0]]), np.array([3.0]),
                                ss.SolverConfig(tolerance=1e-10))
    assert report.converged
    assert abs(x[0] - 2.0) <= 16 * np.spacing(3.0)


def test_chord_without_contraction_stops_early():
    # the frozen derivative has the wrong sign: every update moves away
    x, report = ss.solve_newton(lambda x: np.array([x[0] ** 2 - 4.0]),
                                np.array([[-6.0]]), np.array([3.0]),
                                ss.SolverConfig())
    assert not report.converged
    assert report.cause == CAUSE_NO_CONTRACTION
    assert report.iterations == 1
    assert x[0] == 3.0  # the lowest-residual iterate


def test_chord_singular_matrix_reported():
    x, report = ss.solve_newton(lambda x: x + 1.0, np.zeros((1, 1)),
                                np.array([0.0]), ss.SolverConfig())
    assert not report.converged
    assert report.cause == CAUSE_SINGULAR_JACOBIAN
    assert report.iterations == 0


def test_chord_stops_at_the_residual_floor():
    """1000 (x^2 - 2) has no float root: at the two floats next to sqrt(2)
    it reads +-4.4e-13, above the tolerance.  Once the updates are at
    round-off the chord stops there instead of running out its updates."""
    x, report = ss.solve_newton(lambda x: 1e3 * (x * x - 2.0),
                                np.array([[3e3]]), np.array([1.5]),
                                ss.SolverConfig())
    assert not report.converged
    assert report.cause == CAUSE_RESIDUAL_FLOOR
    assert report.iterations <= 15
    assert report.final_residual_norm == pytest.approx(4.44e-13, rel=1e-2)
    assert abs(x[0] - np.sqrt(2.0)) <= np.spacing(np.sqrt(2.0))


# ------------------------------- chord inverse of large dominant matrices

def test_neumann_inverse_gives_the_exact_inverse_solution(monkeypatch):
    """On a d = 24 dominant SPD Jacobian the one-term Neumann inverse takes
    as many chord updates as LAPACK's inverse, to the same x within 1e-15
    relative."""
    rng = np.random.default_rng(3)
    B = rng.normal(scale=0.02, size=(24, 24))
    J = 200.0 * np.eye(24) + (B + B.T) / 2   # ||D^-1 O||_inf ~ 2e-3
    b = 10.0 * rng.normal(size=24)
    residual = lambda x: J @ x + 5.0 * x ** 3 - b   # R'(0) = J
    # the defining identity I - K J = (D^-1 O)^2
    K = -solvers._minus_inverse(J)
    D_inv_O = (J - np.diag(J.diagonal())) / J.diagonal()[:, None]
    npt.assert_allclose(np.eye(24) - K @ J, D_inv_O @ D_inv_O, rtol=0, atol=1e-15)
    x, report = ss.solve_newton(residual, J, np.zeros(24), ss.SolverConfig())
    monkeypatch.setattr(solvers, "NEUMANN_MIN_D", 10 ** 9)
    x_inv, report_inv = ss.solve_newton(residual, J, np.zeros(24),
                                        ss.SolverConfig())
    assert report.converged and report_inv.converged
    assert report.iterations == report_inv.iterations
    assert np.abs(x - x_inv).max() <= 1e-15 * np.abs(x_inv).max()


def test_non_dominant_matrix_keeps_the_lapack_inverse():
    rng = np.random.default_rng(5)
    B = rng.normal(size=(24, 24))
    J = B @ B.T + np.eye(24)   # SPD, far from diagonally dominant
    npt.assert_array_equal(solvers._minus_inverse(J), -np.linalg.inv(J))


def test_zero_diagonal_at_neumann_size_is_singular():
    dg = np.ones(24)
    dg[7] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, report = ss.solve_newton(lambda x: x + 1.0, np.diag(dg),
                                    np.zeros(24), ss.SolverConfig())
    assert report.cause == CAUSE_SINGULAR_JACOBIAN
    assert report.iterations == 0
