"""The Newton solver on scalar and vector problems."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

import symstep as ss
from symstep import integrators, solvers
from symstep.solvers import (CAUSE_MAX_ITERATIONS, CAUSE_NON_FINITE,
                             CAUSE_RESIDUAL_FLOOR, CAUSE_SINGULAR_JACOBIAN)
from test_acceptance import lj_lattice


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


def test_config_max_iterations_must_be_an_integer():
    """max_iterations = 2.5 was accepted, and integrate then raised TypeError
    from the Newton loop's range() instead of returning a failed run."""
    for bad in (2.5, 50.0, "50", None, -np.int64(1)):
        with pytest.raises(ValueError, match="max_iterations must be an integer >= 1"):
            ss.SolverConfig(max_iterations=bad)
    cfg = ss.SolverConfig(tolerance=1e-30, max_iterations=np.int64(2))
    m = ss.make_model("kepler")
    traj = ss.integrate(m, "s3-corrected", ss.PhaseState(*ss.kepler_start(0.3)),
                        0.05, 4, solver_cfg=cfg)
    assert traj.failed_step == 1
    assert traj.failure.iterations == 2


# ------------------------------------------------------------------- newton

def test_newton_linear_one_step():
    residual, jacobian = scalar_problem(lambda x: 2 * x - 4, lambda x: 2.0)
    x, report = ss.solve_newton(residual, jacobian, np.array([0.0]),
                                ss.SolverConfig())
    assert report.converged
    assert report.iterations == 1
    assert x[0] == pytest.approx(2.0, abs=1e-15)


def test_newton_quadratic_iterates():
    """x^2 = 4 from x0 = 3: J(3) = 6 is inverted once and kept, since each
    update shrinks the residual by theta <= 1/3 (0.14 at the first)."""
    seen, jacobians = [], []

    def f(x):
        seen.append(x[0])
        return np.array([x[0] ** 2 - 4.0])

    def jac(x):
        jacobians.append(x[0])
        return np.array([[2.0 * x[0]]])

    x, report = ss.solve_newton(f, jac, np.array([3.0]),
                                ss.SolverConfig(tolerance=1e-12))
    assert report.converged
    assert abs(x[0] - 2.0) <= 1e-12
    assert jacobians == [3.0]
    # hand iteration with J frozen at 6: 3 -> 13/6 -> 443/216 -> ...
    npt.assert_allclose(seen[:3], [3.0, 13 / 6, 443 / 216], rtol=0, atol=1e-15)


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


# ------------------------------------------------ chord (Jacobian kept)

def test_chord_linear_one_update():
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    x, report = ss.solve_newton(lambda x: A @ x - b, lambda x: A, np.zeros(2),
                                ss.SolverConfig())
    assert report.converged
    assert report.iterations == 1
    npt.assert_allclose(A @ x, b, rtol=0, atol=1e-14)


def test_chord_given_start_residual_is_not_evaluated():
    seen = []

    def residual(x):
        seen.append(x[0])
        return np.array([2.0 * x[0] - 4.0])

    x, report = ss.solve_newton(residual, lambda x: np.array([[2.0]]),
                                np.array([0.0]), ss.SolverConfig(),
                                r0=np.array([-4.0]))
    assert report.converged
    assert seen == [2.0]


def test_chord_iterates_past_the_tolerance_to_round_off():
    """x^2 = 4 with the derivative frozen at x0 = 3 contracts by about 1/3
    per update.  The residual test alone could stop up to 2.5e-11 from the
    root; the chord goes on until its update is within 16 ulp of 1 + |x|."""
    x, report = ss.solve_newton(lambda x: np.array([x[0] ** 2 - 4.0]),
                                lambda x: np.array([[6.0]]), np.array([3.0]),
                                ss.SolverConfig(tolerance=1e-10))
    assert report.converged
    assert abs(x[0] - 2.0) <= 16 * np.spacing(3.0)


def test_chord_without_contraction_refreshes_the_jacobian():
    """The given J(x0) has the wrong sign, so the first update moves away
    from the root and raises the residual.  It points uphill in R, so it is
    taken whole, J is re-inverted once, at the iterate it reached, and the
    iteration goes on with the new inverse to round-off."""
    jacobians = []

    def jac(x):
        jacobians.append(x[0])
        return np.array([[2.0 * x[0]]])

    x, report = ss.solve_newton(lambda x: np.array([x[0] ** 2 - 4.0]), jac,
                                np.array([3.0]), ss.SolverConfig(),
                                j0=np.array([[-6.0]]))
    assert report.converged
    assert jacobians == [pytest.approx(23 / 6, rel=1e-15)]
    assert abs(x[0] - 2.0) <= 16 * np.spacing(2.0)


def test_newton_update_that_raises_the_residual_is_halved():
    """Newton on arctan from x0 = 2 overshoots to -3.54, where |R| rises
    from 1.11 to 1.30.  K was formed at x0 and the update points downhill,
    so it is halved instead: -0.77 (|R| = 0.66) is taken, and J is
    re-inverted there."""
    jacobians = []

    def jac(x):
        jacobians.append(x[0])
        return np.array([[1.0 / (1.0 + x[0] ** 2)]])

    x, report = ss.solve_newton(lambda x: np.arctan(x), jac, np.array([2.0]),
                                ss.SolverConfig())
    assert report.converged
    assert jacobians[:2] == [2.0, pytest.approx(2.0 - 2.5 * np.arctan(2.0),
                                                rel=1e-15)]
    assert abs(x[0]) <= 1e-13


def test_chord_update_that_raises_the_residual_refreshes_where_it_started():
    """The chord on arctan with J frozen at 0.4 contracts from x0 = 3 to
    -0.12, then overshoots to 0.18 and raises the residual.  That update is
    dropped and J is re-inverted at -0.12, not at 0.18."""
    jacobians = []

    def jac(x):
        jacobians.append(x[0])
        return np.array([[1.0 / (1.0 + x[0] ** 2)]])

    x, report = ss.solve_newton(lambda x: np.arctan(x), jac, np.array([3.0]),
                                ss.SolverConfig(), j0=np.array([[0.4]]))
    assert report.converged
    assert jacobians == [pytest.approx(3.0 - 2.5 * np.arctan(3.0), rel=1e-15)]
    assert abs(x[0]) <= 1e-13


def test_chord_singular_matrix_reported():
    x, report = ss.solve_newton(lambda x: x + 1.0, lambda x: np.zeros((1, 1)),
                                np.array([0.0]), ss.SolverConfig())
    assert not report.converged
    assert report.cause == CAUSE_SINGULAR_JACOBIAN
    assert report.iterations == 0


def test_chord_stops_at_the_residual_floor():
    """1000 (x^2 - 2) has no float root: at the two floats next to sqrt(2)
    it reads +-4.4e-13, above the tolerance.  Once the updates are at
    round-off the chord stops there instead of running out its updates."""
    x, report = ss.solve_newton(lambda x: 1e3 * (x * x - 2.0),
                                lambda x: np.array([[3e3]]), np.array([1.5]),
                                ss.SolverConfig())
    assert not report.converged
    assert report.cause == CAUSE_RESIDUAL_FLOOR
    assert report.iterations <= 15
    assert report.final_residual_norm == pytest.approx(4.44e-13, rel=1e-2)
    assert abs(x[0] - np.sqrt(2.0)) <= np.spacing(np.sqrt(2.0))


# ------------------------------------ inverse of dominant Jacobians

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
    x, report = ss.solve_newton(residual, lambda x: J, np.zeros(24),
                                ss.SolverConfig())
    monkeypatch.setattr(solvers, "NEUMANN_MAX_COUPLING", -np.inf)
    x_inv, report_inv = ss.solve_newton(residual, lambda x: J, np.zeros(24),
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
        x, report = ss.solve_newton(lambda x: x + 1.0, lambda x: np.diag(dg),
                                    np.zeros(24), ss.SolverConfig())
    assert report.cause == CAUSE_SINGULAR_JACOBIAN
    assert report.iterations == 0

# ------------------------------------------- primitives per workload shape

def _newton_traffic(monkeypatch):
    """(calls, lapack): the Newton-loop calls of the steps and of
    solve_newton per (ARRAY_OPS or FLOAT_OPS, member index), the calls of
    the step primitives per (ARRAY_STEP or FLOAT_STEP, member index), and
    ||D^-1 O||_inf of each J that LAPACK inverts."""
    sets = (("array", solvers.ARRAY_OPS), ("float", solvers.FLOAT_OPS),
            ("array-step", integrators.ARRAY_STEP[:-1]),
            ("float-step", integrators.FLOAT_STEP[:-1]))
    members = {id(f): (kind, i) for kind, ops in sets for i, f in enumerate(ops)}
    calls, lapack = {}, []

    def counted(f):
        key = members[id(f)]

        def call(*args):
            calls[key] = calls.get(key, 0) + 1
            return f(*args)
        return call

    loop, inv = integrators.newton_loop, np.linalg.inv

    def traced_inv(J):
        lapack.append(np.abs(J / J.diagonal()[:, None]).sum(axis=1).max() - 1.0)
        return inv(J)

    for module in (integrators, solvers):
        monkeypatch.setattr(module, "newton_loop", lambda *args: loop(
            *args[:-1], tuple(map(counted, args[-1]))))
    for name in ("ARRAY_STEP", "FLOAT_STEP"):
        *primitives, ops = getattr(integrators, name)
        monkeypatch.setattr(integrators, name, (*map(counted, primitives), ops))
    monkeypatch.setattr(np.linalg, "inv", traced_inv)
    return calls, lapack


def test_workload_shapes_reach_their_primitives(monkeypatch):
    """s3 steps at d = 1 (harmonic) and d = 2 (Kepler) run on FLOAT_STEP
    and FLOAT_OPS alone, while solve_newton on the build_step_system
    closures and s3_momentum_update run there on ARRAY_STEP and ARRAY_OPS
    alone and return float64 arrays; LJ(8) at d = 24 steps on ARRAY_STEP
    and ARRAY_OPS alone, with the Neumann K at h = 0.005 and LAPACK's
    inverse at h = 0.02 from a relaxed cluster (the relaxed LJ(8) check),
    where ||D^-1 O||_inf exceeds NEUMANN_MAX_COUPLING."""
    calls, lapack = _newton_traffic(monkeypatch)
    rng = np.random.default_rng(25)
    small = [(model, ss.PhaseState(q, np.full(model.dimension, 0.5))) for model, q in (
        (ss.make_model("harmonic", dimension=1), [1.0]),
        (ss.make_model("kepler"), ss.kepler_start(0.3)[0]))]
    for model, s in small:
        ss.integrate(model, "s3-corrected", s, 0.05, 20)
    assert {kind for kind, _ in calls} == {"float", "float-step"}
    assert all(calls.get(("float", i)) for i in (0, 1, 4))
    assert all(calls.get(("float-step", i)) for i in range(7))
    assert not lapack

    calls.clear()
    for model, s in small:
        residual, jacobian = ss.build_step_system("s3-corrected", model, s, 0.05)
        x, report = ss.solve_newton(residual, jacobian, s.q, ss.SolverConfig())
        assert report.converged
        p = ss.s3_momentum_update("s3-corrected", model, s.q, x, 0.05)
        for v in (x, p, residual(x), jacobian(x)):
            assert type(v) is np.ndarray and v.dtype == np.float64
    assert {kind for kind, _ in calls} == {"array", "array-step"}
    assert all(calls.get(("array", i)) for i in (0, 1, 4))
    assert all(calls.get(("array-step", i)) for i in range(6))
    assert not lapack

    calls.clear()
    lj8 = ss.make_model("lj-cluster", dimension=24)
    q = lj_lattice(rng, 8)
    p = rng.normal(scale=0.2, size=24)
    traj = ss.integrate(lj8, "s3-corrected", ss.PhaseState(q, p), 0.005, 20)
    assert not traj.failed
    assert {kind for kind, _ in calls} == {"array", "array-step"}
    assert calls[("array", 4)] >= 20
    assert not lapack

    calls.clear()
    for _ in range(2000):
        q = q - 0.01 * lj8.gradient(q)
    traj = ss.integrate(lj8, "s3-corrected", ss.PhaseState(q, p), 0.02, 20)
    assert not traj.failed
    assert {kind for kind, _ in calls} == {"array", "array-step"}
    assert len(lapack) == calls[("array", 4)] >= 20
    assert min(lapack) > solvers.NEUMANN_MAX_COUPLING

# ------------------------------------------- float primitives at d <= 2

SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 1.7e308, -1.7e308, 1.0, -3.5]


@pytest.mark.parametrize("d", range(1, 13))
def test_norm_equals_numpy_bitwise(d):
    """_fnorm on Python floats returns float(abs(v).max()) bit for bit: on
    signed zeros, subnormals, finite entries whose sum overflows, and with
    +-inf or NaN at every position, where numpy's NaN must come back."""
    rng = np.random.default_rng(d)
    vectors = [rng.choice(SPECIAL, size=d) for _ in range(200)]
    vectors += [rng.normal(size=d) * 10.0 ** rng.integers(-300, 300, size=d)
                for _ in range(200)]
    vectors += [np.zeros(d), -np.zeros(d), np.full(d, 1.7e308)]
    for bad in (np.inf, -np.inf, np.nan):
        for i in range(d):
            v = rng.normal(size=d)
            v[i] = bad
            vectors.append(v)
    for v in vectors:
        got = solvers._fnorm(v.tolist())
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(abs(v).max()).tobytes(), v
    assert solvers._fnorm([]) == 0.0


def test_newton_does_not_converge_on_a_trailing_nan():
    """The first update lands on the root of the first two entries while
    the last one turns NaN there: a norm that skipped the NaN would read 0
    and report convergence."""
    def residual(x):
        r = x - 1.0
        if x[2] != 0.0:
            r[2] = np.nan
        return r

    x, report = ss.solve_newton(residual, lambda x: np.eye(3), np.zeros(3),
                                ss.SolverConfig(max_iterations=3))
    assert not report.converged
    assert report.cause == CAUSE_MAX_ITERATIONS
    npt.assert_array_equal(x, np.zeros(3))
    x, report = ss.solve_newton(lambda x: np.array([0.0, np.nan]),
                                lambda x: np.eye(2), np.zeros(2),
                                ss.SolverConfig())
    assert (report.converged, report.cause) == (False, CAUSE_NON_FINITE)


def _closed_form_minus_inverse(J):
    K = solvers._fminus_inverse(J.ravel().tolist())
    return None if K is None else np.reshape(K, J.shape)


def _lapack_minus_inverse(J):
    try:
        return -np.linalg.inv(J)
    except np.linalg.LinAlgError:
        return None


@pytest.mark.parametrize("d", [1, 2])
def test_closed_form_inverse_matches_lapack(d):
    """-J^-1 on Python floats agrees with LAPACK's to a few ulp times the
    condition number, over conditions up to 1e8 and twelve decades of
    scale, and is exactly -1/J_ii on a diagonal J."""
    rng = np.random.default_rng(18 + d)
    eps = np.finfo(float).eps
    for _ in range(3000):
        J = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-6, 6)
        cond = np.linalg.cond(J)
        if cond > 1e8:
            continue
        K, L = _closed_form_minus_inverse(J), -np.linalg.inv(J)
        assert np.abs(K - L).max() <= 4.0 * eps * cond * np.abs(L).max(), J
        D = np.diag(J.diagonal())
        npt.assert_array_equal(_closed_form_minus_inverse(D),
                               np.diag(-1.0 / J.diagonal()))


@pytest.mark.parametrize("J", [
    [[0.0]], [[1.0, 2.0], [2.0, 4.0]], [[0.0, 1.0], [0.0, 1.0]],
    [[0.0, 0.0], [0.0, 0.0]], [[np.nan]], [[np.inf]], [[5e-324]],
    [[np.nan, 1.0], [1.0, 1.0]], [[np.inf, 1.0], [1.0, 1.0]],
    [[1e-200, 0.0], [0.0, 1e-200]], [[1e200, 1e200], [1e200, 2e200]],
    [[3.0, 1.0], [1.0, 1.0 / 3.0]], [[1.0, np.nan], [0.5, 1.0]],
    [[2.0, 1.0], [0.5, np.inf]], [[2.0, np.inf], [0.0, 1.0]],
    [[2.0, np.inf], [0.5, 1.0]], [[np.inf, np.inf], [1.0, 1.0]],
    [[-np.inf, 1.0], [np.inf, 1.0]], [[1.0, 2.0], [np.nan, 1.0]],
    [[1e-310, 0.0], [0.0, 1.0]],
], ids=str)
def test_closed_form_inverse_keeps_lapack_outcome_at_the_edges(J):
    """Singular, non-finite, subnormal and overflowing J give what
    numpy.linalg.inv gives: None where it raises, its values otherwise."""
    J = np.array(J)
    with np.errstate(all="ignore"):
        K, L = _closed_form_minus_inverse(J), _lapack_minus_inverse(J)
    if L is None:
        assert K is None
    else:
        npt.assert_array_equal(K, L)


def test_closed_form_inverse_is_none_wherever_lapack_raises():
    """2 x 2 matrices whose second LU pivot is rounded to zero: LAPACK
    raises on them although a e - b c is often a nonzero round-off."""
    rng = np.random.default_rng(7)
    raised = 0
    for _ in range(3000):
        a, b, c = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3, size=3)
        if abs(c) > abs(a):
            a, c = c, a
        for J in ([[a, b], [c, (c / a) * b]], [[c, (c / a) * b], [a, b]],
                  [[a, c], [b, (c / a) * b]]):
            J = np.array(J)
            L = _lapack_minus_inverse(J)
            raised += L is None
            if L is None:
                assert _closed_form_minus_inverse(J) is None, J
    assert raised > 1000
