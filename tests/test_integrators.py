"""Stepping: verlet, the implicit family, and trajectory integration."""

import numpy as np
import numpy.testing as npt
import pytest

import symstep as ss
from symstep.models import LJClusterModel
from symstep.solvers import CAUSE_RESIDUAL_FLOOR

S3_VARIANTS = [ss.SchemeVariant.S3_PRINTED, ss.SchemeVariant.S3_GENERATING,
               ss.SchemeVariant.S3_CORRECTED]
ALL_VARIANTS = [ss.SchemeVariant.VERLET] + S3_VARIANTS


@pytest.fixture
def harmonic():
    return ss.make_model("harmonic", dimension=1, omega=1.0)


@pytest.fixture
def kepler():
    return ss.make_model("kepler")


def joint_distance(a, b):
    return max(np.max(np.abs(a.q - b.q)), np.max(np.abs(a.p - b.p)))


# ------------------------------------------------------------------- verlet

def test_verlet_free_particle(harmonic):
    m = ss.make_model("free", dimension=1)
    r = ss.step("verlet", m, ss.PhaseState([0.3], [0.7]), 0.5)
    assert r.state.q[0] == pytest.approx(0.65, abs=1e-15)
    assert r.state.p[0] == 0.7


def test_verlet_harmonic_hand_values(harmonic):
    r = ss.step("verlet", harmonic, ss.PhaseState([1.0], [0.0]), 0.1)
    assert r.state.q[0] == pytest.approx(0.995, abs=1e-16)
    assert r.state.p[0] == pytest.approx(-0.09975, abs=1e-16)


def test_verlet_preserves_angular_momentum(kepler):
    r = ss.step("verlet", kepler, ss.PhaseState([1.0, 0.0], [0.0, 1.0]), 0.1)
    q, p = r.state.q, r.state.p
    assert q[0] * p[1] - q[1] * p[0] == pytest.approx(1.0, abs=1e-14)


def test_verlet_solver_report_is_trivial(harmonic):
    r = ss.step("verlet", harmonic, ss.PhaseState([1.0], [0.0]), 0.1)
    assert r.solver.converged
    assert r.solver.iterations == 0


# ---------------------------------------------------------- residual system

def test_residual_root_free_particle():
    m = ss.make_model("free", dimension=1)
    s = ss.PhaseState([0.2], [0.8])
    for variant in S3_VARIANTS:
        residual, _jac = ss.build_step_system(variant, m, s, 0.5)
        root = s.q + 0.5 * s.p
        npt.assert_allclose(residual(root), [0.0], rtol=0, atol=1e-15)


def test_residual_root_corrected_harmonic(harmonic):
    residual, jacobian = ss.build_step_system("s3-corrected", harmonic,
                                              ss.PhaseState([1.0], [0.0]), 0.1)
    npt.assert_allclose(residual(np.array([598 / 601])), [0.0],
                        rtol=0, atol=1e-15)
    # affine residual: jacobian is constant
    npt.assert_allclose(jacobian(np.array([0.5])), jacobian(np.array([2.0])))


def test_residual_root_generating_harmonic(harmonic):
    residual, _ = ss.build_step_system("s3-generating", harmonic,
                                       ss.PhaseState([1.0], [0.0]), 0.1)
    npt.assert_allclose(residual(np.array([596 / 599])), [0.0],
                        rtol=0, atol=1e-15)


def test_jacobian_matches_residual_fd(kepler):
    s = ss.PhaseState([0.9, 0.3], [0.1, 1.0])
    x = np.array([0.95, 0.35])
    for variant in S3_VARIANTS:
        residual, jacobian = ss.build_step_system(variant, kepler, s, 0.05)
        J = jacobian(x)
        eps = 1e-7
        for j in range(2):
            e = np.zeros(2)
            e[j] = eps
            col = (residual(x + e) - residual(x - e)) / (2 * eps)
            npt.assert_allclose(J[:, j], col, rtol=0, atol=1e-6)


# ----------------------------------------------------------- momentum update

def test_momentum_update_free_particle():
    m = ss.make_model("free", dimension=1)
    for variant in S3_VARIANTS:
        p = ss.s3_momentum_update(variant, m, np.array([0.0]),
                                  np.array([0.5]), 0.5)
        npt.assert_allclose(p, [1.0], rtol=0, atol=1e-15)


def test_momentum_update_corrected_hand_values(harmonic):
    p = ss.s3_momentum_update("s3-corrected", harmonic, np.array([1.0]),
                              np.array([598 / 601]), 0.1)
    assert p[0] == pytest.approx(-1199 / 12020, abs=1e-15)
    p = ss.s3_momentum_update("s3-corrected", harmonic, np.array([0.0]),
                              np.array([60 / 601]), 0.1)
    assert p[0] == pytest.approx(598 / 601, abs=1e-15)


def test_momentum_update_checks_the_solved_position(kepler):
    """x is an evaluation point like a: a singular x raises
    SingularityError, as step_action does there, and a wrong-length x the
    models' dimension error, instead of NaN or a raw numpy error.  So do the
    residual and Jacobian closures of build_step_system."""
    from test_acceptance import lj_lattice

    a = np.array([1.0, 0.0])
    for operation in (ss.s3_momentum_update, ss.step_action):
        with pytest.raises(ss.SingularityError):
            operation("s3-corrected", kepler, a, [0.0, 0.0], 0.1)
    lj = ss.make_model("lj-cluster", dimension=6)
    for model, a in ((kepler, a), (lj, np.array([0.0, 0, 0, 1.1, 0, 0]))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ss.s3_momentum_update("s3-corrected", model, a, np.append(a, 0.5), 0.1)
    q = lj_lattice(np.random.default_rng(0), 8, jitter=0.05)
    coincident = q.copy()
    coincident[3:6] = q[0:3]
    lj8 = ss.make_model("lj-cluster", dimension=24)
    for model, s, singular in (
            (kepler, ss.PhaseState([1.0, 0.0], [0.0, 1.0]), np.zeros(2)),
            (lj8, ss.PhaseState(q, np.zeros(24)), coincident)):
        for closure in ss.build_step_system("s3-corrected", model, s, 0.05):
            with pytest.raises(ss.SingularityError):
                closure(singular)
            with pytest.raises(ValueError, match="dimension mismatch"):
                closure(np.append(s.q, 0.5))


# ----------------------------------------------------------------- s3 steps

def test_corrected_step_free_exact():
    m = ss.make_model("free", dimension=1)
    r = ss.step("s3-corrected", m, ss.PhaseState([0.3], [0.7]), 0.5)
    assert r.state.q[0] == pytest.approx(0.65, abs=1e-15)
    # momentum is recomputed as M(x - a)/h, so it carries the same roundoff
    assert r.state.p[0] == pytest.approx(0.7, abs=1e-15)


def test_corrected_step_harmonic_sine_start(harmonic):
    r = ss.step("s3-corrected", harmonic, ss.PhaseState([0.0], [1.0]), 0.1)
    assert r.state.q[0] == pytest.approx(60 / 601, abs=1e-15)
    assert r.state.p[0] == pytest.approx(598 / 601, abs=1e-15)
    # one step of the exact flow for scale: sin(0.1), cos(0.1)
    assert abs(r.state.q[0] - np.sin(0.1)) < 3e-7


def test_printed_step_moves_away_from_equilibrium(harmonic):
    r = ss.step("s3-printed", harmonic, ss.PhaseState([1.0], [0.0]), 0.1)
    assert r.state.q[0] == pytest.approx(602 / 599, abs=1e-15)
    assert r.state.p[0] == pytest.approx(0.1002504, abs=1e-7)
    assert r.state.q[0] > 1.0 and r.state.p[0] > 0.0


def test_newton_converges_in_one_iteration_on_quadratic(harmonic):
    r = ss.step("s3-corrected", harmonic, ss.PhaseState([1.0], [0.0]), 0.1)
    assert r.solver.converged
    assert r.solver.iterations <= 1
    # d = 24 with random masses: the diagonal J(a) is inverted without
    # LAPACK, and the first update still meets the tolerance.  The step may
    # make a second update at round-off, which only passes the stop rule's
    # round-off test (LAPACK's inverse needs it too).
    rng = np.random.default_rng(8)
    wide = ss.make_model("harmonic", dimension=24, omega=1.3,
                         mass=rng.uniform(0.5, 2.0, size=24))
    s = ss.PhaseState(rng.normal(size=24), rng.normal(size=24))
    residual, _ = ss.build_step_system("s3-corrected", wide, s, 0.1)
    J = np.diag(wide.mass / 0.1 + (0.1 / 6) * 1.3 ** 2)
    _, first = ss.solve_newton(residual, lambda x: J, s.q,
                               ss.SolverConfig(max_iterations=1))
    assert first.iterations == 1
    assert first.final_residual_norm <= ss.SolverConfig().tolerance
    r = ss.step("s3-corrected", wide, s, 0.1)
    assert r.solver.converged
    assert r.solver.iterations <= 2


def test_step_momentum_is_the_momentum_update(kepler):
    """A step's p' equals its scheme's momentum update at its x, with g(x)
    evaluated afresh, bit for bit, although the step reuses the g(x) its
    residual computed at the last iterate: from the e = 0.3 perihelion, and
    from 1020 seeded states of Kepler and of the unit oscillator (d = 1) at
    h in {0.01, 0.05, 0.1}, for every variant."""
    from symstep import integrators
    from test_acceptance import kepler_ring_state

    oscillator = ss.make_model("harmonic", dimension=1, omega=1.0)
    rng = np.random.default_rng(2305)
    cases = [(kepler, ss.PhaseState(*ss.kepler_start(0.3)), 0.05)]
    for _ in range(170):
        for h in (0.01, 0.05, 0.1):
            cases.append((kepler, kepler_ring_state(rng), h))
            cases.append((oscillator, ss.PhaseState(rng.normal(size=1),
                                                    rng.normal(size=1)), h))
    steps, differ = 0, []
    for model, s, h in cases:
        for variant in S3_VARIANTS:
            try:
                r = ss.step(variant, model, s, h)
            except ss.StepError:
                continue
            steps += 1
            scheme = integrators._scheme(variant, model, h)
            a, x = (scheme.form(v) for v in (s.q, r.state.q))
            p, _ = scheme.momentum(a, x, scheme.form(model.gradient(s.q)))
            if np.asarray(p).tobytes() != r.state.p.tobytes():
                differ.append((model.name, variant, h, s))
    assert steps >= 3000
    assert differ == []


def float_step_cases(rng):
    """2000 seeded (model, state, h, solver config) at d <= 2: Kepler ring
    states, the oscillator at d = 1 and 2 with random masses, and the
    quartic well, with h from 0.003 to 0.2; one in 20 allows one update
    only, too few to converge.  Then the s3-printed oscillator whose J is
    exactly zero (test_zero_jacobian_reports_singular_jacobian)."""
    from test_acceptance import kepler_ring_state
    from test_models import QuarticWell

    kepler, quartic = ss.make_model("kepler"), QuarticWell(2)
    one_update = ss.SolverConfig(max_iterations=1)
    for k in range(2000):
        h = float(np.exp(rng.uniform(np.log(0.003), np.log(0.2))))
        cfg = one_update if k % 20 == 19 else None
        d = (2, 1, 2, 2)[k % 4]
        if k % 4 == 0:
            model, s = kepler, kepler_ring_state(rng)
        else:
            model = quartic if k % 4 == 3 else ss.make_model(
                "harmonic", dimension=d, omega=rng.uniform(0.5, 3.0),
                mass=rng.uniform(0.5, 2.0, size=d))
            s = ss.PhaseState(rng.normal(size=d), rng.normal(size=d))
        yield model, s, h, cfg
    yield (ss.make_model("harmonic", dimension=1, omega=1.0, mass=1.5),
           ss.PhaseState([1.0], [0.0]), 3.0, None)


def test_float_step_matches_the_array_step():
    """At d <= 2 an implicit step runs on FLOAT_STEP, Python floats, and the
    same scheme on ARRAY_STEP, the set of d > 2, is its reference.  On 6003
    seeded steps the two agree on whether the step converges and on the
    cause of a failure, x to 2 ulp(1 + ||x||) and p' to 2 (max m/|h|)
    ulp(1 + ||x||) + 2 ulp(||p'||).  They differ only where BLAS fuses a
    multiply-add in a 2 x 2 matrix-vector product."""
    from symstep import integrators

    def one_step(step_set, variant, model, s, h, cfg):
        scheme = integrators._Implicit(variant, model, h, cfg, step_set)
        q = scheme.form(s.q)
        try:
            x, pn, _, report = scheme.advance(q, scheme.form(s.p), scheme.start(q))
        except ss.StepError as err:
            return None, None, err.report.cause
        return np.asarray(x), np.asarray(pn), report.cause

    causes = []
    for model, s, h, cfg in float_step_cases(np.random.default_rng(2306)):
        for variant in S3_VARIANTS:
            x, p, cause = one_step(integrators.ARRAY_STEP, variant, model, s, h, cfg)
            fx, fp, fcause = one_step(integrators.FLOAT_STEP, variant, model,
                                      s, h, cfg)
            assert fcause == cause, (model.name, variant, h, s)
            causes.append(cause)
            if x is None:
                continue
            ulp = np.spacing(1.0 + np.abs(x).max())
            assert np.abs(fx - x).max() <= 2 * ulp
            assert np.abs(fp - p).max() <= (2 * model.mass.max() / h * ulp
                                            + 2 * np.spacing(np.abs(p).max()))
    assert causes.count("") >= 5000
    assert causes.count("max_iterations") >= 250
    assert "singular_jacobian" in causes


def test_time_symmetry_single_step(kepler):
    """One step forward, then one step backward with -h, returns the start."""
    s = ss.PhaseState(*ss.kepler_start(0.3))
    for variant in ALL_VARIANTS:
        fwd = ss.step(variant, kepler, s, 0.05)
        back = ss.step(variant, kepler, fwd.state, -0.05)
        assert joint_distance(back.state, s) <= 1e-12, str(variant)


def test_invalid_h_rejected(harmonic):
    s = ss.PhaseState([1.0], [0.0])
    with pytest.raises(ValueError):
        ss.step("verlet", harmonic, s, 0.0)
    with pytest.raises(ValueError):
        ss.step("s3-corrected", harmonic, s, np.inf)


def test_unknown_variant_rejected(harmonic):
    with pytest.raises(ValueError):
        ss.step("rk4", harmonic, ss.PhaseState([1.0], [0.0]), 0.1)


@pytest.mark.parametrize("operation", [
    lambda m, s: ss.build_step_system("verlet", m, s, 0.1),
    lambda m, s: ss.s3_momentum_update("verlet", m, s.q, s.q, 0.1),
    lambda m, s: ss.step_action("verlet", m, s.q, s.q, 0.1),
], ids=["build_step_system", "s3_momentum_update", "step_action"])
def test_s3_operations_reject_verlet(harmonic, operation):
    with pytest.raises(ValueError, match="verlet is explicit"):
        operation(harmonic, ss.PhaseState([1.0], [0.0]))


def test_step_failure_raises_with_report(kepler):
    s = ss.PhaseState([1.0, 0.0], [0.0, 1.0])
    cfg = ss.SolverConfig(tolerance=1e-30, max_iterations=3)
    with pytest.raises(ss.StepError) as err:
        ss.step("s3-corrected", kepler, s, 0.01, cfg)
    assert not err.value.report.converged
    assert err.value.report.iterations == 3


def test_zero_jacobian_reports_singular_jacobian():
    """omega = 1, m = 1.5, h = 3: the s3-printed Jacobian
    m/h + (h/12)(cx + cb) omega^2 = 0.5 - 0.5 is exactly zero."""
    m = ss.make_model("harmonic", dimension=1, omega=1.0, mass=1.5)
    s = ss.PhaseState([1.0], [0.0])
    with pytest.raises(ss.StepError) as err:
        ss.step("s3-printed", m, s, 3.0)
    report = err.value.report
    assert report.cause == "singular_jacobian"
    assert report.iterations == 0
    traj = ss.integrate(m, "s3-printed", s, 3.0, 4)
    assert traj.failed_step == 1
    assert traj.failure.cause == "singular_jacobian"


def test_chord_without_contraction_refreshes_the_jacobian():
    """From perihelion at e = 0.9 the Hessian changes so much over a step of
    h = 0.05 that the first update on J(a) raises the residual.  It is
    halved twice; the quarter update does not halve the residual, so the
    step re-inverts J there, once, and converges: three Hessian calls (the
    start, the refresh and the momentum update), where the full-Newton
    restart from the Verlet predictor that this replaced made six.  The
    step is newton_loop on FLOAT_OPS over its scheme's own system closures
    from x = a with j0 = J(a), plus the scheme's momentum update, bit for
    bit."""
    from symstep import integrators
    from symstep.models import KeplerModel
    from symstep.solvers import FLOAT_OPS, newton_loop

    s, h = ss.PhaseState(*ss.kepler_start(0.9)), 0.05
    model = counting(KeplerModel)()
    r = ss.step("s3-corrected", model, s, h)
    assert r.solver.converged
    assert model.n_hessian == 3
    scheme = integrators._scheme(ss.SchemeVariant.S3_CORRECTED, model, h)
    assert scheme.ops is FLOAT_OPS
    a, p = s.q.tolist(), s.p.tolist()
    ev = scheme.start(a)
    residual, jacobian, _, _ = scheme.system(a, p, *ev, *scheme.hooks)
    x, report = newton_loop(residual, jacobian, a, ss.SolverConfig(), None,
                            jacobian(a), FLOAT_OPS)
    assert report == r.solver
    npt.assert_array_equal(r.state.q, x)
    npt.assert_array_equal(r.state.p, scheme.momentum(a, x, ev[0])[0])


def test_step_into_singularity_raises(kepler):
    # momentum tuned so the position update lands exactly on the origin:
    # x = q + h (p - (h/2) g(q)) with g((1,0)) = (1,0)
    s = ss.PhaseState([1.0, 0.0], [-9.95, 0.0])
    with pytest.raises(ss.SingularityError):
        ss.step("verlet", kepler, s, 0.1)


@pytest.mark.parametrize("variant", S3_VARIANTS)
@pytest.mark.parametrize("case", ["kepler-origin", "lj-coincident"])
def test_singular_start(case, variant):
    """A singular start raises SingularityError from a single step and fails
    integrate at step 1 with cause non_finite."""
    if case == "kepler-origin":
        model, q = ss.make_model("kepler"), np.zeros(2)
    else:
        model, q = ss.make_model("lj-cluster", dimension=9), np.zeros(9)
        q[3:6] = [1.1, 0.0, 0.0]  # atoms 0 and 2 coincide at the origin
    s = ss.PhaseState(q, np.full(q.size, 0.1))
    with pytest.raises(ss.SingularityError):
        ss.step(variant, model, s, 0.01)
    traj = ss.integrate(model, variant, s, 0.01, 5)
    assert traj.failed_step == 1
    assert traj.failure.cause == "non_finite"
    assert len(traj) == 1


# ------------------------------------------------------------------- action

def test_step_action_derivatives_recover_momenta(harmonic):
    """dS/da = -p and dS/dx = +p' — the scalar function generates the step."""
    a = np.array([1.0])
    s = ss.PhaseState(a, np.array([0.0]))
    h, eps = 0.1, 1e-6
    for variant in S3_VARIANTS:
        r = ss.step(variant, harmonic, s, h)
        x = r.state.q
        dSda = (ss.step_action(variant, harmonic, a + eps, x, h)
                - ss.step_action(variant, harmonic, a - eps, x, h)) / (2 * eps)
        dSdx = (ss.step_action(variant, harmonic, a, x + eps, h)
                - ss.step_action(variant, harmonic, a, x - eps, h)) / (2 * eps)
        assert dSda == pytest.approx(-s.p[0], abs=1e-8), str(variant)
        assert dSdx == pytest.approx(r.state.p[0], abs=1e-8), str(variant)


# ---------------------------------------------------------------- integrate

def test_integrate_record_count(harmonic):
    s = ss.PhaseState([1.0], [0.0])
    traj = ss.integrate(harmonic, "verlet", s, 0.1, 10)
    assert len(traj) == 11
    npt.assert_allclose(traj.times, np.arange(11) * 0.1, rtol=0, atol=1e-15)


def test_integrate_record_stride(harmonic):
    s = ss.PhaseState([1.0], [0.0])
    traj = ss.integrate(harmonic, "verlet", s, 0.1, 10, record_stride=5)
    assert len(traj) == 3
    npt.assert_allclose(traj.times, [0.0, 0.5, 1.0], rtol=0, atol=1e-15)


def test_integrate_stride_must_divide(harmonic):
    s = ss.PhaseState([1.0], [0.0])
    with pytest.raises(ValueError):
        ss.integrate(harmonic, "verlet", s, 0.1, 10, record_stride=3)


@pytest.mark.parametrize("n_steps, record_stride", [(10.7, 1), (10, 2.5), (0, 1),
                                                   (10, -5), (np.inf, 1), (np.nan, 1)])
def test_integrate_rejects_counts_that_are_not_integers_ge_1(harmonic, n_steps,
                                                             record_stride):
    """A count is refused, not truncated: n_steps = 10.7 ran 10 steps, and
    n_steps = inf raised OverflowError."""
    s = ss.PhaseState([1.0], [0.0])
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        ss.integrate(harmonic, "verlet", s, 0.1, n_steps, record_stride=record_stride)


def test_reversibility_error_rejects_a_non_integral_count(harmonic):
    with pytest.raises(ValueError, match="n_steps must be an integer >= 1"):
        ss.reversibility_error("verlet", harmonic, ss.PhaseState([1.0], [0.0]), 0.1,
                               10.7)


def test_integrate_accepts_integral_counts(harmonic):
    """10.0 and numpy integers are counts, as int() read them before."""
    s = ss.PhaseState([1.0], [0.0])
    want = ss.integrate(harmonic, "s3-corrected", s, 0.1, 10, record_stride=5)
    for n, stride in ((10.0, 5.0), (np.int64(10), np.int32(5)), (np.float64(10), 5)):
        traj = ss.integrate(harmonic, "s3-corrected", s, 0.1, n, record_stride=stride)
        assert type(traj.record_stride) is int
        npt.assert_array_equal(traj.q, want.q)
        npt.assert_array_equal(traj.p, want.p)


def test_integrate_verlet_circular_orbit_near_period(kepler):
    """628 steps of h=0.01 is t=6.28, just short of one period 2pi; the
    integrator itself tracks the true flow to a few 1e-4."""
    s = ss.PhaseState([1.0, 0.0], [0.0, 1.0])
    traj = ss.integrate(kepler, "verlet", s, 0.01, 628)
    final = traj.final_state()
    t = 6.28
    exact = ss.PhaseState([np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)])
    assert joint_distance(final, exact) <= 3e-4
    # distance to the start is dominated by the 2pi - 6.28 arc gap
    gap = joint_distance(final, s)
    assert 2e-3 <= gap <= 4e-3


@pytest.mark.xfail(strict=True,
                   reason="628 steps of h=0.01 stop 0.0032 rad short of a "
                          "full period, so the distance to the start cannot "
                          "be below 2e-3 no matter how accurate the method")
def test_integrate_verlet_circular_orbit_closes_to_2e3(kepler):
    s = ss.PhaseState([1.0, 0.0], [0.0, 1.0])
    traj = ss.integrate(kepler, "verlet", s, 0.01, 628)
    assert joint_distance(traj.final_state(), s) <= 2e-3


def engine_case(name):
    """(model, start state, h) for every built-in model and a custom one."""
    from test_acceptance import lj_lattice
    from test_models import QuarticWell

    rng = np.random.default_rng(3)
    if name == "free":
        return (ss.make_model("free", dimension=3),
                ss.PhaseState(rng.normal(size=3), rng.normal(size=3)), 0.1)
    if name == "harmonic":
        return (ss.make_model("harmonic", dimension=3, omega=1.3,
                              mass=[1.0, 2.0, 0.5]),
                ss.PhaseState(rng.normal(size=3), rng.normal(size=3)), 0.1)
    if name == "kepler":
        return ss.make_model("kepler"), ss.PhaseState(*ss.kepler_start(0.3)), 0.05
    if name == "lj8":
        return (ss.make_model("lj-cluster", dimension=24),
                ss.PhaseState(lj_lattice(rng, 8, jitter=0.05),
                              rng.normal(scale=0.3, size=24)), 0.005)
    return QuarticWell(2), ss.PhaseState([1.0, -0.5], [0.0, 0.3]), 0.05


ENGINE_CASES = ["free", "harmonic", "kepler", "lj8", "quartic"]


@pytest.mark.parametrize("variant", [str(v) for v in ALL_VARIANTS])
@pytest.mark.parametrize("case", ENGINE_CASES)
def test_integrate_matches_repeated_steps(case, variant):
    """integrate and a python loop of single steps agree bitwise, for every
    model and variant, up to and including a failing step (s3-printed on
    LJ(8) stops at max_iterations at step 15): both run on the same
    engine."""
    model, s, h = engine_case(case)
    traj = ss.integrate(model, variant, s, h, 20)
    cur = s
    for i in range(20):
        if traj.failed_step == i + 1:
            with pytest.raises(ss.StepError) as err:
                ss.step(variant, model, cur, h)
            assert err.value.report == traj.failure
            return
        cur = ss.step(variant, model, cur, h).state
        npt.assert_array_equal(traj.q[i + 1], cur.q)
        npt.assert_array_equal(traj.p[i + 1], cur.p)


def counting(base):
    """A subclass of the model class base that counts the calls of its
    gradient and Hessian hooks."""

    class Counting(base):
        n_gradient = n_hessian = 0

        def _gradient(self, q):
            self.n_gradient += 1
            return super()._gradient(q)

        def _hessian(self, q):
            self.n_hessian += 1
            return super()._hessian(q)

    return Counting


@pytest.mark.parametrize("variant", [str(v) for v in ALL_VARIANTS])
@pytest.mark.parametrize("case", ["kepler", "lj8"])
def test_evaluation_counts(case, variant):
    """Velocity Verlet makes n + 1 gradient calls over n steps.  An implicit
    step makes one Hessian call and one gradient call per simplified Newton
    update: R(a) reuses g(a), the frozen Jacobian reuses Hs(a), and the
    momentum update reuses the residual's g(x).  Over n steps that is n + 1
    Hessian and 1 + (sum of the steps' iterations) gradient calls."""
    from symstep.models import KeplerModel

    plain, s, h = engine_case(case)
    if case == "kepler":
        model, n = counting(KeplerModel)(), 100
    else:
        model, n = counting(LJClusterModel)(24, 1.0, 1.0), 10
    traj = ss.integrate(model, variant, s, h, n)
    assert not traj.failed
    if variant == "verlet":
        assert (model.n_gradient, model.n_hessian) == (n + 1, 0)
        return
    # integrate equals a loop of step bit for bit, so the loop's reports
    # are integrate's
    iterations = [ss.step(variant, plain, ss.PhaseState(traj.q[i], traj.p[i]),
                          h).solver.iterations for i in range(n)]
    assert min(iterations) >= 1
    assert model.n_hessian == n + 1
    assert model.n_gradient == 1 + sum(iterations)


class CountingPairs(LJClusterModel):
    """Counts the LJ pair passes, that is the pair-term computations, not
    the evaluations that reuse them."""

    n_pairs = 0

    def _pair_terms(self, q):
        self.n_pairs += 1
        return super()._pair_terms(q)


@pytest.mark.parametrize("variant", ["verlet", "s3-corrected"])
def test_one_pair_pass_per_configuration(variant):
    """V, grad V and the Hessian at one configuration share one pair pass.
    integrate evaluates V, g and Hs at the start and, in an implicit step,
    g at each update's iterate and Hs at the last: over n steps that is
    1 + (sum of the steps' iterations) passes, and n + 1 for Verlet."""
    plain, s, h = engine_case("lj8")
    model, n = CountingPairs(24, 1.0, 1.0), 10
    traj = ss.integrate(model, variant, s, h, n)
    assert not traj.failed
    if variant == "verlet":
        assert model.n_pairs == n + 1
        return
    iterations = [ss.step(variant, plain, ss.PhaseState(traj.q[i], traj.p[i]),
                          h).solver.iterations for i in range(n)]
    assert min(iterations) >= 1
    assert model.n_pairs == 1 + sum(iterations)


def test_integrate_rejects_too_many_records():
    """A record buffer that numpy cannot allocate is a one-line ValueError
    naming the record count, raised before any step; numpy refuses this
    shape without allocating it."""
    model, s, h = engine_case("kepler")
    with pytest.raises(ValueError, match=r"^1000000000000000000001 records ") as err:
        ss.integrate(model, "verlet", s, 0.1, 10**21)
    assert "\n" not in str(err.value)


def thermal_lattice(n_atoms, seed=(2016, 0)):
    """A jittered 2 x 2 x (N/4) LJ lattice with thermal momenta (kT = 0.05)
    and no centre-of-mass momentum."""
    idx = np.arange(n_atoms)
    sites = np.stack([idx % 2, (idx // 2) % 2, idx // 4], axis=1) * 2.0 ** (1 / 6)
    rng = np.random.default_rng(list(seed))
    q = sites + rng.normal(scale=0.02, size=sites.shape)
    p = rng.normal(size=sites.shape)
    p -= p.mean(axis=0)
    p *= np.sqrt(0.05 * 3 * (n_atoms - 1) / np.sum(p * p))
    return ss.PhaseState(q.ravel(), p.ravel())


def lj16_floor_case():
    """LJ(16) at h = 0.002 from the thermal lattice: the absolute default
    tolerance lies below the residual's round-off floor there, and step 2
    fails."""
    return thermal_lattice(16), 0.002


def test_step_at_the_residual_floor_fails_without_fallback():
    """A chord stuck at its round-off floor above the tolerance stops with
    cause residual_floor after a few updates.  Full Newton would meet the
    same floor, so the step makes no fallback: the failing step evaluates
    no Hessian."""
    s, h = lj16_floor_case()
    model = counting(LJClusterModel)(48, 1.0, 1.0)
    traj = ss.integrate(model, "s3-corrected", s, h, 10)
    assert traj.failed_step == 2
    assert traj.failure.cause == CAUSE_RESIDUAL_FLOOR
    assert traj.failure.iterations <= 6
    assert traj.failure.final_residual_norm > ss.SolverConfig().tolerance
    # one Hessian at the start, one at the end of step 1
    assert model.n_hessian == 2


def coarse_step_runs():
    """84 runs through strongly curved regions at coarse steps: one Kepler
    orbit from perihelion for e in {0, 0.5, 0.8, 0.9}, h in {0.01, 0.05,
    0.1, 0.2, 0.4} and the three s3 variants, and 50 steps of the LJ(8) and
    LJ(16) thermal lattices for h in {0.002, 0.005, 0.01, 0.02, 0.05, 0.1},
    s3-corrected and s3-generating."""
    for e in (0.0, 0.5, 0.8, 0.9):
        for h in (0.01, 0.05, 0.1, 0.2, 0.4):
            for variant in S3_VARIANTS:
                yield ((f"kepler-{e}", h, str(variant)), ss.make_model("kepler"),
                       ss.PhaseState(*ss.kepler_start(e)), round(2 * np.pi / h))
    for n_atoms in (8, 16):
        for h in (0.002, 0.005, 0.01, 0.02, 0.05, 0.1):
            for variant in ("s3-corrected", "s3-generating"):
                yield ((f"lj{n_atoms}", h, variant),
                       ss.make_model("lj-cluster", dimension=3 * n_atoms),
                       thermal_lattice(n_atoms), 50)


# the coarse-step runs that fail, with their failed step and cause: the
# same as under the full-Newton restart from the Verlet predictor that the
# Jacobian refresh replaced.  That restart also failed LJ(16) s3-corrected
# at h = 0.1 (step 47, max_iterations), which now converges.
COARSE_STEP_FAILURES = {
    ("kepler-0.8", 0.01, "s3-printed"): (400, "residual_floor"),
    ("kepler-0.9", 0.01, "s3-printed"): (277, "residual_floor"),
    ("kepler-0.9", 0.1, "s3-printed"): (49, "residual_floor"),
    ("kepler-0.9", 0.1, "s3-generating"): (51, "residual_floor"),
    ("lj8", 0.1, "s3-generating"): (4, "max_iterations"),
    ("lj16", 0.002, "s3-corrected"): (2, "residual_floor"),
    ("lj16", 0.002, "s3-generating"): (2, "residual_floor"),
    ("lj16", 0.05, "s3-generating"): (21, "max_iterations"),
    ("lj16", 0.1, "s3-generating"): (1, "max_iterations"),
}


def test_coarse_steps_converge_or_report():
    """On coarse steps the chord on J(a) often stops contracting, and the
    loop refreshes J.  75 of the 84 runs converge; each of the other 9
    fails at its recorded step with its recorded cause, never with an
    exception."""
    for key, model, s, n in coarse_step_runs():
        traj = ss.integrate(model, key[2], s, key[1], n)
        if key not in COARSE_STEP_FAILURES:
            assert not traj.failed, key
            continue
        assert (traj.failed_step, traj.failure.cause) == COARSE_STEP_FAILURES[key]
        assert len(traj) == traj.failed_step


# (n_atoms, lattice seed, h, max |H - H0|): s3-generating runs of 50 steps,
# each with a step on which the first update on J(a) raises the residual.
# The full-Newton restart from the Verlet predictor converged on every step,
# and max |H - H0| is the value its roots reached.
ROOT_CHOICE_RUNS = [
    (8, (4, 8), 0.1, 47.533466483656),
    (16, (13, 16), 0.05, 62.246925634404),
    (16, (17, 16), 0.05, 330.219054718592),
    (16, (18, 16), 0.05, 28.382276740827),
    (8, (21, 8), 0.05, 31.074009223242),
]


@pytest.mark.parametrize("n_atoms, seed, h, max_dh", ROOT_CHOICE_RUNS)
def test_coarse_steps_keep_their_roots(n_atoms, seed, h, max_dh):
    """Halving every update that raises the residual, or taking every one
    whole, loses some of these runs: each takes a saddle root (H - H0 up to
    3e3) and then fails, or fails outright."""
    model = ss.make_model("lj-cluster", dimension=3 * n_atoms)
    s = thermal_lattice(n_atoms, seed)
    traj = ss.integrate(model, "s3-generating", s, h, 50)
    assert not traj.failed
    H = [ss.hamiltonian_energy(model, ss.PhaseState(q, p)).total
         for q, p in zip(traj.q, traj.p)]
    assert np.max(np.abs(np.array(H) - H[0])) == pytest.approx(max_dh, rel=1e-8)


def agreement_case(name, rng):
    """(model, state, h, reference tolerance) for a seeded random state.
    The reference tolerance is the tightest that full Newton (newton_lu)
    attains there: it stops as soon as the residual is below it, so its x
    is only that accurate."""
    from test_acceptance import kepler_ring_state, lj_lattice

    if name == "kepler":
        return ss.make_model("kepler"), kepler_ring_state(rng), 0.05, 1e-14
    if name == "lj8":
        return (ss.make_model("lj-cluster", dimension=24),
                ss.PhaseState(lj_lattice(rng, 8, jitter=0.05),
                              rng.normal(scale=0.3, size=24)), 0.005, 1e-13)
    return (ss.make_model("harmonic", dimension=3, omega=1.3,
                          mass=rng.uniform(0.5, 2.0, size=3)),
            ss.PhaseState(rng.normal(size=3), rng.normal(size=3)), 0.1, 1e-14)


@pytest.mark.parametrize("case", ["kepler", "lj8", "harmonic"])
def test_chord_step_matches_full_newton(case):
    """A step (the chord on J(a) from the start point) agrees with full
    Newton, an LU solve per iterate, on the build_step_system closures,
    started from the Verlet predictor, plus s3_momentum_update: both solve
    the same equation to round-off."""
    from reference_loops import newton_lu

    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        model, s, h, tol = agreement_case(case, rng)
        for variant in S3_VARIANTS:
            r = ss.step(variant, model, s, h)
            residual, jacobian = ss.build_step_system(variant, model, s, h)
            x0 = s.q + h * (s.p - 0.5 * h * model.gradient(s.q)) / model.mass
            x, converged = newton_lu(residual, jacobian, x0, tol)
            assert converged
            p = ss.s3_momentum_update(variant, model, s.q, x, h)
            for new, ref in ((r.state.q, x), (r.state.p, p)):
                worst = max(worst, np.max(np.abs(new - ref)
                                          / np.maximum(1.0, np.abs(ref))))
    assert worst <= 1e-13


def transfer_matrix(variant, h):
    """The one-step map of the unit oscillator (omega = m = 1) as a 2 x 2
    matrix, from its images of (1, 0) and (0, 1)."""
    model = ss.make_model("harmonic", dimension=1, omega=1.0)
    cols = [ss.step(variant, model, ss.PhaseState([q], [p]), h).state
            for q, p in ((1.0, 0.0), (0.0, 1.0))]
    return np.array([[c.q[0] for c in cols], [c.p[0] for c in cols]])


@pytest.mark.parametrize("variant, z_star", [
    ("verlet", 2.0),
    ("s3-corrected", 2.0 * np.sqrt(3.0)),
    ("s3-generating", np.sqrt(12.0 / 5.0)),
])
def test_stability_interval_edge(variant, z_star):
    """On the oscillator each step is linear with det 1 (symplectic), so it
    is stable exactly while |trace|/2 < 1.  The trace is 2A with
    A = (1 + z^2 (cb - ca)/12) / (1 + z^2 (cb + cx)/12), z = h omega, which
    puts the edge at z* = 2 for Verlet, 2 sqrt(3) for s3-corrected and
    sqrt(12/5) for s3-generating (narrower than Verlet's)."""
    for z, stable in ((z_star * (1 - 1e-9), True), (z_star * (1 + 1e-9), False)):
        T = transfer_matrix(variant, z)
        assert abs(np.linalg.det(T) - 1.0) <= 1e-12
        assert (abs(np.trace(T)) / 2 < 1) == stable, z


@pytest.mark.parametrize("h", [0.01, 0.1, 1.0])
def test_stability_printed_unstable(h):
    """s3-printed is the corrected map on -V: hyperbolic at every h."""
    T = transfer_matrix("s3-printed", h)
    assert abs(np.linalg.det(T) - 1.0) <= 1e-12
    assert abs(np.trace(T)) / 2 > 1


def test_action_signs_derive_the_coefficient_triple():
    """For a general V (d = 1), the action with signs (sv, sg) gives
    -dS/da = R + p and dS/dx = p' with (ca, cx, cb) = (-6 sv - sg, sg, sg).
    On the unit oscillator its step matrix has det 1 and trace
    2 (6 + (3 sv + sg) z^2) / (6 + sg z^2), z = h; at sv = -1 the trace
    reaches -2 at z*^2 = 12 / (3 - 2 sg), the edges that
    test_stability_interval_edge checks.  The step matrix that step() gives
    at z = 0.1 matches the symbolic one for every variant, Verlet as the
    (-1, 0) member."""
    import sympy as sp
    from symstep.integrators import _S3_SIGNS

    a, x, p, h, M, z, sv, sg = sp.symbols("a x p h M z s_v s_g", real=True)

    def action(V, h, M):
        """step_action's S(a, x) in one dimension."""
        D = x - a
        return (M * D ** 2 / (2 * h) + sv * (h / 2) * (V(a) + V(x))
                + sg * (h / 12) * (sp.diff(V(x), x) - sp.diff(V(a), a)) * D)

    V = sp.Function("V")
    g, Hs = (lambda q: sp.diff(V(q), q)), (lambda q: sp.diff(V(q), q, 2))
    ca, cx, cb = -6 * sv - sg, sg, sg
    S = action(V, h, M)
    R_plus_p = M * (x - a) / h + h / 12 * (ca * g(a) + cx * g(x) + cb * Hs(a) * (x - a))
    p_new = M * (x - a) / h + h / 12 * (-cx * g(a) - ca * g(x) + cb * Hs(x) * (x - a))
    assert sp.expand(-sp.diff(S, a) - R_plus_p) == 0
    assert sp.expand(sp.diff(S, x) - p_new) == 0

    S = action(lambda q: q ** 2 / 2, z, 1)
    x_new = sp.solve(sp.Eq(p, -sp.diff(S, a)), x)[0]
    T = sp.Matrix([x_new, sp.diff(S, x).subs(x, x_new)]).jacobian([a, p])
    assert sp.simplify(T.det() - 1) == 0
    trace = 2 * (6 + (3 * sv + sg) * z ** 2) / (6 + sg * z ** 2)
    assert sp.simplify(T.trace() - trace) == 0
    edge = sp.solve(sp.Eq(trace.subs(sv, -1), -2), z ** 2)
    assert [sp.simplify(e - 12 / (3 - 2 * sg)) for e in edge] == [0]

    signs = {ss.SchemeVariant.VERLET: (-1, 0), **_S3_SIGNS}
    assert set(signs) == set(ss.SchemeVariant)
    for variant, (v, w) in signs.items():
        want = np.array(T.subs({sv: v, sg: w, z: 0.1}).evalf(30), dtype=float)
        npt.assert_allclose(transfer_matrix(variant, 0.1), want,
                            rtol=0, atol=1e-14, err_msg=str(variant))


@pytest.mark.parametrize("h", [0.1, 0.05, 0.025])
def test_equal_step_energy_error_ratios(h):
    """The paper's accuracy claim at equal h, on the unit oscillator from
    (q, p) = (1, 0) over 10 periods: to leading order max |dH| is h^2 E / 4
    for Verlet, h^2 E / 12 for s3-corrected and 5 h^2 E / 12 for
    s3-generating, so the ratios are 3 and 5/3."""
    model = ss.make_model("harmonic", dimension=1, omega=1.0)
    s = ss.PhaseState([1.0], [0.0])
    n = round(20 * np.pi / h)
    dh = {v: ss.energy_drift(ss.integrate(model, v, s, h, n), model).max_abs
          for v in ("verlet", "s3-corrected", "s3-generating")}
    assert dh["verlet"] / dh["s3-corrected"] == pytest.approx(3.0, rel=1e-3)
    assert dh["s3-generating"] / dh["verlet"] == pytest.approx(5 / 3, rel=1e-3)


def test_integrate_is_deterministic(kepler):
    s = ss.PhaseState(*ss.kepler_start(0.3))
    a = ss.integrate(kepler, "s3-corrected", s, 0.05, 50)
    b = ss.integrate(kepler, "s3-corrected", s, 0.05, 50)
    npt.assert_array_equal(a.q, b.q)
    npt.assert_array_equal(a.p, b.p)


def test_integrate_generic_path_custom_model():
    from test_models import QuarticWell

    m = QuarticWell(2)
    s = ss.PhaseState([1.0, -0.5], [0.0, 0.3])
    traj = ss.integrate(m, "s3-corrected", s, 0.05, 40)
    assert not traj.failed
    drift = ss.energy_drift(traj, m)
    assert drift.max_abs < 1e-3


def test_integrate_solver_failure_is_recorded(kepler):
    s = ss.PhaseState([1.0, 0.0], [0.0, 1.0])
    cfg = ss.SolverConfig(tolerance=1e-30, max_iterations=2)
    traj = ss.integrate(kepler, "s3-corrected", s, 0.01, 10, solver_cfg=cfg)
    assert traj.failed
    assert traj.failed_step == 1
    assert len(traj) == 1  # only the initial record survives
    assert not traj.failure.converged


def test_integrate_singularity_is_recorded(kepler):
    s = ss.PhaseState([1.0, 0.0], [-9.95, 0.0])
    traj = ss.integrate(kepler, "verlet", s, 0.1, 5)
    assert traj.failed
    assert traj.failed_step == 1


def test_integrate_negative_h_runs_backwards(harmonic):
    s = ss.PhaseState([1.0], [0.0])
    fwd = ss.integrate(harmonic, "verlet", s, 0.1, 10)
    back = ss.integrate(harmonic, "verlet", fwd.final_state(), -0.1, 10)
    assert joint_distance(back.final_state(), s) <= 1e-13
    assert back.times[-1] == pytest.approx(-1.0)


def test_integrate_validates_arguments(harmonic):
    s = ss.PhaseState([1.0], [0.0])
    with pytest.raises(ValueError):
        ss.integrate(harmonic, "verlet", s, 0.1, 0)
    with pytest.raises(ValueError):
        ss.integrate(harmonic, "verlet", s, 0.1, 10, record_stride=0)


def test_trajectory_metadata(kepler):
    s = ss.PhaseState(*ss.kepler_start(0.3))
    traj = ss.integrate(kepler, "s3-corrected", s, 0.05, 10)
    assert traj.model_name == "kepler"
    assert traj.variant == ss.SchemeVariant.S3_CORRECTED
    assert traj.h == 0.05
    assert traj.initial_energy.total == pytest.approx(-0.5, abs=1e-12)
    states = [ss.PhaseState(q, p) for q, p in zip(traj.q, traj.p)]
    assert len(states) == 11
    assert states[0] == s


def test_every_export_resolves():
    """No name in __all__ outlives the object it names."""
    missing = [name for name in ss.__all__ if not hasattr(ss, name)]
    assert missing == []
    namespace = {}
    exec("from symstep import *", namespace)
    assert set(ss.__all__) <= set(namespace)


def test_as_variant_accepts_names_and_members():
    assert ss.as_variant("verlet") is ss.SchemeVariant.VERLET
    assert ss.as_variant(ss.SchemeVariant.S3_PRINTED) is ss.SchemeVariant.S3_PRINTED
    with pytest.raises(ValueError):
        ss.as_variant("s3")
    assert str(ss.SchemeVariant.S3_CORRECTED) == "s3-corrected"
