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
    r = ss.verlet_step(m, ss.PhaseState([0.3], [0.7]), 0.5)
    assert r.state.q[0] == pytest.approx(0.65, abs=1e-15)
    assert r.state.p[0] == 0.7


def test_verlet_harmonic_hand_values(harmonic):
    r = ss.verlet_step(harmonic, ss.PhaseState([1.0], [0.0]), 0.1)
    assert r.state.q[0] == pytest.approx(0.995, abs=1e-16)
    assert r.state.p[0] == pytest.approx(-0.09975, abs=1e-16)


def test_verlet_preserves_angular_momentum(kepler):
    r = ss.verlet_step(kepler, ss.PhaseState([1.0, 0.0], [0.0, 1.0]), 0.1)
    q, p = r.state.q, r.state.p
    assert q[0] * p[1] - q[1] * p[0] == pytest.approx(1.0, abs=1e-14)


def test_verlet_solver_report_is_trivial(harmonic):
    r = ss.verlet_step(harmonic, ss.PhaseState([1.0], [0.0]), 0.1)
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


# ----------------------------------------------------------------- s3 steps

def test_corrected_step_free_exact():
    m = ss.make_model("free", dimension=1)
    r = ss.s3_step("s3-corrected", m, ss.PhaseState([0.3], [0.7]), 0.5)
    assert r.state.q[0] == pytest.approx(0.65, abs=1e-15)
    # momentum is recomputed as M(x - a)/h, so it carries the same roundoff
    assert r.state.p[0] == pytest.approx(0.7, abs=1e-15)


def test_corrected_step_harmonic_sine_start(harmonic):
    r = ss.s3_step("s3-corrected", harmonic, ss.PhaseState([0.0], [1.0]), 0.1)
    assert r.state.q[0] == pytest.approx(60 / 601, abs=1e-15)
    assert r.state.p[0] == pytest.approx(598 / 601, abs=1e-15)
    # one step of the exact flow for scale: sin(0.1), cos(0.1)
    assert abs(r.state.q[0] - np.sin(0.1)) < 3e-7


def test_printed_step_moves_away_from_equilibrium(harmonic):
    r = ss.s3_step("s3-printed", harmonic, ss.PhaseState([1.0], [0.0]), 0.1)
    assert r.state.q[0] == pytest.approx(602 / 599, abs=1e-15)
    assert r.state.p[0] == pytest.approx(0.1002504, abs=1e-7)
    assert r.state.q[0] > 1.0 and r.state.p[0] > 0.0


def test_step_dispatch_matches_specific_entry_points(harmonic):
    s = ss.PhaseState([0.4], [-0.2])
    v = ss.step("verlet", harmonic, s, 0.1)
    assert v.state == ss.verlet_step(harmonic, s, 0.1).state
    c = ss.step(ss.SchemeVariant.S3_CORRECTED, harmonic, s, 0.1)
    assert c.state == ss.s3_step("s3-corrected", harmonic, s, 0.1).state


def test_newton_converges_in_one_iteration_on_quadratic(harmonic):
    r = ss.s3_step("s3-corrected", harmonic, ss.PhaseState([1.0], [0.0]), 0.1)
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
    _, first = ss.solve_newton(residual, J, s.q, ss.SolverConfig(max_iterations=1))
    assert first.iterations == 1
    assert first.final_residual_norm <= ss.SolverConfig().tolerance
    r = ss.s3_step("s3-corrected", wide, s, 0.1)
    assert r.solver.converged
    assert r.solver.iterations <= 2


def test_step_momentum_is_the_momentum_update(kepler):
    """A step's p' equals s3_momentum_update at its x bit for bit, although
    the step reuses the g(x) its residual computed at the last iterate."""
    s = ss.PhaseState(*ss.kepler_start(0.3))
    for variant in S3_VARIANTS:
        r = ss.s3_step(variant, kepler, s, 0.05)
        npt.assert_array_equal(
            r.state.p, ss.s3_momentum_update(variant, kepler, s.q, r.state.q, 0.05))


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
        ss.verlet_step(harmonic, s, 0.0)
    with pytest.raises(ValueError):
        ss.s3_step("s3-corrected", harmonic, s, np.inf)


def test_unknown_variant_rejected(harmonic):
    with pytest.raises(ValueError):
        ss.step("rk4", harmonic, ss.PhaseState([1.0], [0.0]), 0.1)
    with pytest.raises(ValueError):
        ss.s3_step("verlet", harmonic, ss.PhaseState([1.0], [0.0]), 0.1)


def test_step_failure_raises_with_report(kepler):
    s = ss.PhaseState([1.0, 0.0], [0.0, 1.0])
    cfg = ss.SolverConfig(tolerance=1e-30, max_iterations=3)
    with pytest.raises(ss.StepError) as err:
        ss.s3_step("s3-corrected", kepler, s, 0.01, cfg)
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


def test_chord_without_contraction_falls_back_to_full_newton(kepler):
    """From perihelion at e = 0.9 the Hessian changes so much over a step of
    h = 0.05 that the chord on J(a) diverges.  The step then solves with
    full Newton from the Verlet predictor, and equals that solve."""
    s = ss.PhaseState(*ss.kepler_start(0.9))
    h = 0.05
    residual, jacobian = ss.build_step_system("s3-corrected", kepler, s, h)
    x0 = s.q + (s.p - 0.5 * h * kepler.gradient(s.q)) / (kepler.mass / h)
    J_a = jacobian(s.q)
    _, chord = ss.solve_newton(residual, J_a, s.q, ss.SolverConfig())
    assert chord.cause == "no_contraction"
    x, full = ss.solve_newton(residual, jacobian, x0, ss.SolverConfig())
    r = ss.step("s3-corrected", kepler, s, h)
    assert r.solver.converged
    assert r.solver.iterations == chord.iterations + full.iterations
    npt.assert_array_equal(r.state.q, x)
    npt.assert_array_equal(
        r.state.p, ss.s3_momentum_update("s3-corrected", kepler, s.q, x, h))


def test_step_into_singularity_raises(kepler):
    # momentum tuned so the position update lands exactly on the origin:
    # x = q + h (p - (h/2) g(q)) with g((1,0)) = (1,0)
    s = ss.PhaseState([1.0, 0.0], [-9.95, 0.0])
    with pytest.raises(ss.SingularityError):
        ss.verlet_step(kepler, s, 0.1)


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
        ss.s3_step(variant, model, s, 0.01)
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
        r = ss.s3_step(variant, harmonic, s, h)
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


def lj16_floor_case():
    """LJ(16) at h = 0.002 from a jittered 2 x 2 x 4 lattice with thermal
    momenta (kT = 0.05): the absolute default tolerance lies below the
    residual's round-off floor there, and step 2 fails."""
    idx = np.arange(16)
    sites = np.stack([idx % 2, (idx // 2) % 2, idx // 4], axis=1) * 2.0 ** (1 / 6)
    rng = np.random.default_rng([2016, 0])
    q = sites + rng.normal(scale=0.02, size=sites.shape)
    p = rng.normal(size=sites.shape)
    p -= p.mean(axis=0)
    p *= np.sqrt(0.05 * 3 * 15 / np.sum(p * p))
    return ss.PhaseState(q.ravel(), p.ravel()), 0.002


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


def agreement_case(name, rng):
    """(model, state, h, reference tolerance) for a seeded random state.
    The reference tolerance is the tightest that full Newton attains there:
    it stops as soon as the residual is below it, so its x is only that
    accurate."""
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
    """A step (simplified Newton from the start point) agrees with full
    Newton on the build_step_system closures, started from the Verlet
    predictor, plus s3_momentum_update: both solve the same equation to
    round-off."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        model, s, h, tol = agreement_case(case, rng)
        for variant in S3_VARIANTS:
            r = ss.step(variant, model, s, h)
            residual, jacobian = ss.build_step_system(variant, model, s, h)
            x0 = s.q + h * (s.p - 0.5 * h * model.gradient(s.q)) / model.mass
            x, report = ss.solve_newton(residual, jacobian, x0,
                                        ss.SolverConfig(tolerance=tol))
            assert report.converged
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
    states = traj.states
    assert len(states) == 11
    assert states[0] == s


def test_as_variant_accepts_names_and_members():
    assert ss.as_variant("verlet") is ss.SchemeVariant.VERLET
    assert ss.as_variant(ss.SchemeVariant.S3_PRINTED) is ss.SchemeVariant.S3_PRINTED
    with pytest.raises(ValueError):
        ss.as_variant("s3")
    assert str(ss.SchemeVariant.S3_CORRECTED) == "s3-corrected"
