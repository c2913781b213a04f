"""Energy drift, reversibility, symplecticity, convergence order."""

import numpy as np
import numpy.testing as npt
import pytest

import symstep as ss
from symstep.diagnostics import energy_series


@pytest.fixture
def harmonic():
    return ss.make_model("harmonic", dimension=1, omega=1.0)


@pytest.fixture
def kepler():
    return ss.make_model("kepler")


# ------------------------------------------------------------- energy drift

def test_energy_drift_constant_trajectory(harmonic):
    # free particle at rest: every record equals the start
    m = ss.make_model("free", dimension=1)
    traj = ss.integrate(m, "verlet", ss.PhaseState([1.0], [0.0]), 0.1, 10)
    drift = ss.energy_drift(traj, m)
    assert drift.max_abs == 0.0
    npt.assert_array_equal(drift.values, np.zeros(11))


def test_energy_drift_verlet_harmonic_bounded(harmonic):
    traj = ss.integrate(harmonic, "verlet", ss.PhaseState([1.0], [0.0]),
                        0.1, 1000)
    drift = ss.energy_drift(traj, harmonic)
    assert drift.max_abs <= 5e-3
    assert drift.max_abs_second_half <= 1.5 * drift.max_abs_first_half
    assert drift.values[0] == 0.0


def test_energy_drift_printed_harmonic_grows(harmonic):
    """The sign-variant drives the oscillator away from equilibrium: |dH|
    grows monotonically and passes 1e-2 within 100 steps."""
    cfg = ss.SolverConfig(tolerance=1e-9, max_iterations=100)
    traj = ss.integrate(harmonic, "s3-printed", ss.PhaseState([1.0], [0.0]),
                        0.1, 100, solver_cfg=cfg)
    assert not traj.failed
    drift = ss.energy_drift(traj, harmonic)
    assert drift.max_abs > 1e-2
    envelope = np.abs(drift.values)
    assert np.all(np.diff(envelope) > -1e-12)


def _energy_series_per_record(traj, model):
    """energy_series as it was: model.value, with its checks, per record."""
    kinetic = 0.5 * np.sum(traj.p * traj.p / model.mass, axis=1)
    return kinetic + np.array([model.value(q) for q in traj.q])


@pytest.mark.parametrize("name,dim,variant,h", [
    ("kepler", 2, "s3-corrected", 0.05),
    ("harmonic", 3, "verlet", 0.1),
    ("lj-cluster", 12, "s3-generating", 0.005),
])
def test_energy_series_equals_per_record_values_bitwise(name, dim, variant, h):
    from test_models import lj_square

    model = ss.make_model(name, dimension=dim)
    q0 = {"kepler": [0.7, 0.0], "harmonic": [1.0, -0.5, 0.2],
          "lj-cluster": lj_square(jitter=0.02)}[name]
    p0 = np.linspace(-0.3, 1.3, dim)
    traj = ss.integrate(model, variant, ss.PhaseState(q0, p0), h, 60,
                        record_stride=3)
    assert not traj.failed
    got = energy_series(traj, model)
    assert got.tobytes() == _energy_series_per_record(traj, model).tobytes()


def test_energy_series_names_the_first_singular_record(kepler):
    """One check for the whole series raises the SingularityError that
    model.value raises at the first singular record."""
    traj = ss.integrate(kepler, "verlet", ss.PhaseState(*ss.kepler_start(0.3)),
                        0.1, 10)
    traj.q[4] = (0.0, 0.0)
    traj.q[7] = (0.0, 0.0)
    traj.q[2] = (-0.0, 0.0)
    with pytest.raises(ss.SingularityError) as expected:
        kepler.value(traj.q[2])
    with pytest.raises(ss.SingularityError) as err:
        energy_series(traj, kepler)
    assert str(err.value) == str(expected.value)
    assert "q=[-0.  0.]" in str(err.value)


def test_energy_series_checks_the_dimension(kepler):
    traj = ss.integrate(ss.make_model("harmonic", dimension=3), "verlet",
                        ss.PhaseState(np.ones(3), np.zeros(3)), 0.1, 4)
    with pytest.raises(ValueError, match="dimension mismatch"):
        energy_series(traj, kepler)


def test_drift_series_halves_split():
    times = np.arange(5.0)
    values = np.array([0.0, 1.0, -3.0, 0.5, 2.0])
    d = ss.DriftSeries(times, values, 3.0, np.max(np.abs(values[:3])),
                       np.max(np.abs(values[3:])))
    assert d.max_abs_first_half == 3.0
    assert d.max_abs_second_half == 2.0


# ------------------------------------------------------------ reversibility

def test_reversibility_zero_steps(harmonic):
    e = ss.reversibility_error("verlet", harmonic, ss.PhaseState([1.0], [0.0]),
                               0.1, 0)
    assert e == 0.0


def test_reversibility_verlet_harmonic(harmonic):
    e = ss.reversibility_error("verlet", harmonic, ss.PhaseState([1.0], [0.0]),
                               0.1, 100)
    assert e <= 1e-10


def test_reversibility_corrected_kepler(kepler):
    s = ss.PhaseState(*ss.kepler_start(0.3))
    e = ss.reversibility_error("s3-corrected", kepler, s, 0.05, 1000)
    assert e <= 1e-8


def test_reversibility_failure_names_the_leg(kepler):
    s = ss.PhaseState(*ss.kepler_start(0.3))
    cfg = ss.SolverConfig(tolerance=1e-30, max_iterations=2)
    with pytest.raises(ss.StepError, match="forward leg"):
        ss.reversibility_error("s3-corrected", kepler, s, 0.05, 10,
                               solver_cfg=cfg)


def test_reversibility_from_a_recorded_forward_leg(kepler):
    """A run at any record stride serves as the forward leg: the same
    steps, so bitwise the same distance, and a failed run names its step."""
    s = ss.PhaseState(*ss.kepler_start(0.3))
    e = ss.reversibility_error("s3-corrected", kepler, s, 0.05, 120)
    for stride in (1, 8, 120):
        fwd = ss.integrate(kepler, "s3-corrected", s, 0.05, 120,
                           record_stride=stride)
        assert ss.reversibility_error("s3-corrected", kepler, s, 0.05, 120,
                                      forward=fwd) == e
    cfg = ss.SolverConfig(tolerance=1e-30, max_iterations=2)
    fwd = ss.integrate(kepler, "s3-corrected", s, 0.05, 10, solver_cfg=cfg)
    with pytest.raises(ss.StepError,
                       match=f"forward leg failed at step {fwd.failed_step}$"):
        ss.reversibility_error("s3-corrected", kepler, s, 0.05, 10,
                               solver_cfg=cfg, forward=fwd)


# ------------------------------------------------------------ symplecticity

def test_symplecticity_of_exact_rotation():
    """The analytic oscillator flow is symplectic; the finite-difference
    defect of the map (q,p) -> rotation is pure roundoff."""
    th = 0.3

    def rotate(s):
        c, sn = np.cos(th), np.sin(th)
        return ss.PhaseState(c * s.q + sn * s.p, -sn * s.q + c * s.p)

    # the map is linear, so a coarse fd_eps is still exact and keeps the
    # roundoff floor (~eps_mach / fd_eps) below the 1e-12 target
    d = ss.map_symplecticity_defect(rotate, ss.PhaseState([0.4], [-1.1]),
                                    fd_eps=1e-3)
    assert d <= 1e-12


def test_symplecticity_verlet_kepler(kepler):
    s = ss.PhaseState([1.0, 0.0], [0.0, 1.0])
    assert ss.symplecticity_defect("verlet", kepler, s, 0.1) <= 1e-6


def test_symplecticity_corrected_kepler(kepler):
    s = ss.PhaseState([1.0, 0.0], [0.0, 1.0])
    assert ss.symplecticity_defect("s3-corrected", kepler, s, 0.1) <= 1e-6


def test_symplecticity_all_variants_harmonic(harmonic):
    s = ss.PhaseState([0.8], [0.4])
    for variant in ss.SchemeVariant:
        assert ss.symplecticity_defect(variant, harmonic, s, 0.1) <= 1e-6, \
            str(variant)


# -------------------------------------------------------------- order fits

def test_fit_order_synthetic_second_order():
    est = ss.fit_order([0.1, 0.05], [1e-2, 2.5e-3])
    assert est == pytest.approx(2.0, abs=1e-12)


def test_fit_order_rejects_bad_input():
    with pytest.raises(ValueError):
        ss.fit_order([0.1], [1e-2])
    with pytest.raises(ValueError):
        ss.fit_order([0.1, 0.05], [1e-2, 0.0])


def test_convergence_order_verlet_harmonic(harmonic):
    s = ss.PhaseState([1.0], [0.0])
    ref = ss.analytic_reference(harmonic, s)
    est = ss.convergence_order("verlet", harmonic, s, 10.0,
                               [0.1, 0.05, 0.025, 0.0125], reference=ref)
    assert 1.8 <= est.fitted_order <= 2.2
    assert est.monotone
    assert list(est.step_sizes) == [0.1, 0.05, 0.025, 0.0125]


def test_convergence_order_self_reference(kepler):
    """Without an analytic reference a fine same-variant run stands in."""
    s = ss.PhaseState(*ss.kepler_start(0.3))
    est = ss.convergence_order("verlet", kepler, s, 2.0, [0.1, 0.05, 0.025])
    assert 1.7 <= est.fitted_order <= 2.3


def test_convergence_order_refuses_a_reference_that_is_not_callable(harmonic):
    """A reference is a flow t -> PhaseState or None; a Trajectory ending
    at T is refused like a PhaseState."""
    s = ss.PhaseState([1.0], [0.0])
    traj = ss.integrate(harmonic, "verlet", s, 0.0125, 80)
    for reference in (traj, traj.final_state()):
        with pytest.raises(TypeError, match="callable"):
            ss.convergence_order("verlet", harmonic, s, 1.0, [0.1, 0.05],
                                 reference=reference)


def test_convergence_order_rejects_non_divisible_h(harmonic):
    s = ss.PhaseState([1.0], [0.0])
    with pytest.raises(ValueError):
        ss.convergence_order("verlet", harmonic, s, 1.0, [0.3, 0.15])


# --------------------------------------------------------- angular momentum

def test_angular_momentum_circular_start(kepler):
    traj = ss.integrate(kepler, "verlet",
                        ss.PhaseState([1.0, 0.0], [0.0, 1.0]), 0.1, 10)
    ell = ss.angular_momentum_series(traj)
    assert ell[0] == 1.0


def test_angular_momentum_eccentric_start_value(kepler):
    traj = ss.integrate(kepler, "verlet", ss.PhaseState(*ss.kepler_start(0.3)),
                        0.1, 1)
    ell = ss.angular_momentum_series(traj)
    assert ell[0] == pytest.approx(np.sqrt(0.91), abs=1e-15)


def test_angular_momentum_verlet_conservation(kepler):
    traj = ss.integrate(kepler, "verlet", ss.PhaseState(*ss.kepler_start(0.3)),
                        0.1, 500)
    ell = ss.angular_momentum_series(traj)
    assert np.max(np.abs(ell - ell[0])) <= 1e-12


def test_angular_momentum_needs_two_dimensions(harmonic):
    traj = ss.integrate(harmonic, "verlet", ss.PhaseState([1.0], [0.0]),
                        0.1, 5)
    with pytest.raises(ValueError):
        ss.angular_momentum_series(traj)


# ---------------------------------------------------------------- reference

def test_analytic_reference_free():
    m = ss.make_model("free", dimension=2, mass=[1.0, 2.0])
    s = ss.PhaseState([0.0, 1.0], [1.0, 4.0])
    flow = ss.analytic_reference(m, s)
    f = flow(3.0)
    npt.assert_allclose(f.q, [3.0, 7.0], rtol=0, atol=1e-14)
    npt.assert_array_equal(f.p, s.p)


def test_analytic_reference_harmonic(harmonic):
    s = ss.PhaseState([1.0], [0.0])
    flow = ss.analytic_reference(harmonic, s)
    f = flow(np.pi / 2)
    assert f.q[0] == pytest.approx(0.0, abs=1e-15)
    assert f.p[0] == pytest.approx(-1.0, abs=1e-15)


def test_analytic_reference_circular_kepler(kepler):
    s = ss.PhaseState([1.0, 0.0], [0.0, 1.0])
    flow = ss.analytic_reference(kepler, s)
    f = flow(2 * np.pi)
    npt.assert_allclose(f.q, [1.0, 0.0], rtol=0, atol=1e-12)
    npt.assert_allclose(f.p, [0.0, 1.0], rtol=0, atol=1e-12)


def test_analytic_reference_unavailable(kepler):
    # eccentric orbit: no closed form provided
    assert ss.analytic_reference(kepler, ss.PhaseState(*ss.kepler_start(0.3))) is None
    m = ss.make_model("lj-cluster", dimension=6)
    assert ss.analytic_reference(m, ss.PhaseState([0, 0, 0, 1.1, 0, 0],
                                                  np.zeros(6))) is None


class _NamedQuartic(ss.PotentialModel):
    """V(q) = sum q_i^4 / 4 under a built-in model's name."""

    def _value(self, q):
        return float(np.sum(q ** 4) / 4.0)

    def _gradient(self, q):
        return q ** 3

    def _hessian(self, q):
        return np.diag(3.0 * q ** 2)


@pytest.mark.parametrize("name", ["free", "harmonic", "kepler"])
def test_analytic_reference_goes_by_model_class_not_name(name):
    """A custom model named like a built-in one has no closed-form flow,
    even at a unit-mass circular Kepler start."""
    m = _NamedQuartic(name, 2)
    assert ss.analytic_reference(m, ss.PhaseState([1.0, 0.0], [0.0, 1.0])) is None
