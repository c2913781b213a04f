"""Potential models: values, derivatives, energies, and validation."""

import numpy as np
import numpy.testing as npt
import pytest

import symstep as ss
from symstep.models import MODEL_NAMES


def lj_square(jitter=0.0, seed=0):
    """Four atoms near a unit-ish square in the z=0 plane, flattened."""
    grid = np.array([[0, 0, 0], [1.12, 0, 0], [0, 1.12, 0], [1.12, 1.12, 0]],
                    dtype=float)
    q = grid.ravel()
    if jitter:
        q = q + np.random.default_rng(seed).normal(size=12) * jitter
    return q


# ---------------------------------------------------------------- PhaseState

def test_phase_state_basics():
    s = ss.PhaseState([1.0, 2.0], [3.0, 4.0])
    assert s.dimension == 2
    assert s.q.dtype == np.float64
    npt.assert_array_equal(s.p, [3.0, 4.0])


def test_phase_state_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        ss.PhaseState([1.0], [1.0, 2.0])


def test_phase_state_rejects_non_finite():
    with pytest.raises(ValueError):
        ss.PhaseState([np.nan], [0.0])
    with pytest.raises(ValueError):
        ss.PhaseState([], [])


def test_phase_state_is_immutable():
    s = ss.PhaseState([1.0], [2.0])
    with pytest.raises(Exception):
        s.q = np.array([9.0])
    assert not s.q.flags.writeable


# ------------------------------------------------------------------- values

def test_kepler_value_at_unit_radius():
    m = ss.make_model("kepler")
    assert m.value([1.0, 0.0]) == -1.0


def test_free_value_is_zero():
    m = ss.make_model("free", dimension=2)
    assert m.value([5.0, 7.0]) == 0.0


def test_lj_value_zero_at_sigma():
    m = ss.make_model("lj-cluster", dimension=6)
    v = m.value([0, 0, 0, 1, 0, 0])
    assert abs(v) < 1e-15


def test_harmonic_value():
    m = ss.make_model("harmonic", dimension=2, omega=2.0)
    # 0.5 * omega^2 * |q|^2
    assert m.value([1.0, 1.0]) == pytest.approx(4.0)


# ---------------------------------------------------------------- gradients

def test_harmonic_gradient():
    m = ss.make_model("harmonic", dimension=1, omega=1.0)
    npt.assert_allclose(m.gradient([2.0]), [2.0])


def test_kepler_gradient_three_four():
    m = ss.make_model("kepler")
    npt.assert_allclose(m.gradient([3.0, 4.0]),
                        [0.024, 0.032], rtol=0, atol=1e-15)


def test_free_gradient_is_zero():
    m = ss.make_model("free", dimension=3)
    npt.assert_array_equal(m.gradient([1.0, 1.0, 1.0]), np.zeros(3))


# ----------------------------------------------------------------- hessians

def test_harmonic_hessian_1d():
    m = ss.make_model("harmonic", dimension=1, omega=1.0)
    npt.assert_array_equal(m.hessian([1.0]), [[1.0]])


def test_kepler_hessian_at_unit_x():
    m = ss.make_model("kepler")
    npt.assert_allclose(m.hessian([1.0, 0.0]),
                        [[-2.0, 0.0], [0.0, 1.0]], rtol=0, atol=1e-15)


def test_kepler_hessian_equals_the_array_form_bitwise():
    """The Python-float Hessian rounds as the array expression does, at
    random q over twenty decades, at signed zeros, at the origin (NaN),
    where r^3 or r^5 underflow (numpy's division by zero) and where r^2
    overflows."""
    from reference_loops import kepler_hessian_array

    m = ss.make_model("kepler")
    rng = np.random.default_rng(2016)
    qs = rng.normal(size=(2000, 2)) * 10.0 ** rng.uniform(-10, 10, size=(2000, 2))
    edge = [[0.0, 0.0], [-0.0, 0.0], [0.0, -2.0], [-3.0, 0.0], [1e-160, 0.0],
            [1e-70, -1e-70], [3e-65, 1e-64], [1e200, 1.0], [1e155, -1e155]]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for q in np.concatenate([qs, edge]):
            assert m._hessian(q).tobytes() == kepler_hessian_array(q).tobytes(), q


def test_free_hessian_is_zero_matrix():
    m = ss.make_model("free", dimension=2)
    npt.assert_array_equal(m.hessian([0.3, -0.7]), np.zeros((2, 2)))


@pytest.mark.parametrize("name,dim,q", [
    ("harmonic", 3, [0.5, -1.0, 2.0]),
    ("kepler", 2, [0.8, -0.6]),
    ("lj-cluster", 12, lj_square(jitter=0.02)),
])
def test_hessian_is_symmetric(name, dim, q):
    m = ss.make_model(name, dimension=dim)
    hess = m.hessian(q)
    npt.assert_allclose(hess, hess.T, rtol=0, atol=1e-14)


def test_lj_gradient_sums_to_zero():
    # translation invariance: total force on the cluster vanishes
    m = ss.make_model("lj-cluster", dimension=12)
    g = m.gradient(lj_square(jitter=0.05)).reshape(4, 3)
    npt.assert_allclose(g.sum(axis=0), np.zeros(3), rtol=0, atol=1e-12)


def test_kepler_rotation_equivariance():
    m = ss.make_model("kepler")
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    q = np.array([1.1, -0.4])
    g1 = rot @ m.gradient(q)
    g2 = m.gradient(rot @ q)
    npt.assert_allclose(g1, g2, rtol=0, atol=1e-12)


# ----------------------------------------------------------------- energies

def test_hamiltonian_energy_kepler_circular():
    m = ss.make_model("kepler")
    e = ss.hamiltonian_energy(m, ss.PhaseState([1.0, 0.0], [0.0, 1.0]))
    assert e.total == pytest.approx(-0.5)
    assert e.kinetic == pytest.approx(0.5)
    assert e.potential == pytest.approx(-1.0)


def test_hamiltonian_energy_free():
    m = ss.make_model("free", dimension=2)
    e = ss.hamiltonian_energy(m, ss.PhaseState([0.0, 0.0], [3.0, 4.0]))
    assert e.total == 12.5


def test_hamiltonian_energy_harmonic():
    m = ss.make_model("harmonic", dimension=1, omega=1.0)
    e = ss.hamiltonian_energy(m, ss.PhaseState([1.0], [0.0]))
    assert e.total == pytest.approx(0.5)


def test_kinetic_energy_uses_mass():
    m = ss.make_model("free", dimension=2, mass=[2.0, 4.0])
    e = ss.hamiltonian_energy(m, ss.PhaseState([0.0, 0.0], [2.0, 2.0]))
    assert e.kinetic == pytest.approx(0.5 * (4 / 2 + 4 / 4))


# --------------------------------------------------------------- validation

def test_validate_derivatives_harmonic_tight():
    m = ss.make_model("harmonic", dimension=1, omega=1.0)
    rep = ss.validate_derivatives(m, [0.7], fd_step=1e-5)
    assert rep.gradient_error <= 1e-8
    assert rep.hessian_error <= 1e-8


def test_validate_derivatives_kepler():
    m = ss.make_model("kepler")
    rep = ss.validate_derivatives(m, [1.0, 0.5], fd_step=1e-5)
    assert rep.gradient_error <= 1e-6
    assert rep.hessian_error <= 1e-6


def test_validate_derivatives_free_exact():
    m = ss.make_model("free", dimension=4)
    rep = ss.validate_derivatives(m, np.linspace(-1, 1, 4))
    assert rep.gradient_error == 0.0
    assert rep.hessian_error == 0.0


# ------------------------------------------------------------- construction

def test_make_model_names():
    assert set(MODEL_NAMES) == {"free", "harmonic", "kepler", "lj-cluster"}
    assert ss.make_model("lj", dimension=6).name == "lj-cluster"


def test_kepler_is_two_dimensional():
    assert ss.make_model("kepler").dimension == 2
    with pytest.raises(ValueError):
        ss.make_model("kepler", dimension=3)


def test_lj_dimension_must_be_multiple_of_three():
    with pytest.raises(ValueError):
        ss.make_model("lj-cluster", dimension=7)
    with pytest.raises(ValueError):
        ss.make_model("lj-cluster", dimension=3)  # needs at least two atoms


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        ss.make_model("morse", dimension=2)


def test_unknown_parameter_rejected():
    with pytest.raises(ValueError):
        ss.make_model("harmonic", dimension=1, stiffness=2.0)
    with pytest.raises(ValueError):
        ss.make_model("free", dimension=1, omega=1.0)


def test_nonpositive_parameters_rejected():
    with pytest.raises(ValueError):
        ss.make_model("harmonic", dimension=1, omega=0.0)
    with pytest.raises(ValueError):
        ss.make_model("lj-cluster", dimension=6, sigma=-1.0)


def test_mass_broadcast_and_validation():
    m = ss.make_model("free", dimension=3, mass=2.5)
    npt.assert_array_equal(m.mass, [2.5, 2.5, 2.5])
    with pytest.raises(ValueError):
        ss.make_model("free", dimension=2, mass=[1.0, -1.0])
    with pytest.raises(ValueError):
        ss.make_model("free", dimension=2, mass=[1.0, 2.0, 3.0])


def test_dimension_mismatch_raises():
    m = ss.make_model("harmonic", dimension=2)
    with pytest.raises(ValueError):
        m.value(np.ones(3))


# -------------------------------------------------------------- singularity

def test_kepler_singular_at_origin():
    m = ss.make_model("kepler")
    with pytest.raises(ss.SingularityError):
        m.value(np.zeros(2))
    with pytest.raises(ss.SingularityError):
        m.gradient(np.zeros(2))


def test_lj_singular_on_coincident_atoms():
    m = ss.make_model("lj-cluster", dimension=6)
    with pytest.raises(ss.SingularityError):
        m.value(np.zeros(6))


def test_singularity_error_is_value_error():
    assert issubclass(ss.SingularityError, ValueError)


# ------------------------------------------------------ custom model subclass

class QuarticWell(ss.PotentialModel):
    """V(q) = sum q_i^4 / 4 — a custom model, run on the same engine as the
    built-in ones."""

    def __init__(self, dimension):
        super().__init__("quartic", dimension)

    def _value(self, q):
        return float(np.sum(q ** 4) / 4.0)

    def _gradient(self, q):
        return q ** 3

    def _hessian(self, q):
        return np.diag(3.0 * q ** 2)


class ShortGradient(QuarticWell):
    """A gradient of length 1 whatever d is, which would broadcast."""

    def _gradient(self, q):
        return q[:1] ** 3


@pytest.mark.parametrize("variant", ["verlet", "s3-corrected"])
def test_wrong_length_gradient_rejected(variant):
    m = ShortGradient(2)
    s = ss.PhaseState([0.5, -0.3], [0.1, 0.2])
    with pytest.raises(ValueError, match="gradient has shape"):
        m.gradient(s.q)
    with pytest.raises(ValueError, match="gradient has shape"):
        ss.step(variant, m, s, 0.05)
    with pytest.raises(ValueError, match="gradient has shape"):
        ss.integrate(m, variant, s, 0.05, 3)


def test_custom_model_validates():
    m = QuarticWell(3)
    rep = ss.validate_derivatives(m, [0.5, -0.3, 1.1])
    assert rep.gradient_error <= 1e-6
    assert rep.hessian_error <= 1e-6
