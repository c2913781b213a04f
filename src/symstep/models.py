"""Phase-space state, separable Hamiltonians, and the built-in potentials.

A system is described by H(p, q) = sum_i p_i^2 / (2 m_i) + V(q) with a
constant, strictly positive diagonal mass vector m and a smooth potential V
supplying an analytic gradient and Hessian.  Four potentials ship with the
package:

====================  ============================================  =========
name                  V(q)                                          dimension
====================  ============================================  =========
``free``              0                                             any d
``harmonic``          (omega^2 / 2) |q|^2                           any d
``kepler``            -1 / |q|                                      2
``lj-cluster``        sum_{i<j} 4 eps [(sig/r_ij)^12 - (sig/r_ij)^6]  3N
====================  ============================================  =========

Evaluating ``kepler`` or ``lj-cluster`` at a configuration with a zero
inter-particle distance raises :class:`SingularityError`; evaluations never
return non-finite numbers.  Each built-in model is a :class:`PotentialModel`
subclass whose ``_value``/``_gradient``/``_hessian`` hooks are array code;
custom potentials subclass it the same way and run on the same integration
engine.
"""

import math
from dataclasses import dataclass

import numpy as np


class SingularityError(ValueError):
    """Potential evaluated at (or through) a singular configuration."""


def _as_vector(x, name):
    v = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {v.shape}")
    return v


def as_count(n, name):
    """int(n) for an integral n >= 1 (10.0 and numpy integers too); any other
    number is a ValueError, 10.7 included, which int() alone would truncate."""
    if not 1 <= n < math.inf or int(n) != n:
        raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
    return int(n)


@dataclass(frozen=True, eq=False)
class PhaseState:
    """Position/momentum pair (q, p), both finite vectors of dimension d."""

    q: np.ndarray
    p: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, PhaseState):
            return NotImplemented
        return (np.array_equal(self.q, other.q)
                and np.array_equal(self.p, other.p))

    def __post_init__(self):
        # copy so freezing the arrays below cannot lock a caller's buffer
        q = _as_vector(self.q, "q").copy()
        p = _as_vector(self.p, "p").copy()
        if q.size != p.size:
            raise ValueError(f"q and p dimensions differ: {q.size} vs {p.size}")
        if q.size < 1:
            raise ValueError("phase state needs dimension >= 1")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ValueError("phase state components must be finite")
        q.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def dimension(self):
        return self.q.size


@dataclass(frozen=True)
class EnergyValue:
    total: float
    kinetic: float
    potential: float


@dataclass(frozen=True)
class DerivativeReport:
    """Worst-case relative finite-difference errors, see validate_derivatives."""

    gradient_error: float
    hessian_error: float


class PotentialModel:
    """A named potential with dimension, diagonal mass, and parameters.

    Subclasses implement the hooks ``_value``, ``_gradient`` and
    ``_hessian``.  Each receives a float64 vector of length d and returns a
    float, a float64 array of shape (d,) or one of shape (d, d); at a
    singular configuration it returns NaN (or NaN-filled arrays) rather
    than raising.  The integrators' inner loops call the hooks directly; the
    public ``value``/``gradient``/``hessian`` check their input and output.
    """

    def __init__(self, name, dimension, mass=None, parameters=None):
        dimension = as_count(dimension, "model dimension")
        if mass is None:
            mass = np.ones(dimension)
        else:
            m = np.asarray(mass, dtype=np.float64)
            mass = np.full(dimension, float(m)) if m.ndim == 0 else _as_vector(m, "mass")
        if mass.size != dimension:
            raise ValueError(f"mass has length {mass.size}, model dimension is {dimension}")
        if not np.all(np.isfinite(mass)) or np.any(mass <= 0.0):
            raise ValueError("mass entries must be finite and strictly positive")
        self.name = str(name)
        self.dimension = dimension
        self.mass = mass
        self.parameters = dict(parameters or {})

    def __repr__(self):
        return f"PotentialModel({self.name!r}, d={self.dimension})"

    # -- hooks, called directly by the integrators' inner loops ------------
    def _value(self, q):
        raise NotImplementedError

    def _gradient(self, q):
        raise NotImplementedError

    def _hessian(self, q):
        raise NotImplementedError

    # -- validated public evaluations --------------------------------------
    def _check(self, q):
        v = _as_vector(q, "q")
        if v.size != self.dimension:
            raise ValueError(
                f"dimension mismatch: model {self.name!r} has d={self.dimension}, "
                f"got vector of length {v.size}")
        return v

    def value(self, q):
        q = self._check(q)
        out = float(self._value(q))
        if not math.isfinite(out):
            raise SingularityError(
                f"potential {self.name!r} is singular (or overflows) at q={q}")
        return out

    def gradient(self, q):
        q = self._check(q)
        return self._checked("gradient", self._gradient(q), (self.dimension,), q)

    def hessian(self, q):
        q = self._check(q)
        return self._checked("hessian", self._hessian(q), (self.dimension,) * 2, q)

    def _checked(self, what, out, shape, q):
        out = np.ascontiguousarray(np.asarray(out, dtype=np.float64))
        if out.shape != shape:
            raise ValueError(f"{what} has shape {out.shape}, expected {shape}")
        if not np.isfinite(out).all():
            raise SingularityError(
                f"{what} of {self.name!r} is singular (or overflows) at q={q}")
        return out


class FreeModel(PotentialModel):
    """V = 0."""

    def __init__(self, dimension, mass=None):
        super().__init__("free", dimension, mass=mass)

    def _value(self, q):
        return 0.0

    def _gradient(self, q):
        return np.zeros(self.dimension)

    def _hessian(self, q):
        return np.zeros((self.dimension, self.dimension))


class HarmonicModel(PotentialModel):
    """V = (omega^2 / 2) |q|^2."""

    def __init__(self, dimension, omega, mass=None):
        super().__init__("harmonic", dimension, mass=mass,
                         parameters={"omega": omega})
        self._w2 = omega * omega

    def _value(self, q):
        return 0.5 * self._w2 * q.dot(q)

    def _gradient(self, q):
        return self._w2 * q

    def _hessian(self, q):
        return self._w2 * np.eye(self.dimension)


class KeplerModel(PotentialModel):
    """V = -1 / |q| in the plane.  At the origin r^2 = 0 is replaced by
    NaN, which every result then carries."""

    def __init__(self, mass=None):
        super().__init__("kepler", 2, mass=mass)

    def _value(self, q):
        return -1.0 / math.sqrt(q.dot(q) or math.nan)

    def _gradient(self, q):
        r2 = q.dot(q) or math.nan
        return q / (r2 * math.sqrt(r2))

    def _hessian(self, q):
        """I / r^3 - 3 q q^T / r^5 on floats, rounded as ((-3 q_i) q_j) / r^5
        + [i = j] / r^3; a power of r that underflows divides as numpy."""
        r2 = float(q.dot(q)) or math.nan
        r3 = r2 * math.sqrt(r2) or np.float64(0.0)
        r5, i3 = r3 * r2 or np.float64(0.0), 1.0 / r3
        x, y = q.tolist()
        return np.array([[-3.0 * x * x / r5 + i3, -3.0 * x * y / r5],
                         [-3.0 * y * x / r5, -3.0 * y * y / r5 + i3]])


class LJClusterModel(PotentialModel):
    """V = sum_{i<j} 4 eps [(sig/r_ij)^12 - (sig/r_ij)^6] over N atoms at
    flat 3N coordinates.  The value, the gradient and the Hessian work on
    the N(N-1)/2 pairs i < j, through gather and scatter indices built
    once.  The pair terms of the last configuration are kept, keyed by its
    bytes, so V, grad V and the Hessian at one configuration cost one pair
    pass."""

    def __init__(self, dimension, epsilon, sigma, mass=None):
        super().__init__("lj-cluster", dimension, mass=mass,
                         parameters={"epsilon": epsilon, "sigma": sigma})
        self._eps, self._sig2 = epsilon, sigma * sigma
        d = self.dimension
        n = d // 3
        i, j = self._i, self._j = np.triu_indices(n, 1)
        c = np.arange(3)[:, None]
        # pair terms are component-major: D[a, k] and B[a, b, k] for pair k
        self._gi, self._gj = (3 * i + c).ravel(), (3 * j + c).ravel()
        c9 = n * np.arange(9)[:, None]
        self._bi, self._bj = (i + c9).ravel(), (j + c9).ravel()

        def block(r, s):  # flat (d, d) indices of the 3 x 3 blocks (r, s)
            return ((3 * r + c[:, None]) * d + 3 * s + c).ravel()

        self._hdiag = block(np.arange(n), np.arange(n))
        self._hij, self._hji = block(i, j), block(j, i)
        self._key = None

    def _pair_terms(self, q):
        """Separations D = x_i - x_j as a (3, pairs) array, then r^2,
        (sig/r)^6, (sig/r)^12, 24 eps/r^2 and u'(r)/r per pair.  Coincident
        atoms get r^2 = NaN, which their terms carry into every result."""
        X = q.reshape(-1, 3).T
        D = X.take(self._i, axis=1) - X.take(self._j, axis=1)
        D2 = D * D
        r2 = D2[0] + D2[1] + D2[2]
        if not r2.all():
            r2[r2 == 0.0] = np.nan
        inv2 = self._sig2 / r2
        inv6 = inv2 * inv2 * inv2
        inv12 = inv6 * inv6
        k = 24.0 * self._eps / r2
        return D, r2, inv6, inv12, k, -k * (2.0 * inv12 - inv6)

    def _terms(self, q):
        """The pair terms at q, kept for the last configuration."""
        key = q.tobytes()
        if key != self._key:
            self._memo = self._pair_terms(q)
            self._key = key
        return self._memo

    def _value(self, q):
        _, _, inv6, inv12, _, _ = self._terms(q)
        return 4.0 * self._eps * (inv12 - inv6).sum()

    def _gradient(self, q):
        """g_i = sum_j (u'(r_ij)/r_ij) (x_i - x_j)."""
        D, _, _, _, _, upr = self._terms(q)
        F = (upr * D).ravel()
        d = self.dimension
        return np.bincount(self._gi, F, d) - np.bincount(self._gj, F, d)

    def _hessian(self, q):
        """Assembled from 3 x 3 pair blocks: pair (i, j) contributes
        B_ij = u'' rr^T/r^2 + (u'/r)(I - rr^T/r^2) to the diagonal blocks
        (i, i), (j, j) and -B_ij to (i, j), (j, i)."""
        D, r2, inv6, inv12, k, upr = self._terms(q)
        upp = k * (26.0 * inv12 - 7.0 * inv6)  # u''(r)
        B = D[:, None] * D  # rr^T, symmetric bit for bit
        B *= (upp - upr) / r2
        B.reshape(9, -1)[::4] += upr
        B = B.ravel()
        d = self.dimension
        H = np.zeros(d * d)
        H[self._hdiag] = np.bincount(self._bi, B, 3 * d) + np.bincount(self._bj, B, 3 * d)
        B = -B
        H[self._hij] = B
        H[self._hji] = B
        return H.reshape(d, d)


def make_model(name, dimension=None, mass=None, **parameters):
    """Construct a built-in model by name.

    free/harmonic need an explicit ``dimension``; kepler is fixed at d=2;
    lj-cluster needs dimension = 3N for N >= 2 particles.  Parameters:
    ``omega`` (harmonic, default 1.0), ``epsilon``/``sigma`` (lj-cluster,
    default 1.0 each, reduced units).
    """
    key = str(name).strip().lower()
    if key == "free":
        if dimension is None:
            raise ValueError("free model needs a dimension")
        if parameters:
            raise ValueError(f"free model takes no parameters, got {sorted(parameters)}")
        return FreeModel(dimension, mass=mass)
    if key == "harmonic":
        if dimension is None:
            raise ValueError("harmonic model needs a dimension")
        omega = float(parameters.pop("omega", 1.0))
        if parameters:
            raise ValueError(f"unknown harmonic parameters {sorted(parameters)}")
        if omega <= 0:
            raise ValueError("omega must be > 0")
        return HarmonicModel(dimension, omega, mass=mass)
    if key == "kepler":
        if dimension not in (None, 2):
            raise ValueError("kepler model is planar: dimension must be 2")
        if parameters:
            raise ValueError(f"kepler model takes no parameters, got {sorted(parameters)}")
        return KeplerModel(mass=mass)
    if key == "lj-cluster":
        if dimension is None:
            raise ValueError("lj-cluster model needs a dimension (3N)")
        if dimension % 3 != 0 or dimension < 6:
            raise ValueError("lj-cluster dimension must be 3N with N >= 2")
        epsilon = float(parameters.pop("epsilon", 1.0))
        sigma = float(parameters.pop("sigma", 1.0))
        if parameters:
            raise ValueError(f"unknown lj-cluster parameters {sorted(parameters)}")
        if epsilon <= 0 or sigma <= 0:
            raise ValueError("epsilon and sigma must be > 0")
        return LJClusterModel(dimension, epsilon, sigma, mass=mass)
    raise ValueError(f"unknown model {name!r} "
                     "(choose free, harmonic, kepler, lj-cluster)")


MODEL_NAMES = ("free", "harmonic", "kepler", "lj-cluster")


def hamiltonian_energy(model, s):
    """Total/kinetic/potential energy of a phase state.

    kinetic = sum p_i^2 / (2 m_i), potential = V(q), total = their sum.
    """
    if s.dimension != model.dimension:
        raise ValueError(f"state dimension {s.dimension} != model dimension {model.dimension}")
    kinetic = float(0.5 * np.sum(s.p * s.p / model.mass))
    potential = model.value(s.q)
    return EnergyValue(kinetic + potential, kinetic, potential)


def validate_derivatives(model, q, fd_step=1e-5):
    """Compare analytic derivatives with central finite differences.

    The gradient is checked against differences of the value and the Hessian
    against differences of the gradient; each result is a worst-case relative
    error ||analytic - fd||_inf / (1 + ||fd||_inf).  A singular configuration
    anywhere in the difference stencil raises SingularityError.
    """
    fd_step = float(fd_step)
    if fd_step <= 0:
        raise ValueError("fd_step must be > 0")
    q = _as_vector(q, "q")
    d = model.dimension
    ga = model.gradient(q)
    Ha = model.hessian(q)
    g_fd = np.empty(d)
    H_fd = np.empty((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = fd_step
        g_fd[i] = (model.value(q + e) - model.value(q - e)) / (2 * fd_step)
        H_fd[:, i] = (model.gradient(q + e) - model.gradient(q - e)) / (2 * fd_step)
    g_err = np.max(np.abs(ga - g_fd)) / (1.0 + np.max(np.abs(g_fd)))
    h_err = np.max(np.abs(Ha - H_fd)) / (1.0 + np.max(np.abs(H_fd)))
    return DerivativeReport(float(g_err), float(h_err))
