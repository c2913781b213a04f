"""Conservation, reversibility, symplecticity, and convergence diagnostics.

All distances are phase-space infinity norms over (q, p) jointly, and matrix
norms are the induced infinity norm (max absolute row sum).
"""

from dataclasses import dataclass

import numpy as np

from .integrators import StepError, Trajectory, as_variant, integrate, step
from .models import FreeModel, HarmonicModel, KeplerModel, PhaseState


@dataclass(frozen=True)
class DriftSeries:
    """Energy drift H(t) - H(0) per record, with the overall and per-half
    maxima (first half = records [0, ceil(n/2)))."""

    times: np.ndarray
    values: np.ndarray
    max_abs: float
    max_abs_first_half: float
    max_abs_second_half: float


@dataclass(frozen=True)
class OrderEstimate:
    step_sizes: np.ndarray
    global_errors: np.ndarray
    fitted_order: float
    monotone: bool = True


def _state_distance(a: PhaseState, b: PhaseState):
    return float(max(np.max(np.abs(a.q - b.q)), np.max(np.abs(a.p - b.p))))


def energy_series(traj: Trajectory, model):
    """Total energy, kinetic plus V(q), per record; a singular q raises."""
    if traj.q.shape[1] != model.dimension:
        raise ValueError("trajectory/model dimension mismatch")
    kinetic = 0.5 * np.sum(traj.p * traj.p / model.mass, axis=1)
    V = np.array([float(model._value(q)) for q in traj.q])
    if not np.isfinite(V).all():
        model.value(traj.q[np.isfinite(V).argmin()])
    return kinetic + V


def energy_drift(traj: Trajectory, model) -> DriftSeries:
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    total = energy_series(traj, model)
    values = total - total[0]
    mid = (len(values) + 1) // 2
    first = float(np.max(np.abs(values[:mid])))
    second = float(np.max(np.abs(values[mid:]))) if mid < len(values) else 0.0
    return DriftSeries(traj.times.copy(), values, float(np.max(np.abs(values))),
                       first, second)


def reversibility_error(variant, model, s0, h, n_steps, solver_cfg=None, forward=None):
    """Integrate n_steps forward with h, n_steps back with -h, and return the
    infinity-norm distance to the start.  ``forward``, a trajectory of those
    n_steps from s0 at any record stride, serves as the forward leg."""
    if n_steps == 0:
        return 0.0
    fwd = forward if forward is not None else integrate(
        model, variant, s0, h, n_steps, record_stride=n_steps, solver_cfg=solver_cfg)
    if fwd.failed:
        raise StepError(f"forward leg failed at step {fwd.failed_step}",
                        fwd.failure)
    back = integrate(model, variant, fwd.final_state(), -h, n_steps,
                     record_stride=n_steps, solver_cfg=solver_cfg)
    if back.failed:
        raise StepError(f"backward leg failed at step {back.failed_step}",
                        back.failure)
    return _state_distance(back.final_state(), s0)


def map_symplecticity_defect(step_map, s: PhaseState, fd_eps=1e-6):
    """||J^T Omega J - Omega||_inf for the 2d x 2d Jacobian J of an arbitrary
    phase-space map, built by central differences with perturbation fd_eps.

    step_map takes and returns a PhaseState.
    """
    fd_eps = float(fd_eps)
    if fd_eps <= 0:
        raise ValueError("fd_eps must be > 0")
    d = s.dimension
    z0 = np.concatenate([s.q, s.p])
    J = np.empty((2 * d, 2 * d))
    for j in range(2 * d):
        zp = z0.copy()
        zm = z0.copy()
        zp[j] += fd_eps
        zm[j] -= fd_eps
        sp = step_map(PhaseState(zp[:d], zp[d:]))
        sm = step_map(PhaseState(zm[:d], zm[d:]))
        J[:, j] = (np.concatenate([sp.q, sp.p])
                   - np.concatenate([sm.q, sm.p])) / (2 * fd_eps)
    eye = np.eye(d)
    omega = np.block([[np.zeros((d, d)), eye], [-eye, np.zeros((d, d))]])
    defect = J.T @ omega @ J - omega
    return float(np.max(np.sum(np.abs(defect), axis=1)))


def symplecticity_defect(variant, model, s, h, fd_eps=1e-6, solver_cfg=None):
    """Symplecticity defect of one integrator step at state s."""
    variant = as_variant(variant)

    def step_map(state):
        return step(variant, model, state, h, solver_cfg).state

    return map_symplecticity_defect(step_map, s, fd_eps)


def fit_order(step_sizes, errors):
    """Least-squares slope of log(error) against log(h)."""
    hs = np.asarray(step_sizes, dtype=np.float64)
    es = np.asarray(errors, dtype=np.float64)
    if hs.size != es.size or hs.size < 2:
        raise ValueError("need >= 2 matching step sizes and errors")
    if np.any(hs <= 0) or np.any(es <= 0):
        raise ValueError("step sizes and errors must be positive")
    return float(np.polyfit(np.log(hs), np.log(es), 1)[0])


def convergence_order(variant, model, s0, T, step_sizes, reference=None,
                      solver_cfg=None) -> OrderEstimate:
    """Global-error convergence study at final time T.

    For each h the run error is the phase-space distance to the reference
    solution at T.  ``reference`` may be a callable t -> PhaseState (analytic
    solution) or None, in which case a same-variant run at h_ref =
    min(step_sizes)/20 is used.  Errors that fail to decrease monotonically
    with h are flagged (monotone=False): the reference is then too coarse to
    trust.
    """
    variant = as_variant(variant)
    T = float(T)
    if T <= 0:
        raise ValueError("T must be > 0")
    hs = np.sort(np.unique(np.asarray(step_sizes, dtype=np.float64)))[::-1]
    if hs.size < 2:
        raise ValueError("need at least two step sizes")
    if np.any(hs <= 0):
        raise ValueError("step sizes must be > 0")
    counts = []
    for h in hs:
        n = int(round(T / h))
        if n < 1 or abs(n * h - T) > 1e-9 * max(1.0, abs(T)):
            raise ValueError(f"step size {h} does not divide T={T}")
        counts.append(n)

    if callable(reference):
        ref_state = reference(T)
    elif reference is None:
        h_ref = hs[-1] / 20.0
        n_ref = int(np.ceil(T / h_ref - 1e-12))
        h_ref = T / n_ref
        ref = integrate(model, variant, s0, h_ref, n_ref, record_stride=n_ref,
                        solver_cfg=solver_cfg)
        if ref.failed:
            raise StepError(f"reference run failed at step {ref.failed_step}",
                            ref.failure)
        ref_state = ref.final_state()
    else:
        raise TypeError("reference must be callable or None")
    if not isinstance(ref_state, PhaseState):
        ref_state = PhaseState(*ref_state)

    errors = []
    for h, n in zip(hs, counts):
        traj = integrate(model, variant, s0, h, n, record_stride=n,
                         solver_cfg=solver_cfg)
        if traj.failed:
            raise StepError(f"run at h={h} failed at step {traj.failed_step}",
                            traj.failure)
        errors.append(_state_distance(traj.final_state(), ref_state))
    errors = np.array(errors)
    monotone = bool(np.all(np.diff(errors) < 0))
    return OrderEstimate(hs, errors, fit_order(hs, errors), monotone)


def angular_momentum_series(traj: Trajectory):
    """Planar angular momentum L = q1 p2 - q2 p1 per record (d = 2 only)."""
    if traj.q.shape[1] != 2:
        raise ValueError("angular momentum series requires dimension 2")
    return traj.q[:, 0] * traj.p[:, 1] - traj.q[:, 1] * traj.p[:, 0]


def analytic_reference(model, s0: PhaseState):
    """Closed-form flow t -> PhaseState for the cases that have one: the
    built-in free and harmonic models, and circular orbits of the built-in
    Kepler model.  Returns None when no analytic solution is available,
    also for any other model class, whatever its name."""
    if type(model) is FreeModel:
        def flow(t):
            return PhaseState(s0.q + t * s0.p / model.mass, s0.p)
        return flow
    if type(model) is HarmonicModel:
        w = model.parameters["omega"]
        wi = w / np.sqrt(model.mass)      # per-component frequency

        def flow(t):
            c = np.cos(wi * t)
            s = np.sin(wi * t)
            mw = model.mass * wi
            q = s0.q * c + (s0.p / mw) * s
            p = -s0.q * mw * s + s0.p * c
            return PhaseState(q, p)
        return flow
    if type(model) is KeplerModel and np.all(model.mass == 1.0):
        r = float(np.linalg.norm(s0.q))
        if r == 0.0:
            return None
        v2 = float(s0.p @ s0.p)
        radial = float(s0.q @ s0.p)
        # circular orbit: q.p = 0 and |p|^2 = 1/|q|
        if abs(radial) > 1e-12 or abs(v2 - 1.0 / r) > 1e-12:
            return None
        L = s0.q[0] * s0.p[1] - s0.q[1] * s0.p[0]
        omega = np.sign(L) * r ** -1.5

        def flow(t):
            c = np.cos(omega * t)
            s = np.sin(omega * t)
            rot = np.array([[c, -s], [s, c]])
            return PhaseState(rot @ s0.q, rot @ s0.p)
        return flow
    return None
