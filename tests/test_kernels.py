"""The array LJ value and Hessian and the LAPACK solve against their
scalar-loop references."""

import numpy as np
import pytest

import symstep as ss
from reference_kernels import gauss_solve, lj_hessian_loop, lj_value_loop
from test_acceptance import lj_lattice


def lj_cluster(n_atoms, seed):
    return lj_lattice(np.random.default_rng(seed), n_atoms, jitter=0.05)


CLUSTERS = [(n, seed) for n in (2, 8, 16) for seed in (0, 1, 2)]


def rel_err(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("n_atoms,seed", CLUSTERS)
@pytest.mark.parametrize("eps,sig", [(1.0, 1.0), (0.7, 1.3)])
def test_lj_hessian_matches_loop_reference(n_atoms, seed, eps, sig):
    """The array value is checked on the same inputs."""
    model = ss.make_model("lj-cluster", dimension=3 * n_atoms,
                          epsilon=eps, sigma=sig)
    q = sig * lj_cluster(n_atoms, seed)
    for evaluate, reference in ((ss.potential_value, lj_value_loop),
                                (ss.potential_hessian, lj_hessian_loop)):
        assert rel_err(evaluate(model, q), reference(eps, sig, q)) <= 1e-13


def test_lj_hessian_coincident_atoms_is_singular():
    model = ss.make_model("lj-cluster", dimension=24)
    q = lj_cluster(8, 0)
    q[9:12] = q[0:3]
    assert np.all(np.isnan(lj_hessian_loop(1.0, 1.0, q)))
    for evaluate in (model.value, model.gradient, model.hessian):
        with pytest.raises(ss.SingularityError):
            evaluate(q)


@pytest.mark.parametrize("n_atoms,seed", CLUSTERS)
@pytest.mark.parametrize("h", [0.005, 0.05])
def test_newton_solve_matches_elimination_reference(n_atoms, seed, h):
    """The LAPACK solve and the elimination loop agree on the step's
    Newton systems J delta = -R at the Verlet predictor."""
    model = ss.make_model("lj-cluster", dimension=3 * n_atoms)
    rng = np.random.default_rng(seed)
    s = ss.PhaseState(lj_cluster(n_atoms, seed), rng.normal(scale=0.3, size=3 * n_atoms))
    residual, jacobian = ss.build_step_system("s3-corrected", model, s, h)
    x0 = s.q + h * s.p - 0.5 * h * h * model.gradient(s.q)
    J, rhs = jacobian(x0), -residual(x0)
    ref, ok = gauss_solve(J, rhs)
    assert ok
    assert rel_err(np.linalg.solve(J, rhs), ref) <= 1e-13


def test_singular_jacobian_flagged_by_both_solves():
    J = np.zeros((1, 1))
    _, ok = gauss_solve(J, np.ones(1))
    assert not ok
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(J, np.ones(1))
