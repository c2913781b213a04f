"""The LJ model's pair-list array kernels (value, gradient, Hessian) and the
solver's LAPACK inverse against their scalar-loop references in
``reference_loops``, and the LJ model's memo of pair terms."""

import numpy as np
import numpy.testing as npt
import pytest

import symstep as ss
from symstep import solvers
from reference_loops import (gauss_solve, lj_gradient_loop, lj_hessian_loop,
                             lj_value_loop)
from test_acceptance import lj_lattice


def lj_cluster(n_atoms, seed):
    return lj_lattice(np.random.default_rng(seed), n_atoms, jitter=0.05)


CLUSTERS = [(n, seed) for n in (2, 8, 16) for seed in (0, 1, 2)]
KERNEL_CLUSTERS = CLUSTERS + [(64, seed) for seed in (0, 1, 2)]


def rel_err(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("n_atoms,seed", KERNEL_CLUSTERS)
@pytest.mark.parametrize("eps,sig", [(1.0, 1.0), (0.7, 1.3)])
def test_lj_hessian_matches_loop_reference(n_atoms, seed, eps, sig):
    """The array value and gradient are checked on the same inputs."""
    model = ss.make_model("lj-cluster", dimension=3 * n_atoms,
                          epsilon=eps, sigma=sig)
    q = sig * lj_cluster(n_atoms, seed)
    for evaluate, reference in ((model.value, lj_value_loop),
                                (model.gradient, lj_gradient_loop),
                                (model.hessian, lj_hessian_loop)):
        assert rel_err(evaluate(q), reference(eps, sig, q)) <= 1e-13


def test_lj_hessian_coincident_atoms_is_singular():
    model = ss.make_model("lj-cluster", dimension=24)
    q = lj_cluster(8, 0)
    q[9:12] = q[0:3]
    assert np.all(np.isnan(lj_hessian_loop(1.0, 1.0, q)))
    for evaluate in (model.value, model.gradient, model.hessian):
        with pytest.raises(ss.SingularityError):
            evaluate(q)


def evaluations(model, q):
    return model.value(q), model.gradient(q), model.hessian(q)


def assert_same_evaluations(got, want):
    assert got[0] == want[0]
    npt.assert_array_equal(got[1], want[1])
    npt.assert_array_equal(got[2], want[2])


def test_lj_memo_sees_a_configuration_changed_in_place():
    """The pair terms are keyed by the configuration's bytes, not by the
    array: a caller's buffer changed in place gives a fresh evaluation."""
    model = ss.make_model("lj-cluster", dimension=24)
    q = lj_cluster(8, 0)
    evaluations(model, q)
    q[4] += 0.1
    fresh = ss.make_model("lj-cluster", dimension=24)
    assert_same_evaluations(evaluations(model, q), evaluations(fresh, q.copy()))


def test_lj_memo_alternating_configurations():
    """Alternating two configurations never returns the other's terms."""
    model = ss.make_model("lj-cluster", dimension=48)
    qa, qb = lj_cluster(16, 0), lj_cluster(16, 1)
    want = {k: evaluations(ss.make_model("lj-cluster", dimension=48), q)
            for k, q in (("a", qa), ("b", qb))}
    for _ in range(3):
        for k, q in (("a", qa), ("b", qb)):
            for evaluate, i in ((model.value, 0), (model.gradient, 1),
                                (model.hessian, 2)):
                npt.assert_array_equal(evaluate(q), want[k][i])
                # a different configuration in between each evaluation
                model.value(qb if k == "a" else qa)


def test_lj_memo_keeps_singularities():
    """After the memo holds a regular cluster, coincident atoms still raise
    from every evaluation, whether or not the memo holds them."""
    model = ss.make_model("lj-cluster", dimension=24)
    q = lj_cluster(8, 0)
    bad = q.copy()
    bad[9:12] = bad[0:3]
    for evaluate in (model.value, model.gradient, model.hessian):
        model.hessian(q)
        with pytest.raises(ss.SingularityError):
            evaluate(bad)
    for evaluate in (model.value, model.gradient, model.hessian):
        with pytest.raises(ss.SingularityError):
            evaluate(bad)


@pytest.mark.parametrize("n_atoms,seed", CLUSTERS)
@pytest.mark.parametrize("h", [0.005, 0.05])
def test_newton_solve_matches_elimination_reference(n_atoms, seed, h,
                                                    monkeypatch):
    """The solver's LAPACK inverse and the elimination loop agree on the
    step's first Newton system J(a) delta = -R(a).  Dominant J take the
    Neumann inverse instead; that branch is turned off here."""
    monkeypatch.setattr(solvers, "NEUMANN_MAX_COUPLING", -np.inf)
    model = ss.make_model("lj-cluster", dimension=3 * n_atoms)
    rng = np.random.default_rng(seed)
    s = ss.PhaseState(lj_cluster(n_atoms, seed), rng.normal(scale=0.3, size=3 * n_atoms))
    residual, jacobian = ss.build_step_system("s3-corrected", model, s, h)
    J, r = jacobian(s.q), residual(s.q)
    ref, ok = gauss_solve(J, -r)
    assert ok
    assert rel_err(solvers._minus_inverse(J).dot(r), ref) <= 1e-13


def test_singular_jacobian_flagged_by_both_solves():
    J = np.zeros((1, 1))
    _, ok = gauss_solve(J, np.ones(1))
    assert not ok
    assert solvers._minus_inverse(J) is None
