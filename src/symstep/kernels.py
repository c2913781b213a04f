"""Numeric kernels of the built-in models and of the integrators' fast path.

Models are dispatched by an integer ``kind`` with a flat float parameter
array (see the KIND_* constants), so the kernels take no model object.

* Vectors of length d -- the potential value and gradient, and with them the
  velocity Verlet step -- are computed by plain loops over the coordinates.
* Every d x d quantity of the implicit step is array code: the Lennard-Jones
  Hessian is assembled from its 3 x 3 pair blocks, the Newton Jacobian, the
  residual and both Hessian-vector products are array expressions, and the
  Newton update is a LAPACK solve (``np.linalg.solve``).

Kernels raise no exceptions of their own: singular configurations are
signalled with NaN fills and step failures with integer status codes (the
wrappers in :mod:`symstep.models` / :mod:`symstep.integrators` translate
these into proper errors).

Status codes returned by the implicit-step kernels:
0 converged, 1 max iterations, 2 singular Jacobian, 3 non-finite value.
"""

import math

import numpy as np

KIND_FREE = 0
KIND_HARMONIC = 1  # params = [omega]
KIND_KEPLER = 2    # params = []
KIND_LJ = 3        # params = [epsilon, sigma]; coordinates flat 3N

STATUS_OK = 0
STATUS_MAX_ITERATIONS = 1
STATUS_SINGULAR_JACOBIAN = 2
STATUS_NON_FINITE = 3

_I3 = np.eye(3)


def _finite(v):
    """Whether every entry of the vector v is finite; at the small d of most
    models this costs a fraction of ``np.isfinite(v).all()``."""
    return all(map(math.isfinite, v.tolist()))


def model_value(kind, params, q):
    if kind == KIND_FREE:
        return 0.0
    if kind == KIND_HARMONIC:
        w = params[0]
        s = 0.0
        for i in range(q.size):
            s += q[i] * q[i]
        return 0.5 * w * w * s
    if kind == KIND_KEPLER:
        r2 = 0.0
        for i in range(q.size):
            r2 += q[i] * q[i]
        if r2 == 0.0:
            return np.nan
        return -1.0 / np.sqrt(r2)
    # Lennard-Jones cluster, flat 3N coordinates
    eps = params[0]
    sig = params[1]
    n = q.size // 3
    v = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            dx = q[3 * i] - q[3 * j]
            dy = q[3 * i + 1] - q[3 * j + 1]
            dz = q[3 * i + 2] - q[3 * j + 2]
            r2 = dx * dx + dy * dy + dz * dz
            if r2 == 0.0:
                return np.nan
            inv2 = sig * sig / r2
            inv6 = inv2 * inv2 * inv2
            v += 4.0 * eps * (inv6 * inv6 - inv6)
    return v


def model_gradient(kind, params, q):
    d = q.size
    g = np.zeros(d)
    if kind == KIND_FREE:
        return g
    if kind == KIND_HARMONIC:
        w2 = params[0] * params[0]
        for i in range(d):
            g[i] = w2 * q[i]
        return g
    if kind == KIND_KEPLER:
        r2 = 0.0
        for i in range(d):
            r2 += q[i] * q[i]
        if r2 == 0.0:
            for i in range(d):
                g[i] = np.nan
            return g
        r3 = r2 * np.sqrt(r2)
        for i in range(d):
            g[i] = q[i] / r3
        return g
    eps = params[0]
    sig = params[1]
    n = d // 3
    for i in range(n):
        for j in range(i + 1, n):
            dx = q[3 * i] - q[3 * j]
            dy = q[3 * i + 1] - q[3 * j + 1]
            dz = q[3 * i + 2] - q[3 * j + 2]
            r2 = dx * dx + dy * dy + dz * dz
            if r2 == 0.0:
                for k in range(d):
                    g[k] = np.nan
                return g
            inv2 = sig * sig / r2
            inv6 = inv2 * inv2 * inv2
            # dV/dr / r = -(24 eps / r^2) (2 (s/r)^12 - (s/r)^6)
            c = -(24.0 * eps / r2) * (2.0 * inv6 * inv6 - inv6)
            g[3 * i] += c * dx
            g[3 * i + 1] += c * dy
            g[3 * i + 2] += c * dz
            g[3 * j] -= c * dx
            g[3 * j + 1] -= c * dy
            g[3 * j + 2] -= c * dz
    return g


def _lj_hessian(eps, sig, q):
    """LJ Hessian from its 3 x 3 pair blocks over dense (N, N) pair arrays.

    Pair (i, j) contributes B_ij = u'' rr^T/r^2 + (u'/r)(I - rr^T/r^2) to the
    diagonal blocks (i, i), (j, j) and -B_ij to (i, j), (j, i).  Self pairs
    get r^2 = inf, which makes their block exactly zero.
    """
    d = q.size
    n = d // 3
    X = q.reshape(n, 3)
    D = X[:, None, :] - X[None, :, :]
    r2 = (D * D).sum(axis=2)
    if np.count_nonzero(r2 == 0.0) > n:  # coincident atoms
        return np.full((d, d), np.nan)
    r2[range(n), range(n)] = np.inf
    inv2 = sig * sig / r2
    inv6 = inv2 * inv2 * inv2
    inv12 = inv6 * inv6
    k = 24.0 * eps / r2
    upr = -k * (2.0 * inv12 - inv6)        # u'(r)/r
    upp = k * (26.0 * inv12 - 7.0 * inv6)  # u''(r)
    B = (((upp - upr) / r2)[:, :, None, None] * D[:, :, :, None] * D[:, :, None, :]
         + upr[:, :, None, None] * _I3)
    H = -B
    H[range(n), range(n)] = B.sum(axis=1)
    return H.transpose(0, 2, 1, 3).reshape(d, d)


def model_hessian(kind, params, q):
    d = q.size
    if kind == KIND_LJ:
        return _lj_hessian(params[0], params[1], q)
    H = np.zeros((d, d))
    if kind == KIND_FREE:
        return H
    if kind == KIND_HARMONIC:
        w2 = params[0] * params[0]
        for i in range(d):
            H[i, i] = w2
        return H
    # Kepler
    r2 = 0.0
    for i in range(d):
        r2 += q[i] * q[i]
    if r2 == 0.0:
        H[:, :] = np.nan
        return H
    r = np.sqrt(r2)
    r3 = r2 * r
    r5 = r3 * r2
    for i in range(d):
        for j in range(d):
            H[i, j] = -3.0 * q[i] * q[j] / r5
        H[i, i] += 1.0 / r3
    return H


def verlet_step_kernel(kind, params, mass, q, p, h):
    d = q.size
    ga = model_gradient(kind, params, q)
    x = np.empty(d)
    ph = np.empty(d)
    for i in range(d):
        ph[i] = p[i] - 0.5 * h * ga[i]
        x[i] = q[i] + h * ph[i] / mass[i]
    gx = model_gradient(kind, params, x)
    pn = np.empty(d)
    for i in range(d):
        pn[i] = ph[i] - 0.5 * h * gx[i]
    return x, pn


def s3_constants(mass, h, ca, cx, cb):
    """Per-run constants of the implicit step for the coefficient triple
    (ca, cx, cb): (M/h, diag(M/h), (h/12) ca, (h/12) cx, (h/12) cb)."""
    c = h / 12.0
    mh = mass / h
    return mh, np.diag(mh), c * ca, c * cx, c * cb


def s3_residual_kernel(kind, params, ccx, a, base, J0, x):
    """Residual of the implicit position equation at candidate x.

    R(x) = M(x-a)/h + (h/12)(ca g(a) + cx g(x)) + (h/12) cb Hs(a)(x-a) - p,
    with ccx = (h/12) cx and the per-step terms J0 = M/h + (h/12) cb Hs(a)
    and base = (h/12) ca g(a) - p precomputed.
    """
    return J0.dot(x - a) + ccx * model_gradient(kind, params, x) + base


def s3_momentum_kernel(kind, params, consts, a, x):
    """New momentum once the position equation is solved.

    p' = M(x-a)/h + (h/12)(-cx g(a) - ca g(x)) + (h/12) cb Hs(x)(x-a).
    The coefficient swap (ca, cx) -> (-cx, -ca) relative to the residual is
    exactly what makes each variant self-adjoint.
    """
    _, Mh, cca, ccx, ccb = consts
    delta = x - a
    ga = model_gradient(kind, params, a)
    gx = model_gradient(kind, params, x)
    Hx = model_hessian(kind, params, x)
    return (Mh + ccb * Hx).dot(delta) - (ccx * ga + cca * gx)


def s3_step_kernel(kind, params, consts, a, p, h, tol, maxit):
    """One implicit step: Newton on the position residual, then the momentum
    relation.  ``consts`` comes from :func:`s3_constants`.  Returns
    (x, p_new, status, iterations, residual_norm) where x is the best iterate
    found and residual_norm its residual.
    """
    mh, Mh, cca, ccx, ccb = consts
    ga = model_gradient(kind, params, a)
    Ha = model_hessian(kind, params, a)
    if not np.isfinite(Ha).all():
        return a.copy(), np.full(a.size, np.nan), STATUS_NON_FINITE, 0, np.inf
    # Verlet predictor keeps Newton in its quadratic basin at moderate h.
    x = a + (p - 0.5 * h * ga) / mh
    base = cca * ga - p
    J0 = Mh + ccb * Ha
    r = s3_residual_kernel(kind, params, ccx, a, base, J0, x)
    # r, and so its norm, is non-finite whenever g(a) (through base) or x
    # is, so this test covers them too
    rnorm = abs(r).max()
    if not math.isfinite(rnorm):
        return x, np.full(a.size, np.nan), STATUS_NON_FINITE, 0, np.inf
    best_x = x
    best_norm = rnorm
    status = STATUS_MAX_ITERATIONS
    iters = 0
    if rnorm <= tol:
        status = STATUS_OK
    else:
        for it in range(1, maxit + 1):
            J = J0 + ccx * model_hessian(kind, params, x)
            try:
                delta = np.linalg.solve(J, r)
            except np.linalg.LinAlgError:
                status = STATUS_SINGULAR_JACOBIAN
                break
            x = x - delta
            r = s3_residual_kernel(kind, params, ccx, a, base, J0, x)
            rnorm = abs(r).max()
            if not math.isfinite(rnorm):
                status = STATUS_NON_FINITE
                iters = it
                break
            if rnorm < best_norm:
                best_norm = rnorm
                best_x = x
            if rnorm <= tol:
                status = STATUS_OK
                iters = it
                break
            iters = it
    if status != STATUS_OK:
        pn = s3_momentum_kernel(kind, params, consts, a, best_x)
        return best_x, pn, status, iters, best_norm
    pn = s3_momentum_kernel(kind, params, consts, a, x)
    if not _finite(pn):
        return x, np.full(a.size, np.nan), STATUS_NON_FINITE, iters, rnorm
    return x, pn, STATUS_OK, iters, rnorm


def run_verlet_kernel(kind, params, mass, q0, p0, h, n_steps, stride):
    """Fused velocity-Verlet trajectory.

    Returns (Q, P, n_recorded, failed_step, status, 0, 0.0).  Q/P hold the
    initial state plus every stride-th state; on failure at step k (1-based)
    recording stops and failed_step = k, otherwise failed_step = 0.
    """
    d = q0.size
    n_rec = n_steps // stride
    Q = np.empty((n_rec + 1, d))
    P = np.empty((n_rec + 1, d))
    Q[0, :] = q0
    P[0, :] = p0
    q = q0.copy()
    p = p0.copy()
    rec = 0
    for k in range(1, n_steps + 1):
        x, pn = verlet_step_kernel(kind, params, mass, q, p, h)
        if not (_finite(x) and _finite(pn)):
            return Q, P, rec, k, STATUS_NON_FINITE, 0, np.inf
        q = x
        p = pn
        if k % stride == 0:
            rec += 1
            Q[rec, :] = q
            P[rec, :] = p
    return Q, P, rec, 0, STATUS_OK, 0, 0.0


def run_s3_kernel(kind, params, mass, q0, p0, h, n_steps, stride,
                  ca, cx, cb, tol, maxit):
    """Fused implicit-scheme trajectory; same record/return layout as
    run_verlet_kernel plus the failing (or final) step's iteration count and
    residual norm."""
    d = q0.size
    n_rec = n_steps // stride
    Q = np.empty((n_rec + 1, d))
    P = np.empty((n_rec + 1, d))
    Q[0, :] = q0
    P[0, :] = p0
    consts = s3_constants(mass, h, ca, cx, cb)
    q = q0.copy()
    p = p0.copy()
    rec = 0
    iters = 0
    rnorm = 0.0
    for k in range(1, n_steps + 1):
        q, p, status, iters, rnorm = s3_step_kernel(
            kind, params, consts, q, p, h, tol, maxit)
        if status != STATUS_OK:
            return Q, P, rec, k, status, iters, rnorm
        if k % stride == 0:
            rec += 1
            Q[rec, :] = q
            P[rec, :] = p
    return Q, P, rec, 0, STATUS_OK, iters, rnorm
