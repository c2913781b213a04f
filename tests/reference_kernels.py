"""Scalar-loop reference implementations of the library's array code.

``lj_value_loop``, ``lj_gradient_loop`` and ``lj_hessian_loop`` evaluate
the Lennard-Jones value, gradient and Hessian pair by pair, and
``gauss_solve`` is Gaussian elimination with partial pivoting.  They are
the loop forms that the ``lj-cluster`` model's pair-list kernels and the
Newton solver's LAPACK solve replaced; tests compare the library against
them.
"""

import numpy as np


def lj_value_loop(eps, sig, q):
    """sum_{i<j} 4 eps [(sig/r)^12 - (sig/r)^6] at flat 3N coordinates q;
    NaN when two atoms coincide."""
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


def lj_gradient_loop(eps, sig, q):
    """Gradient of sum_{i<j} 4 eps [(sig/r)^12 - (sig/r)^6] at flat 3N
    coordinates q; NaN-filled when two atoms coincide."""
    d = q.size
    g = np.zeros(d)
    for i in range(0, d, 3):
        for j in range(i + 3, d, 3):
            dx = q[i] - q[j]
            dy = q[i + 1] - q[j + 1]
            dz = q[i + 2] - q[j + 2]
            r2 = dx * dx + dy * dy + dz * dz
            if r2 == 0.0:
                return np.full(d, np.nan)
            inv2 = sig * sig / r2
            inv6 = inv2 * inv2 * inv2
            c = -(24.0 * eps / r2) * (2.0 * inv6 * inv6 - inv6)  # u'(r)/r
            g[i] += c * dx
            g[i + 1] += c * dy
            g[i + 2] += c * dz
            g[j] -= c * dx
            g[j + 1] -= c * dy
            g[j + 2] -= c * dz
    return g


def lj_hessian_loop(eps, sig, q):
    """Hessian of sum_{i<j} 4 eps [(sig/r)^12 - (sig/r)^6] at flat 3N
    coordinates q; NaN-filled when two atoms coincide."""
    d = q.size
    H = np.zeros((d, d))
    n = d // 3
    dv = np.empty(3)
    for i in range(n):
        for j in range(i + 1, n):
            dv[0] = q[3 * i] - q[3 * j]
            dv[1] = q[3 * i + 1] - q[3 * j + 1]
            dv[2] = q[3 * i + 2] - q[3 * j + 2]
            r2 = dv[0] * dv[0] + dv[1] * dv[1] + dv[2] * dv[2]
            if r2 == 0.0:
                H[:, :] = np.nan
                return H
            inv2 = sig * sig / r2
            inv6 = inv2 * inv2 * inv2
            inv12 = inv6 * inv6
            upr = -(24.0 * eps / r2) * (2.0 * inv12 - inv6)   # u'(r)/r
            upp = (24.0 * eps / r2) * (26.0 * inv12 - 7.0 * inv6)  # u''(r)
            # pair block B = u'' rr^T/r^2 + (u'/r)(I - rr^T/r^2)
            for a in range(3):
                for b in range(3):
                    bab = (upp - upr) * dv[a] * dv[b] / r2
                    if a == b:
                        bab += upr
                    H[3 * i + a, 3 * i + b] += bab
                    H[3 * j + a, 3 * j + b] += bab
                    H[3 * i + a, 3 * j + b] -= bab
                    H[3 * j + a, 3 * i + b] -= bab
    return H


def gauss_solve(A, b):
    """Dense solve of A x = b by Gaussian elimination with partial pivoting.

    Returns (x, ok); ok is False when a pivot is exactly zero (singular
    matrix).  A and b are not modified.
    """
    n = b.size
    U = A.copy()
    y = b.copy()
    x = np.zeros(n)
    for col in range(n):
        piv = col
        best = abs(U[col, col])
        for r in range(col + 1, n):
            v = abs(U[r, col])
            if v > best:
                best = v
                piv = r
        if best == 0.0:
            return x, False
        if piv != col:
            for c in range(col, n):
                t = U[col, c]
                U[col, c] = U[piv, c]
                U[piv, c] = t
            t = y[col]
            y[col] = y[piv]
            y[piv] = t
        inv = 1.0 / U[col, col]
        for r in range(col + 1, n):
            f = U[r, col] * inv
            if f != 0.0:
                U[r, col] = 0.0
                for c in range(col + 1, n):
                    U[r, c] -= f * U[col, c]
                y[r] -= f * y[col]
    for i in range(n - 1, -1, -1):
        s = y[i]
        for j in range(i + 1, n):
            s -= U[i, j] * x[j]
        x[i] = s / U[i, i]
    return x, True
