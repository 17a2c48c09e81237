"""Independent numpy reference for the curvature of planes and frames.

The tests compare curv4's models, invariants and oracle against these
functions, so this module imports only numpy
(``test_reference_independence.py`` checks that).  Each function is
written from the definitions in the README's conventions, not from
curv4's code:

* 2-form basis e12, e13, e14, e23, e24, e34;
* K(ei, ej) = R(ij, ij): the matrix M is R_ijkl on the pairs i < j, k < l;
* Bianchi residual b = M[e12,e34] - M[e13,e24] + M[e14,e23].

Planes are given by any two vectors spanning them, frames as (4, 4) arrays
whose rows are the frame vectors, and tensors as their (6, 6) matrices.
"""

from __future__ import annotations

import numpy as np

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def wedge(u, v) -> np.ndarray:
    """Coefficients (u_i v_j - u_j v_i) of u ^ v on the pairs i < j."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.array([u[i] * v[j] - u[j] * v[i] for i, j in PAIRS])


def four_tensor(m) -> np.ndarray:
    """R_ijkl from the matrix: antisymmetric in ij and in kl, R_iikl = 0."""
    m = np.asarray(m, dtype=float)
    r = np.zeros((4, 4, 4, 4))
    for a, (i, j) in enumerate(PAIRS):
        for b, (k, l) in enumerate(PAIRS):
            r[i, j, k, l] = r[j, i, l, k] = m[a, b]
            r[j, i, k, l] = r[i, j, l, k] = -m[a, b]
    return r


def bianchi_residual(m) -> float:
    """The cyclic sum R_1234 + R_1342 + R_1423, which the first Bianchi
    identity sets to zero."""
    r = four_tensor(m)
    return float(r[0, 1, 2, 3] + r[0, 2, 3, 1] + r[0, 3, 1, 2])


def rotate(m, q) -> np.ndarray:
    """The matrix of the tensor in the frame whose vectors are the columns
    of ``q``: R'_ijkl = R(q e_i, q e_j, q e_k, q e_l)."""
    q = np.asarray(q, dtype=float)
    r = four_tensor(m)
    for _ in range(4):  # contract the leading index with q; the new one goes last
        r = np.tensordot(r, q, axes=([0], [0]))
    return np.array([[r[i, j, k, l] for k, l in PAIRS] for i, j in PAIRS])


def sectional(m, u, v) -> float:
    """K(u, v) = R(u, v, u, v) / |u ^ v|^2 for the plane spanned by u and v."""
    a = wedge(u, v)
    return float(a @ np.asarray(m, dtype=float) @ a / (a @ a))


def complement(u, v) -> np.ndarray:
    """Two orthonormal rows spanning the orthogonal complement of the plane:
    the null space of [u; v], from its singular value decomposition."""
    _, _, vt = np.linalg.svd(np.array([u, v], dtype=float))
    return vt[2:]


def biorthogonal(m, u, v) -> float:
    """The mean of the sectional curvatures of the plane and its complement."""
    return (sectional(m, u, v) + sectional(m, *complement(u, v))) / 2.0


def isotropic(m, frame) -> float:
    """K(f1,f3) + K(f1,f4) + K(f2,f3) + K(f2,f4) - 2 R(f1, f2, f3, f4) for an
    orthonormal frame with rows f1..f4."""
    f = np.asarray(frame, dtype=float)
    m = np.asarray(m, dtype=float)
    total = sum(sectional(m, f[i], f[j]) for i, j in ((0, 2), (0, 3), (1, 2), (1, 3)))
    return total - 2.0 * float(wedge(f[0], f[1]) @ m @ wedge(f[2], f[3]))


# <omega, STAR omega> = 2 (w12 w34 - w13 w24 + w14 w23): a 2-form is
# decomposable, the wedge of a plane, exactly when this Pluecker form vanishes.
STAR = np.zeros((6, 6))
STAR[0, 5] = STAR[5, 0] = STAR[2, 3] = STAR[3, 2] = 1.0
STAR[1, 4] = STAR[4, 1] = -1.0


def _golden_max(f, lo: float, hi: float, steps: int = 200) -> float:
    """The largest value a concave ``f`` takes on [lo, hi], by golden-section
    search."""
    shrink = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = f(d)
    return max(fc, fd)


def sectional_range(m) -> tuple[float, float]:
    """The least and largest sectional curvature of the tensor, by the
    Finsler-Thorpe trick: K_min = max_t lambda_min(M + t STAR) and K_max =
    min_t lambda_max(M + t STAR).  lambda_min(M + t STAR) is concave in t,
    and since STAR has eigenvalues +-1, it is at most |M| - |t| < lambda_min(M)
    for |t| > 2 |M|; the largest row-sum bounds |M|, so the optimum lies in
    |t| <= r = 2 max row-sum + 1."""
    m = np.asarray(m, dtype=float)
    r = 2.0 * np.max(np.sum(np.abs(m), axis=1)) + 1.0

    def least(a):
        return _golden_max(lambda t: np.linalg.eigvalsh(a + t * STAR)[0], -r, r)

    return least(m), -least(-m)
