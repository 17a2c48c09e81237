"""Independent reference for curv4's closed-form invariants (numpy only).

Nothing here imports curv4.  The Hodge star, the 2-form basis and the model
tensors are rebuilt from the conventions stated in the README:

* 2-form basis e12, e13, e14, e23, e24, e34;
* K(ei, ej) = R(ij, ij), so the unit round sphere is the identity matrix;
* Hodge star: *e12 = e34, *e13 = -e24, *e14 = e23;
* Bianchi residual b = M[e12,e34] - M[e13,e24] + M[e14,e23].

The star's +1/-1 eigenspaces come from ``numpy.linalg.eigh``, and the Weyl
spectra from ``numpy.linalg.eigvalsh`` of the two diagonal blocks, so the
reference shares no arithmetic with curv4's Jacobi solver or block layout.
Every function accepts one (6, 6) matrix or a stack (N, 6, 6).
"""

from __future__ import annotations

import numpy as np

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

STAR = np.zeros((6, 6))
STAR[0, 5] = STAR[5, 0] = 1.0
STAR[1, 4] = STAR[4, 1] = -1.0
STAR[2, 3] = STAR[3, 2] = 1.0

_star_vals, _star_vecs = np.linalg.eigh(STAR)
#: Orthonormal bases (6, 3) of the self-dual and anti-self-dual 2-forms.
SELF_DUAL = _star_vecs[:, _star_vals > 0]
ANTI_SELF_DUAL = _star_vecs[:, _star_vals < 0]

#: Relative tolerance, times the tensor's max-norm, for closed-form values.
REL_TOL = 1e-10

#: The verify command's oracle-vs-closed-form tolerances (absolute, relative).
ORACLE_ATOL = 1e-6
ORACLE_RTOL = 1e-6

_MASK64 = 0xFFFFFFFFFFFFFFFF


def invariants(m) -> dict:
    """Scalar curvature, ascending Weyl spectra and biorthogonal spectrum."""
    m = np.asarray(m, dtype=float)
    s = 2.0 * np.trace(m, axis1=-2, axis2=-1)
    shift = (s / 12.0)[..., None, None] * np.eye(3)
    wp = np.linalg.eigvalsh(SELF_DUAL.T @ m @ SELF_DUAL - shift)
    wm = np.linalg.eigvalsh(ANTI_SELF_DUAL.T @ m @ ANTI_SELF_DUAL - shift)
    k = (s / 12.0)[..., None] + (wp + wm) / 2.0
    return {"s": s, "weyl_plus": wp, "weyl_minus": wm, "k": k}


def tolerance(m) -> np.ndarray:
    """Comparison tolerance scaled by the tensor's max-norm."""
    m = np.asarray(m, dtype=float)
    return REL_TOL * np.max(np.abs(m), axis=(-2, -1)) + 1e-300


def oracle_tolerance(target: float, scale: float = 1.0) -> float:
    """verify's oracle agreement band; ``scale`` widens its absolute part."""
    return ORACLE_ATOL * scale + ORACLE_RTOL * abs(target)


def bianchi_residual(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    return m[..., 0, 5] - m[..., 1, 4] + m[..., 2, 3]


def project_bianchi(m) -> np.ndarray:
    """Minimal-norm change of the three coupled entries that makes b vanish."""
    out = np.array(m, dtype=float)
    shift = bianchi_residual(out) / 3.0
    for (i, j), sign in (((0, 5), -1.0), ((1, 4), 1.0), ((2, 3), -1.0)):
        out[..., i, j] += sign * shift
        out[..., j, i] += sign * shift
    return out


# ---------------------------------------------------------------------------
# curvature of planes and frames, straight from the definitions


def wedge(u, v) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.stack([u[..., i] * v[..., j] - u[..., j] * v[..., i] for i, j in PAIRS], axis=-1)


def sectional(m, u, v) -> float:
    a = wedge(u, v)
    return float(a @ np.asarray(m) @ a)


def isotropic(m, frame) -> float:
    """K(f1,f3) + K(f1,f4) + K(f2,f3) + K(f2,f4) - 2 <M(f1^f2), f3^f4>."""
    f = np.asarray(frame, dtype=float)
    m = np.asarray(m, dtype=float)
    total = sum(sectional(m, f[i], f[j]) for i, j in ((0, 2), (0, 3), (1, 2), (1, 3)))
    return total - 2.0 * float(wedge(f[0], f[1]) @ m @ wedge(f[2], f[3]))


# ---------------------------------------------------------------------------
# model tensors


def _diag(entries: dict) -> np.ndarray:
    m = np.zeros((6, 6))
    for idx, value in entries.items():
        m[idx, idx] = value
    return m


def cp2_matrix(scale: float = 1.0) -> np.ndarray:
    """Fubini-Study tensor with complex structure e1 -> e2, e3 -> e4:
    R_ijkl = scale (d_ik d_jl - d_il d_jk + J_ik J_jl - J_il J_jk + 2 J_ij J_kl)."""
    j = np.zeros((4, 4))
    j[1, 0] = j[3, 2] = 1.0
    j[0, 1] = j[2, 3] = -1.0
    d = np.eye(4)
    r = (np.einsum("ik,jl->ijkl", d, d) - np.einsum("il,jk->ijkl", d, d)
         + np.einsum("ik,jl->ijkl", j, j) - np.einsum("il,jk->ijkl", j, j)
         + 2.0 * np.einsum("ij,kl->ijkl", j, j))
    return scale * np.array([[r[a + b] for b in PAIRS] for a in PAIRS])


def model_matrix(spec: str) -> np.ndarray:
    """Matrix of a deterministic CLI model spec such as ``sphere:2`` or ``flat``."""
    name, _, tail = spec.partition(":")
    p = [float(x) for x in tail.split(",")] if tail else []
    if name == "sphere":
        return np.eye(6) / (p[0] if p else 1.0) ** 2
    if name == "space_form":
        return (p[0] if p else 1.0) * np.eye(6)
    if name in ("product", "product_surfaces"):
        k1, k2 = p if p else (1.0, 1.0)
        return _diag({0: k1, 5: k2})
    if name == "cp2":
        return cp2_matrix(p[0] if p else 1.0)
    if name == "r_times_s3":
        return _diag({0: 1.0, 1: 1.0, 3: 1.0}) / (p[0] if p else 1.0) ** 2
    if name == "flat":
        return np.zeros((6, 6))
    raise ValueError(f"not a deterministic model: {spec!r}")


# ---------------------------------------------------------------------------
# curv4's seeded random tensor stream (part of its byte-reproducibility contract)


def derive_seed(seed: int, *indices: int) -> int:
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=tuple(indices))
    lo, hi = ss.generate_state(2, dtype=np.uint32)
    return int(lo) | (int(hi) << 32)


def random_bianchi_matrix(key: int, scale: float = 1.0) -> np.ndarray:
    """The ``random_bianchi`` tensor drawn from the Philox stream with this key."""
    gen = np.random.Generator(np.random.Philox(counter=0, key=int(key) & _MASK64))
    g = gen.standard_normal((6, 6)) * scale
    return project_bianchi(np.triu(g) + np.triu(g, 1).T)


def scan_matrices(seed: int, trials: int, scale: float = 1.0) -> np.ndarray:
    """Tensors of ``scan --model random_bianchi:SCALE --seed SEED`` (and of
    ``verify --seed SEED``, whose trial i draws the same tensor as scan row i)."""
    return np.stack([random_bianchi_matrix(derive_seed(seed, i, 0), scale)
                     for i in range(trials)])
