"""Algebraic curvature tensors on a 4-dimensional inner-product space.

A curvature tensor at a point is stored as a symmetric 6x6 matrix acting on
2-forms in the fixed ordered basis

    (e12, e13, e14, e23, e24, e34),   eij = ei ^ ej,

with the sign convention that the quadratic form on the unit decomposable
2-form of a plane is the plane's sectional curvature: the unit round sphere
has matrix I (K = +1 on every plane).

The Hodge star is the signed antidiagonal  *e12 = e34, *e13 = -e24,
*e14 = e23 (an involution).  Its +1/-1 eigenspaces carry the orthonormal
bases

    phi_i+ = (e12 + e34)/sqrt2, (e13 - e24)/sqrt2, (e14 + e23)/sqrt2,
    phi_i- = (e12 - e34)/sqrt2, (e13 + e24)/sqrt2, (e14 - e23)/sqrt2,

in which the curvature operator splits into diagonal blocks A+/A- (whose
traceless parts are the two Weyl halves) and an off-diagonal block carrying
exactly the traceless Ricci content.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, DegenerateInputError, ValidationError
from .numerics import check_symmetric, gram_schmidt

#: Index pairs (i, j), i < j, in basis order.
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

BASIS_LABELS = ("e12", "e13", "e14", "e23", "e24", "e34")

#: Default relative validation tolerance for symmetry and Bianchi checks.
DEFAULT_TOLERANCE = 1e-9

_ORTHO_TOL = 1e-12
_DECOMPOSABLE_TOL = 1e-10

# Hodge star as a matrix on coefficient vectors: signed antidiagonal.
STAR = np.zeros((6, 6))
STAR[0, 5] = STAR[5, 0] = 1.0
STAR[1, 4] = STAR[4, 1] = -1.0
STAR[2, 3] = STAR[3, 2] = 1.0
STAR.flags.writeable = False

# Self-dual/anti-self-dual basis bookkeeping: phi_i(+/-) pairs basis element
# _LAMBDA_A[i] with _LAMBDA_B[i] using the sign rows below.
_LAMBDA_A = (0, 1, 2)
_LAMBDA_B = (5, 4, 3)
_SIGN_PLUS = np.array([1.0, -1.0, 1.0])
_SIGN_MINUS = -_SIGN_PLUS
_IX_AA = np.ix_(_LAMBDA_A, _LAMBDA_A)
_IX_AB = np.ix_(_LAMBDA_A, _LAMBDA_B)
_IX_BA = np.ix_(_LAMBDA_B, _LAMBDA_A)
_IX_BB = np.ix_(_LAMBDA_B, _LAMBDA_B)


_WEDGE_I = np.array([p[0] for p in PAIRS])
_WEDGE_J = np.array([p[1] for p in PAIRS])


def wedge(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coefficients of u ^ v in the fixed 2-form basis."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u[..., _WEDGE_I] * v[..., _WEDGE_J] - u[..., _WEDGE_J] * v[..., _WEDGE_I]


def hodge_star(alpha: np.ndarray) -> np.ndarray:
    """Hodge star of a 2-form given by its coefficient vector."""
    return np.asarray(alpha, dtype=float) @ STAR


def form_norm(alpha: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(alpha, dtype=float)))


def is_decomposable(alpha: np.ndarray, tol: float = _DECOMPOSABLE_TOL) -> bool:
    """Whether the 2-form is a wedge of two vectors (its self-pairing vanishes)."""
    alpha = np.asarray(alpha, dtype=float)
    pairing = float(alpha @ hodge_star(alpha))
    return abs(pairing) <= tol * (1.0 + float(alpha @ alpha))


def lambda_basis() -> np.ndarray:
    """Orthogonal 6x6 change of basis; columns are phi_1+..phi_3+, phi_1-..phi_3-."""
    b = np.zeros((6, 6))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for col, (signs, offset) in enumerate(((_SIGN_PLUS, 0), (_SIGN_MINUS, 3))):
        for i in range(3):
            b[_LAMBDA_A[i], offset + i] = inv_sqrt2
            b[_LAMBDA_B[i], offset + i] = signs[i] * inv_sqrt2
    return b


def lambda_blocks(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocks (A+, A-, C) of a symmetric 6x6 matrix, or a stack (..., 6, 6) of
    them, in the star eigenbasis.

    A+ and A- are the 3x3 diagonal blocks on the +1/-1 eigenspaces and C the
    off-diagonal block mapping the -1 eigenspace into the +1 eigenspace.
    Computed entrywise so that dyadic inputs give exact dyadic blocks (no
    1/sqrt2 roundoff enters).
    """
    m = np.asarray(m, dtype=float)
    maa = m[(..., *_IX_AA)]
    mab = m[(..., *_IX_AB)]
    mba = m[(..., *_IX_BA)]
    mbb = m[(..., *_IX_BB)]

    def block(srow: np.ndarray, scol: np.ndarray) -> np.ndarray:
        return (maa + scol[None, :] * mab + srow[:, None] * mba
                + srow[:, None] * scol[None, :] * mbb) / 2.0

    aplus = block(_SIGN_PLUS, _SIGN_PLUS)
    aminus = block(_SIGN_MINUS, _SIGN_MINUS)
    off = block(_SIGN_PLUS, _SIGN_MINUS)
    aplus = (aplus + np.swapaxes(aplus, -1, -2)) / 2.0
    aminus = (aminus + np.swapaxes(aminus, -1, -2)) / 2.0
    return aplus, aminus, off


def operator_from_blocks(aplus: np.ndarray, aminus: np.ndarray,
                         off: np.ndarray | None = None) -> "CurvatureOperator":
    """Assemble a curvature operator from its star-eigenbasis blocks."""
    full = np.zeros((6, 6))
    full[:3, :3] = check_symmetric(aplus)
    full[3:, 3:] = check_symmetric(aminus)
    if off is not None:
        full[:3, 3:] = np.asarray(off, dtype=float)
        full[3:, :3] = full[:3, 3:].T
    b = lambda_basis()
    return from_matrix(b @ full @ b.T, project_bianchi=True)


def norm_max(m) -> float:
    """Max-norm of a raw matrix or of an operator's matrix."""
    if isinstance(m, CurvatureOperator):
        m = m.matrix
    return float(np.max(np.abs(np.asarray(m, dtype=float))))


# ---------------------------------------------------------------------------
# curvature operator


@dataclass(frozen=True)
class CurvatureOperator:
    """Symmetric bilinear form on 2-forms with its cached Bianchi residual."""

    matrix: np.ndarray
    bianchi: float


def _raw_bianchi(m: np.ndarray) -> float:
    # The single scalar obstruction separating curvature-like operators from
    # merely symmetric ones in dimension 4.
    return float(m[0, 5] - m[1, 4] + m[2, 3])


def bianchi_residual(r) -> float:
    """First-Bianchi residual b = M[e12,e34] - M[e13,e24] + M[e14,e23]."""
    if isinstance(r, CurvatureOperator):
        return r.bianchi
    return _raw_bianchi(np.asarray(r, dtype=float))


def project_to_bianchi(m: np.ndarray) -> np.ndarray:
    """Minimal-norm correction of the three coupled entries making b vanish."""
    out = np.array(m, dtype=float)
    b = _raw_bianchi(out)
    shift = b / 3.0
    out[0, 5] -= shift
    out[5, 0] -= shift
    out[1, 4] += shift
    out[4, 1] += shift
    out[2, 3] -= shift
    out[3, 2] -= shift
    return out


def from_matrix(m, project_bianchi: bool = False,
                tolerance: float = DEFAULT_TOLERANCE) -> CurvatureOperator:
    """Validate a 6x6 symmetric matrix as a curvature operator.

    The Bianchi residual must vanish within ``tolerance`` (relative to the
    max-norm) unless ``project_bianchi`` is set, in which case the orthogonal
    projection onto the residual-free hyperplane is applied first.
    """
    mat = check_symmetric(m, tol=tolerance)
    if mat.shape != (6, 6):
        raise ValidationError(f"expected a 6x6 matrix, got shape {mat.shape}")
    if project_bianchi:
        mat = project_to_bianchi(mat)
    b = _raw_bianchi(mat)
    scale = 1.0 + float(np.max(np.abs(mat)))
    if abs(b) > tolerance * scale:
        raise ValidationError(
            f"Bianchi residual {b:.6e} exceeds tolerance {tolerance * scale:.3e}; "
            "pass project_bianchi=True to project it away"
        )
    mat.flags.writeable = False
    return CurvatureOperator(matrix=mat, bianchi=b)


def _component_index(x) -> int:
    """A component index as an int; fractional and non-numeric ones are rejected."""
    if (isinstance(x, bool) or not isinstance(x, numbers.Real)
            or not (isinstance(x, numbers.Integral) or float(x).is_integer())):
        raise ValidationError(f"component index must be an integer, got {x!r}")
    return int(x)


def from_components(entries, project_bianchi: bool = False,
                    tolerance: float = DEFAULT_TOLERANCE) -> CurvatureOperator:
    """Assemble an operator from sparse components (i, j, k, l, value), 1-based.

    Components must be mutually consistent under the index symmetries
    R_ijkl = -R_jikl = -R_ijlk = R_klij; conflicting duplicates are rejected.
    """
    pair_index = {p: a for a, p in enumerate(PAIRS)}
    seen: dict[tuple[int, int], tuple[float, tuple]] = {}

    def canon(i: int, j: int) -> tuple[int, float]:
        if not (1 <= i <= 4 and 1 <= j <= 4):
            raise ValidationError(f"index out of range 1..4 in component ({i},{j},..)")
        if i == j:
            raise ValidationError(f"repeated index pair ({i},{j}) has no curvature component")
        if i < j:
            return pair_index[(i - 1, j - 1)], 1.0
        return pair_index[(j - 1, i - 1)], -1.0

    for entry in entries:
        i, j, k, l, value = entry
        a, sa = canon(_component_index(i), _component_index(j))
        b, sb = canon(_component_index(k), _component_index(l))
        signed = sa * sb * float(value)
        key = (min(a, b), max(a, b))
        if key in seen:
            prev, prev_entry = seen[key]
            if abs(prev - signed) > 1e-12 * (1.0 + abs(prev)):
                raise ValidationError(
                    f"component {tuple(entry)} conflicts with {prev_entry} "
                    f"under the curvature index symmetries"
                )
        else:
            seen[key] = (signed, tuple(entry))

    mat = np.zeros((6, 6))
    for (a, b), (value, _) in seen.items():
        mat[a, b] = value
        mat[b, a] = value
    return from_matrix(mat, project_bianchi=project_bianchi, tolerance=tolerance)


def scalar_curvature(r: CurvatureOperator) -> float:
    """Scalar curvature s = 2 tr(M)."""
    return 2.0 * float(np.trace(r.matrix))


_BASIS_WEDGE = np.stack([wedge(np.eye(4)[i], np.eye(4)[j]) for i in range(4) for j in range(4)])
_BASIS_WEDGE = _BASIS_WEDGE.reshape(4, 4, 6)
_BASIS_WEDGE.flags.writeable = False


def ricci(r: CurvatureOperator) -> np.ndarray:
    """Ricci tensor Ric_ik = sum_j <M(ei ^ ej), ek ^ ej>."""
    ric = np.einsum("ija,ab,kjb->ik", _BASIS_WEDGE, r.matrix, _BASIS_WEDGE)
    return (ric + ric.T) / 2.0


# ---------------------------------------------------------------------------
# decomposition


def tolerance_band(s, scale=0.0):
    """Comparison band of every closed-form check (scalar or array).

    ``scale`` is the tensor's max-norm: rounding in the decomposition is
    relative to the entries, not to |s|, and trace-free tensors of large
    entries have s ~ 0.  The band is never narrower than 1e-12 (1 + |s|).
    """
    return 1e-12 * (1.0 + np.maximum(np.abs(s), scale))


@dataclass(frozen=True)
class Invariants:
    """Closed-form invariants of a stack of N operators, one array per quantity.

    Row i belongs to operator i: the scalar curvature, the traceless Weyl
    blocks and their ascending spectra, the biorthogonal spectrum
    k1 <= k2 <= k3, and the pinching (A: k1 >= s/24, B: k3 <= s/6) and NNIC
    (w3+/- <= s/6) margins with their verdicts within ``band``.
    """

    s: np.ndarray             # (N,)
    wplus: np.ndarray         # (N, 3, 3)
    wminus: np.ndarray        # (N, 3, 3)
    weyl_plus: np.ndarray     # (N, 3) ascending
    weyl_minus: np.ndarray    # (N, 3) ascending
    k: np.ndarray             # (N, 3) ascending
    band: np.ndarray          # (N,) tolerance_band(s, max|M|)
    margin_a: np.ndarray      # k1 - s/24
    margin_b: np.ndarray      # s/6 - k3
    margin_plus: np.ndarray   # s/6 - w3+
    margin_minus: np.ndarray  # s/6 - w3-
    hypothesis_a: np.ndarray  # (N,) bool
    hypothesis_b: np.ndarray
    nnic: np.ndarray
    scalar_positive: np.ndarray


def invariants(matrices) -> Invariants:
    """One pass over a stack (N, 6, 6) of validated operator matrices.

    Both Weyl halves are diagonalized by one stacked symmetric eigensolve
    each.  Each extremal biorthogonal value is s/12 plus the half-sum of the
    matching Weyl eigenvalues; the middle value is cross-checked against the
    trace identity k1 + k2 + k3 = s/4, and a discrepancy beyond rounding
    means the decomposition itself is broken and raises
    :class:`ConsistencyError`.
    """
    m = np.asarray(matrices, dtype=float)
    if m.ndim != 3 or m.shape[1:] != (6, 6):
        raise ValidationError(f"expected a stack of 6x6 matrices, got shape {m.shape}")
    s = 2.0 * np.trace(m, axis1=-2, axis2=-1)
    aplus, aminus, _ = lambda_blocks(m)
    shift = (s / 12.0)[:, None, None] * np.eye(3)
    wplus = aplus - shift
    wminus = aminus - shift
    wp = np.linalg.eigvalsh(wplus)
    wm = np.linalg.eigvalsh(wminus)
    k = (s / 12.0)[:, None] + (wp + wm) / 2.0
    residual = np.abs(k[:, 1] - (s / 4.0 - k[:, 0] - k[:, 2]))
    band = tolerance_band(s, np.max(np.abs(m), axis=(-2, -1)))
    broken = np.flatnonzero(residual > band)
    if broken.size:
        i = int(broken[0])
        raise ConsistencyError(
            f"middle biorthogonal value violates the trace identity by {residual[i]:.3e}"
        )
    margin_a = k[:, 0] - s / 24.0
    margin_b = s / 6.0 - k[:, 2]
    margin_plus = s / 6.0 - wp[:, 2]
    margin_minus = s / 6.0 - wm[:, 2]
    out = Invariants(
        s=s, wplus=wplus, wminus=wminus, weyl_plus=wp, weyl_minus=wm, k=k, band=band,
        margin_a=margin_a, margin_b=margin_b,
        margin_plus=margin_plus, margin_minus=margin_minus,
        hypothesis_a=margin_a >= -band, hypothesis_b=margin_b >= -band,
        nnic=(margin_plus >= -band) & (margin_minus >= -band),
        scalar_positive=s > 0.0,
    )
    for arr in vars(out).values():
        arr.flags.writeable = False
    return out


@dataclass(frozen=True)
class CurvatureDecomposition:
    """Scalar, Ricci and Weyl pieces of a curvature operator.

    ``invariants`` is the operator's one-row invariants pass; every closed-form
    check of the operator reads it instead of solving again.
    """

    s: float
    ricci: np.ndarray
    traceless_ricci: np.ndarray
    wplus: np.ndarray
    wminus: np.ndarray
    invariants: Invariants = field(repr=False)

    def weyl_spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues of the two Weyl halves."""
        return self.invariants.weyl_plus[0], self.invariants.weyl_minus[0]


def decompose(r: CurvatureOperator) -> CurvatureDecomposition:
    """Split a validated operator into scalar, Ricci and Weyl parts."""
    inv = invariants(r.matrix[None])
    s = float(inv.s[0])
    ric = ricci(r)
    traceless = ric - (s / 4.0) * np.eye(4)
    for arr in (ric, traceless):
        arr.flags.writeable = False
    return CurvatureDecomposition(s=s, ricci=ric, traceless_ricci=traceless,
                                  wplus=inv.wplus[0], wminus=inv.wminus[0],
                                  invariants=inv)


def operator_invariants(r: CurvatureOperator,
                        dec: CurvatureDecomposition | None = None) -> Invariants:
    """The one-row invariants of ``r``, reused from ``dec`` when given."""
    return dec.invariants if dec is not None else invariants(r.matrix[None])


# ---------------------------------------------------------------------------
# planes and curvature functions


@dataclass(frozen=True)
class Plane:
    """Oriented 2-plane given by an ordered orthonormal pair of 4-vectors."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).reshape(4).copy()
        v = np.asarray(self.v, dtype=float).reshape(4).copy()
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        dot = abs(float(u @ v))
        if abs(nu - 1.0) > _ORTHO_TOL or abs(nv - 1.0) > _ORTHO_TOL or dot > _ORTHO_TOL:
            raise ValidationError(
                f"plane vectors are not orthonormal: |u|={nu!r}, |v|={nv!r}, |<u,v>|={dot!r}"
            )
        u.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def from_span(cls, u, v) -> "Plane":
        """Orthonormalize two independent vectors into a plane."""
        ou, ov = gram_schmidt([u, v])
        return cls(ou, ov)

    def form(self) -> np.ndarray:
        """Unit decomposable 2-form of the plane."""
        return wedge(self.u, self.v)

    def projector(self) -> np.ndarray:
        return np.outer(self.u, self.u) + np.outer(self.v, self.v)


def complement(p: Plane) -> Plane:
    """The orthogonal-complement plane, from Gram-Schmidt over the standard basis."""
    found: list[np.ndarray] = []
    basis = [p.u, p.v]
    for k in range(4):
        w = np.eye(4)[k]
        for _ in range(2):  # a second pass restores orthogonality ("twice is enough")
            for u in basis + found:
                w = w - (w @ u) * u
        nrm = float(np.linalg.norm(w))
        if nrm >= 1e-8:
            found.append(w / nrm)
        if len(found) == 2:
            return Plane(found[0], found[1])
    raise DegenerateInputError("could not extend plane to a full frame")  # pragma: no cover


def sectional(r: CurvatureOperator, p: Plane) -> float:
    """Sectional curvature of the plane: the quadratic form on its unit 2-form."""
    alpha = p.form()
    return float(alpha @ r.matrix @ alpha)


def biorthogonal(r: CurvatureOperator, p: Plane) -> float:
    """Average of the sectional curvatures of a plane and its complement."""
    return (sectional(r, p) + sectional(r, complement(p))) / 2.0


@dataclass(frozen=True)
class BiorthoSpectrum:
    """Minimum, middle and maximum of the biorthogonal curvature at a point."""

    k1: float
    k2: float
    k3: float

    def __post_init__(self):
        if not (self.k1 <= self.k2 <= self.k3):
            raise ConsistencyError(
                f"biorthogonal spectrum out of order: {self.k1!r}, {self.k2!r}, {self.k3!r}"
            )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.k1, self.k2, self.k3)


def biortho_spectrum(r: CurvatureOperator,
                     dec: CurvatureDecomposition | None = None) -> BiorthoSpectrum:
    """Closed-form biorthogonal spectrum: row 0 of the operator's invariants."""
    k1, k2, k3 = operator_invariants(r, dec).k[0].tolist()
    return BiorthoSpectrum(k1=k1, k2=k2, k3=k3)


# ---------------------------------------------------------------------------
# frame changes


def rotate_operator(r: CurvatureOperator, q: np.ndarray,
                    tolerance: float = DEFAULT_TOLERANCE) -> CurvatureOperator:
    """Express the operator in the rotated tangent frame with columns Q e_i."""
    q = np.asarray(q, dtype=float)
    if q.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 rotation, got shape {q.shape}")
    if norm_max(q @ q.T - np.eye(4)) > 1e-9:
        raise ValidationError("frame change is not orthogonal")
    lift = np.stack([wedge(q[:, i], q[:, j]) for (i, j) in PAIRS], axis=1)
    return from_matrix(lift.T @ r.matrix @ lift, tolerance=tolerance)
