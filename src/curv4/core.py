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

Operators are validated here by one stacked validator
(:func:`validated_stack`, of which :func:`from_matrix` is the stack of one),
and their closed-form invariants computed in one stacked pass
(:func:`invariants`); only :mod:`curv4.oracle` evaluates single planes and
frames.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ValidationError
from .numerics import scaled_bound

#: Index pairs (i, j), i < j, in basis order.
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

BASIS_LABELS = ("e12", "e13", "e14", "e23", "e24", "e34")

#: Default relative validation tolerance for symmetry and Bianchi checks.
DEFAULT_TOLERANCE = 1e-9

# Projecting the residual of a matrix of max-norm S away leaves a residual of
# its own roundings: at most 11 ulp(S) counting every rounding of the
# projection and of the residual (measured: at most 4 ulp(S), 2.5 eps S), so a
# projected matrix's bound never falls below this many ulp(S).
_PROJECTION_ULPS = 16

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
# One gather of the four 3x3 sub-blocks (AA, AB, BA, BB) of a 6x6 matrix.
_QUAD_ROWS = np.array([_LAMBDA_A, _LAMBDA_A, _LAMBDA_B, _LAMBDA_B])[:, :, None]
_QUAD_COLS = np.array([_LAMBDA_A, _LAMBDA_B, _LAMBDA_A, _LAMBDA_B])[:, None, :]
# Row and column signs of the blocks (A+, A-, C), stacked on the first axis.
_ROW_SIGNS = np.array([_SIGN_PLUS, _SIGN_MINUS, _SIGN_PLUS])[:, :, None]
_COL_SIGNS = np.array([_SIGN_PLUS, _SIGN_MINUS, _SIGN_MINUS])[:, None, :]
_ROW_COL_SIGNS = _ROW_SIGNS * _COL_SIGNS


_WEDGE_I = np.array([p[0] for p in PAIRS])
_WEDGE_J = np.array([p[1] for p in PAIRS])


def wedge(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coefficients of u ^ v in the fixed 2-form basis."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u[..., _WEDGE_I] * v[..., _WEDGE_J] - u[..., _WEDGE_J] * v[..., _WEDGE_I]


def lambda_basis() -> np.ndarray:
    """Orthogonal 6x6 change of basis; columns are phi_1+..phi_3+, phi_1-..phi_3-."""
    b = np.zeros((6, 6))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for col, (signs, offset) in enumerate(((_SIGN_PLUS, 0), (_SIGN_MINUS, 3))):
        for i in range(3):
            b[_LAMBDA_A[i], offset + i] = inv_sqrt2
            b[_LAMBDA_B[i], offset + i] = signs[i] * inv_sqrt2
    return b


def _lambda_stack(m: np.ndarray) -> np.ndarray:
    """The blocks (A+, A-, C) of :func:`lambda_blocks`, stacked on axis -3 of
    one (..., 3, 3, 3) array.

    Every entry is (AA + sc AB + sr BA + (sr sc) BB) / 2 over the matching
    sub-block entries, added left to right, with sr and sc the block's row
    and column signs (exactly +-1); A+ and A- are then symmetrized.
    """
    q = np.asarray(m, dtype=float)[..., _QUAD_ROWS, _QUAD_COLS]
    aa, ab, ba, bb = (q[..., None, i, :, :] for i in range(4))
    blocks = (aa + _COL_SIGNS * ab + _ROW_SIGNS * ba + _ROW_COL_SIGNS * bb) / 2.0
    diag = blocks[..., :2, :, :]
    diag[...] = (diag + np.swapaxes(diag, -1, -2)) / 2.0
    return blocks


def lambda_blocks(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocks (A+, A-, C) of a symmetric 6x6 matrix, or a stack (..., 6, 6) of
    them, in the star eigenbasis.

    A+ and A- are the 3x3 diagonal blocks on the +1/-1 eigenspaces and C the
    off-diagonal block mapping the -1 eigenspace into the +1 eigenspace.
    Computed entrywise so that dyadic inputs give exact dyadic blocks (no
    1/sqrt2 roundoff enters): one gather of the four sub-blocks and one
    stacked sign expression (:func:`_lambda_stack`).
    """
    blocks = _lambda_stack(m)
    return blocks[..., 0, :, :], blocks[..., 1, :, :], blocks[..., 2, :, :]


def operator_from_blocks(aplus: np.ndarray, aminus: np.ndarray,
                         off: np.ndarray | None = None) -> "CurvatureOperator":
    """Assemble a curvature operator from its star-eigenbasis blocks."""
    off = np.zeros((3, 3)) if off is None else np.asarray(off, dtype=float)
    full = np.block([[aplus, off], [off.T, aminus]])
    b = lambda_basis()
    with np.errstate(over="ignore", invalid="ignore"):  # from_matrix rejects overflow
        m = b @ full @ b.T
    # Assembled blocks are held to a tighter relative bound than input matrices.
    return from_matrix(m, project_bianchi=True, tolerance=1e-12)


def norm_max(m) -> float:
    """Max-norm of a raw matrix or of an operator's matrix."""
    if isinstance(m, CurvatureOperator):
        m = m.matrix
    return float(np.max(np.abs(np.asarray(m, dtype=float))))


# ---------------------------------------------------------------------------
# curvature operator


@dataclass(frozen=True)
class CurvatureOperator:
    """Symmetric bilinear form on 2-forms.

    ``matrix`` is read-only (as :func:`validated_stack` returns it), so the
    operator's invariants pass can be cached on first use.
    """

    matrix: np.ndarray

    @property
    def bianchi(self) -> float:
        """First-Bianchi residual b = M[e12,e34] - M[e13,e24] + M[e14,e23]."""
        return float(_raw_bianchi(self.matrix))

    @functools.cached_property
    def invariants(self) -> "Invariants":
        """The operator's one-row invariants pass, computed once; every
        closed-form view of the operator reads it."""
        return invariants(self.matrix[None])


def _raw_bianchi(m: np.ndarray):
    # The single scalar obstruction separating curvature-like operators from
    # merely symmetric ones in dimension 4 (one per matrix of a stack).
    return m[..., 0, 5] - m[..., 1, 4] + m[..., 2, 3]


def project_to_bianchi(m: np.ndarray) -> np.ndarray:
    """Minimal-norm correction of the three coupled entries making b vanish,
    for one matrix or each matrix of a stack (..., 6, 6)."""
    out = np.array(m, dtype=float)
    shift = _raw_bianchi(out) / 3.0
    out[..., 0, 5] -= shift
    out[..., 5, 0] -= shift
    out[..., 1, 4] += shift
    out[..., 4, 1] += shift
    out[..., 2, 3] -= shift
    out[..., 3, 2] -= shift
    return out


def _residual_bound(tolerance, scale, peak=None):
    """The largest Bianchi residual accepted on a matrix of max-norm
    ``scale``: :func:`~curv4.numerics.scaled_bound`, and for a matrix
    projected from one of max-norm ``peak``, never below the projection's
    rounding.  Scalars or arrays."""
    bound = scaled_bound(tolerance, scale)
    return bound if peak is None else np.maximum(bound, _PROJECTION_ULPS * np.spacing(peak))


def validated_stack(stack, project_bianchi: bool = False,
                    tolerance: float = DEFAULT_TOLERANCE) -> np.ndarray:
    """Validate a stack (N, 6, 6) of matrices as curvature operators: the one
    validator every operator passes through.

    Each matrix must be finite, symmetric within ``scaled_bound(tolerance,
    max|M|)`` and small enough to symmetrize, and its Bianchi residual must
    vanish within ``tolerance`` times its max-norm (:func:`_residual_bound`)
    unless ``project_bianchi`` is set, in which case the orthogonal
    projection onto the residual-free hyperplane is applied first, and its
    rounding is accepted.  Returns the read-only symmetrized (and projected)
    stack.  Every check runs once over the whole stack; the first failing
    matrix raises the error of its first failing check.
    """
    a = np.asarray(stack, dtype=float)
    if a.ndim != 3 or a.shape[1:] != (6, 6):
        raise ValidationError(f"expected a stack of 6x6 matrices, got shape {a.shape}")
    swap = np.swapaxes(a, -1, -2)
    axes = (-2, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        asym = np.abs(a - swap)
        sym = (a + swap) / 2.0
        mats = project_to_bianchi(sym) if project_bianchi else sym
        peak = np.abs(sym).max(axis=axes) if project_bianchi else None
        residual = _raw_bianchi(mats)
        bound = _residual_bound(tolerance, np.abs(mats).max(axis=axes), peak)
        # One row per check, in the order they are reported.  A matrix that
        # fails one check may pass or fail the later ones on NaNs; only its
        # first failure is reported.
        failed = np.array([
            ~np.isfinite(a).all(axis=axes),
            asym.max(axis=axes) > scaled_bound(tolerance, np.abs(a).max(axis=axes)),
            ~np.isfinite(sym).all(axis=axes),
            ~np.isfinite(mats).all(axis=axes),
            np.abs(residual) > bound,
        ])
    if failed.any():
        row, check = divmod(int(failed.T.argmax()), len(failed))
        i, j = np.unravel_index(asym[row].argmax(), (6, 6))
        raise ValidationError((
            "matrix has non-finite entries",
            f"matrix is not symmetric: entries ({i},{j})={float(a[row, i, j])!r} and "
            f"({j},{i})={float(a[row, j, i])!r} differ by {asym[row, i, j]:.3e}",
            "matrix entries are too large: symmetrizing overflows float64",
            "matrix entries are too large: projecting the Bianchi residual away "
            "overflows float64",
            f"Bianchi residual {float(residual[row]):.6e} exceeds tolerance "
            f"{float(bound[row]):.3e}"
            + ("" if project_bianchi else "; pass project_bianchi=True (--project-bianchi "
                                          "on the command line) to project it away"),
        )[check])
    mats.flags.writeable = False
    return mats


def from_matrix(m, project_bianchi: bool = False,
                tolerance: float = DEFAULT_TOLERANCE) -> CurvatureOperator:
    """Validate one 6x6 matrix as a curvature operator: :func:`validated_stack`
    of a stack of one."""
    mat = np.asarray(m, dtype=float)
    if mat.shape != (6, 6):
        raise ValidationError(f"expected a 6x6 matrix, got shape {mat.shape}")
    return CurvatureOperator(matrix=validated_stack(mat[None], project_bianchi, tolerance)[0])


def _component_index(x) -> int:
    """A component index as an int; fractional and non-numeric ones are rejected."""
    if type(x) is int or (type(x) is float and x.is_integer()):  # json's numbers
        return int(x)
    if (isinstance(x, bool) or not isinstance(x, numbers.Real)
            or not (isinstance(x, numbers.Integral) or float(x).is_integer())):
        raise ValidationError(f"component index must be an integer, got {x!r}")
    return int(x)


def from_components(entries, project_bianchi: bool = False,
                    tolerance: float = DEFAULT_TOLERANCE) -> CurvatureOperator:
    """Assemble an operator from sparse components (i, j, k, l, value), 1-based.

    Components must be mutually consistent under the index symmetries
    R_ijkl = -R_jikl = -R_ijlk = R_klij; duplicates that differ by more than
    ``scaled_bound(1e-12, larger magnitude)`` are rejected as conflicting.
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
            if abs(prev - signed) > scaled_bound(1e-12, max(abs(prev), abs(signed))):
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


_BASIS_WEDGE = np.stack([wedge(np.eye(4)[i], np.eye(4)[j]) for i in range(4) for j in range(4)])
_BASIS_WEDGE = _BASIS_WEDGE.reshape(4, 4, 6)
_BASIS_WEDGE.flags.writeable = False


def ricci(r: CurvatureOperator) -> np.ndarray:
    """Ricci tensor Ric_ik = sum_j <M(ei ^ ej), ek ^ ej>."""
    ric = np.einsum("ija,ab,kjb->ik", _BASIS_WEDGE, r.matrix, _BASIS_WEDGE)
    return (ric + ric.T) / 2.0


# ---------------------------------------------------------------------------
# invariants


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

    def row(self, i: int) -> "Invariants":
        """Row ``i`` as a one-row pass: read-only views of every column's
        ``[i:i + 1]``, bit-identical to the pass over that matrix alone."""
        return Invariants(**{name: col[i:i + 1] for name, col in vars(self).items()})


def _require_finite(*columns: np.ndarray) -> None:
    """Reject a stack whose invariants overflow float64: name the first
    matrix whose row of any of ``columns`` (matrix axis first) is not finite.
    The columns are checked in one pass over their rows laid side by side."""
    n = len(columns[0])
    rows = np.concatenate([col.reshape(n, math.prod(col.shape[1:])) for col in columns], axis=1)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ValidationError(f"matrix {int(np.argmin(finite))} is too large: "
                              "its invariants overflow float64")


@np.errstate(over="ignore", invalid="ignore")
def invariants(matrices) -> Invariants:
    """One pass over a stack (N, 6, 6) of validated operator matrices.

    Both Weyl halves of every matrix are diagonalized by one stacked
    symmetric eigensolve.  Each extremal biorthogonal value is s/12 plus the
    half-sum of the matching Weyl eigenvalues; the middle value is
    cross-checked against the trace identity k1 + k2 + k3 = s/4, and a
    discrepancy beyond rounding means the decomposition itself is broken and
    raises :class:`ConsistencyError`.  A stack whose invariants overflow
    float64 raises :class:`ValidationError`.
    """
    m = np.asarray(matrices, dtype=float)
    if m.ndim != 3 or m.shape[1:] != (6, 6):
        raise ValidationError(f"expected a stack of 6x6 matrices, got shape {m.shape}")
    s = 2.0 * np.trace(m, axis1=-2, axis2=-1)
    shift = (s / 12.0)[:, None, None] * np.eye(3)
    # (N, 2, 3, 3): the traceless blocks W+ and W-, solved in one call (LAPACK
    # still solves each 3x3 matrix on its own).
    weyl = _lambda_stack(m)[:, :2] - shift[:, None]
    try:
        spectra = np.linalg.eigvalsh(weyl)
    except np.linalg.LinAlgError:   # the eigensolve fails on non-finite blocks
        _require_finite(weyl)
        raise
    wplus, wminus = weyl[:, 0], weyl[:, 1]
    wp, wm = spectra[:, 0], spectra[:, 1]
    k = (s / 12.0)[:, None] + (wp + wm) / 2.0
    margin_a = k[:, 0] - s / 24.0
    margin_b = s / 6.0 - k[:, 2]
    margin_plus = s / 6.0 - wp[:, 2]
    margin_minus = s / 6.0 - wm[:, 2]
    _require_finite(k, margin_a, margin_b, margin_plus, margin_minus)
    residual = np.abs(k[:, 1] - (s / 4.0 - k[:, 0] - k[:, 2]))
    band = tolerance_band(s, np.max(np.abs(m), axis=(-2, -1)))
    broken = np.flatnonzero(residual > band)
    if broken.size:
        i = int(broken[0])
        raise ConsistencyError(
            f"middle biorthogonal value violates the trace identity by {residual[i]:.3e}"
        )
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
