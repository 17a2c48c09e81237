"""Fixed-dimension linear-algebra kernel and deterministic random sampling.

Everything here is sized for the 3x3/6x6 symmetric matrices and 4-vectors the
rest of the package works with.  All randomness flows through :class:`RngStream`,
a counter-chunked Philox stream, so that serial and parallel runs of the same
configuration produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ValidationError

_SYMMETRY_TOL = 1e-12
_PIVOT_TOL = 1e-10


def check_symmetric(m: np.ndarray, tol: float = _SYMMETRY_TOL) -> np.ndarray:
    """Validate that ``m`` is square and symmetric within ``tol`` (relative).

    Returns the exactly symmetrized matrix as float64.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix has non-finite entries")
    scale = 1.0 + float(np.max(np.abs(a), initial=0.0))
    asym = a - a.T
    worst = np.unravel_index(np.argmax(np.abs(asym)), a.shape)
    if abs(asym[worst]) > tol * scale:
        i, j = worst
        raise ValidationError(
            f"matrix is not symmetric: entries ({i},{j})={a[i, j]!r} and "
            f"({j},{i})={a[j, i]!r} differ by {abs(asym[worst]):.3e}"
        )
    return (a + a.T) / 2.0


def eig_sym(m: np.ndarray, vectors: bool = False):
    """Eigenvalues (ascending) of a small symmetric matrix.

    Parameters
    ----------
    m : array_like, shape (n, n) with 2 <= n <= 6
        Symmetric within 1e-12 relative tolerance.
    vectors : bool
        If true, also return the orthonormal eigenvectors as columns.

    Returns
    -------
    w : ndarray, shape (n,)           eigenvalues sorted ascending
    v : ndarray, shape (n, n)         only when ``vectors`` is true
    """
    a = check_symmetric(m)
    n = a.shape[0]
    if not 2 <= n <= 6:
        raise ValidationError(f"eig_sym supports sizes 2..6, got {n}")
    if vectors:
        return np.linalg.eigh(a)
    return np.linalg.eigvalsh(a)


def gram_schmidt(vs) -> list[np.ndarray]:
    """Orthonormalize a list of linearly independent vectors (modified GS).

    The first output is the first input normalized; the span is preserved.
    Each vector is orthogonalized twice ("twice is enough"), which keeps the
    output orthonormal to rounding even for nearly dependent input.
    Raises :class:`DegenerateInputError` when a pivot norm drops below 1e-10.
    """
    out: list[np.ndarray] = []
    for k, v in enumerate(vs):
        w = np.asarray(v, dtype=float).copy()
        for _ in range(2):
            for u in out:
                w -= (w @ u) * u
        nrm = float(np.linalg.norm(w))
        if nrm < _PIVOT_TOL:
            raise DegenerateInputError(
                f"vector {k} is linearly dependent on its predecessors (pivot {nrm:.3e})"
            )
        out.append(w / nrm)
    return out


@dataclass(frozen=True)
class RngStream:
    """A (seed, chunk) pair naming one deterministic Philox substream.

    The chunk index is mapped onto disjoint ranges of the Philox counter, so
    any partition of work into chunks yields the same draws regardless of
    execution order or thread count.  Chunk indices below 2**32 are reserved
    for sample chunks; higher ranges are used for auxiliary streams.
    """

    seed: int
    chunk: int = 0

    def generator(self) -> np.random.Generator:
        key = int(self.seed) & 0xFFFFFFFFFFFFFFFF
        return np.random.Generator(np.random.Philox(counter=int(self.chunk) << 128, key=key))


def derive_seed(seed: int, *indices: int) -> int:
    """Derive a stable 64-bit subseed from a seed and an index path."""
    ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=tuple(indices))
    state = ss.generate_state(2, dtype=np.uint32)
    return int(state[0]) | (int(state[1]) << 32)


def _orthonormalize_rows(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched modified Gram-Schmidt on the rows of each (4, 4) block.

    Returns the orthonormalized batch and a boolean mask of frames whose
    pivots fell below tolerance (those rows are left unnormalized).
    """
    q = np.array(g, dtype=float)
    bad = np.zeros(q.shape[0], dtype=bool)
    for i in range(4):
        for j in range(i):
            proj = np.einsum("nk,nk->n", q[:, i], q[:, j])
            q[:, i] -= proj[:, None] * q[:, j]
        nrm = np.linalg.norm(q[:, i], axis=1)
        small = nrm < _PIVOT_TOL
        bad |= small
        nrm = np.where(small, 1.0, nrm)
        q[:, i] /= nrm[:, None]
    return q, bad


def random_frames(rng: RngStream, n: int) -> np.ndarray:
    """``n`` Haar-random orthonormal 4-frames (rows are the frame vectors).

    Gaussian draws followed by Gram-Schmidt; degenerate draws (probability
    zero in practice) are replaced by fresh draws from the same stream.
    """
    gen = rng.generator()
    frames, bad = _orthonormalize_rows(gen.standard_normal((n, 4, 4)))
    while np.any(bad):
        idx = np.flatnonzero(bad)
        redo, still_bad = _orthonormalize_rows(gen.standard_normal((len(idx), 4, 4)))
        frames[idx] = redo
        bad[:] = False
        bad[idx[still_bad]] = True
    return frames


# Antisymmetric generator coefficients are ordered like the two-form basis:
# (12, 13, 14, 23, 24, 34).
_GEN_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def antisymmetric_from_coeffs(omega: np.ndarray) -> np.ndarray:
    """4x4 antisymmetric matrix (or batch) from six generator coefficients."""
    omega = np.asarray(omega, dtype=float)
    out = np.zeros(omega.shape[:-1] + (4, 4))
    for a, (i, j) in enumerate(_GEN_PAIRS):
        out[..., i, j] = omega[..., a]
        out[..., j, i] = -omega[..., a]
    return out


def rotation_from_generator(omega: np.ndarray) -> np.ndarray:
    """Matrix exponential of the antisymmetric matrix with coefficients ``omega``.

    Works on a single 6-vector or a batch (..., 6).  Uses the split of a 4x4
    antisymmetric matrix into two commuting quaternionic halves, each of which
    squares to a negative multiple of the identity, so the exponential is a
    closed-form cosine/sine combination.
    """
    omega = np.asarray(omega, dtype=float)
    shape = omega.shape[:-1]
    o = omega.reshape(-1, 6)
    n = o.shape[0]
    halves = []
    for sgn in (+1.0, -1.0):
        a = (o[:, 0] + sgn * o[:, 5]) / 2.0
        b = (o[:, 1] - sgn * o[:, 4]) / 2.0
        c = (o[:, 2] + sgn * o[:, 3]) / 2.0
        theta = np.sqrt(a * a + b * b + c * c)
        safe = np.where(theta == 0.0, 1.0, theta)
        sinc = np.where(theta == 0.0, 1.0, np.sin(safe) / safe)
        a, b, c = sinc * a, sinc * b, sinc * c
        out = np.zeros((n, 4, 4))
        cos = np.cos(theta)
        for i in range(4):
            out[:, i, i] = cos
        out[:, 0, 1], out[:, 1, 0] = a, -a
        out[:, 0, 2], out[:, 2, 0] = b, -b
        out[:, 0, 3], out[:, 3, 0] = c, -c
        out[:, 1, 2], out[:, 2, 1] = sgn * c, -sgn * c
        out[:, 1, 3], out[:, 3, 1] = -sgn * b, sgn * b
        out[:, 2, 3], out[:, 3, 2] = sgn * a, -sgn * a
        halves.append(out)
    return (halves[0] @ halves[1]).reshape(shape + (4, 4))
