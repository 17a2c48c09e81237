"""Brute-force extrema of curvature quantities over planes and frames.

The search is the ground truth against which closed-form results are tested,
so it deliberately avoids the spectral decomposition: every value it reports
comes from evaluating the curvature form on explicitly sampled planes or
orthonormal 4-frames.

Two phases: uniform sampling (Haar frames, chunked deterministic streams),
then a Newton polish from a handful of mutually distant coarse candidates.
The searches that share a seed share one draw and one candidate selection
pass (:func:`_select_group`).
The polish takes the exact gradient and Hessian of the objective in so(4)
(Absil, Mahony and Sepulchre, *Optimization Algorithms on Matrix
Manifolds*, 2008, ch. 6), and steps each frame by -H^+ g over the Hessian's
positive directions.  Where that step does not improve the value at a frame
that is not stationary, the frame tries -|H|^+ g, which also descends along
negative directions, halved until it improves; a frame stops at a
stationary point, when no trial improves, or at its step cap.  The polish
draws no random numbers.

Each objective is one table of terms (:data:`_OBJECTIVES`), each term
c <M(f_p ^ f_q), f_r ^ f_t> over the rows f of a frame.  The coarse pass and
every trial frame sum the terms directly (:func:`_evaluate`); the polish
reads the frame form P(F), with <P(F), M> the objective, off the same terms
(:func:`_frame_form`).  The gradient and Hessian pair P(F) with 6 + 21 fixed
matrices of M, its jets (:func:`_jets`),
since a rotation exp(X) acts on 2-forms by exp(D_X), D_X(u ^ v) = Xu ^ v +
u ^ Xv; a step takes them in one contraction.  Trial frames are evaluated
directly, so every reported value is attained by its witness, the winning
frame: a plane objective's plane is its rows 0-1, the complement rows 2-3.

Each search runs on its operator divided by 2^e, the power of two that
brings max|M| into [1, 2).  The division is exact, so the values, scaled
back, are those of the operator itself, and no intermediate overflows for
an operator near the float64 limit.  A value that overflows float64 when
scaled back raises :class:`ValidationError`.

One driver, :func:`extremize_batch`, runs any number of searches together:
searches that share a seed share one coarse frame draw, searches on equal
matrices share one operator, and each polish advances the frames of all its
searches of one objective together.  Each result is bit-identical to
running its search alone.  The polish's memory grows with the batch, its
frames and distinct operators; verify bounds it by running
:data:`~curv4.verify.TRIAL_BLOCK` trials per batch.

A call runs on W workers, W being at most two and at most the CPUs
available to the process: the calling thread and W - 1 threads started for
each phase of the call and joined before the phase ends, all taking items
from one shared iterator (:func:`_share`).  A batch of two or more seeds
runs in two phases.  First the workers share whole seed groups, keeping
only each group's polish starts; then the refined searches, in search
order, are cut into W contiguous parts, one polish each, which the workers
share in turn.  A polish steps as often as its slowest frame, so fixing
each polish's frames by the batch and W alone fixes the work done: the
same steps and rotations whichever worker took which group.  A lone
group's items are instead the chunks of its one pass, after which the
calling thread selects and polishes.  Each thread draws through its own
Philox generator and scratch arrays (:func:`random_frames`).  A chunk's
draws come from its own Philox substream and it writes only its own slice
of the pass's buffers, a group's starts depend only on its seed, and each
frame's polish only on that frame, so every byte is the same for any CPU
count and any schedule.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import PAIRS, wedge
from .errors import ConsistencyError, ValidationError
from .numerics import RngStream, random_frames, rotation_from_generator

#: Frames drawn per RNG chunk during the sampling phase.
SAMPLE_CHUNK = 2048

#: Most workers a call uses in each phase: over seed groups and then the
#: parts of their polish, or over one group's chunks.  The threads hand the
#: GIL back and forth between numpy kernels, yet the second one pays: with
#: one (``taskset`` to one CPU), ``bench/run.py`` on a 2-vCPU host fell from
#: 729 to 585 trials/s on verify-oracle and from 237 to 189 requests/s on
#: analyze-mix (seed 1, medians of 5 alternating 8-second pairs).  More than
#: two waits for a host and a benchmark that measure it.
_MAX_WORKERS = 2

_CANDIDATE_POOL = 200
_DIVERSITY_MIN_DIST = 0.5
#: Pool positions whose distances are measured together: a search's first
#: block in one pass with the rest of its seed group, a later block against
#: the candidates the search has already kept.
_SELECT_BLOCK = 16

# Newton polish: Hessian eigenvalues up to _FLAT_RTOL times the largest
# |eigenvalue| count as flat; a frame is stationary when its gradient and the
# Hessian's negative part are within _ROUNDING_BAND max|M| (the exact Hessian
# rounds by at most 3.3e-15 max|M| on flat directions, but converged frames'
# gradients reach 4.2e-8 max|M|: a step is kept only if it improves the value,
# which cannot resolve a smaller step's gain); the largest angle of one step.
_FLAT_RTOL = 1e-8
_ROUNDING_BAND = 1e-5
_TRUST_RADIUS = 0.25
#: Times a failed fallback step of the polish is halved before its frame stops.
_FALLBACK_HALVINGS = 8
#: Largest entry of |F F^T - I| a witness frame F may have.
_ORTHO_TOL = 1e-12

MODES = ("min", "max")

_INT64_MAX = int(np.iinfo(np.int64).max)
# A coarse pass holds 16 float64 per frame in one buffer, whose size in bytes
# numpy must be able to address.
_MAX_SAMPLES = int(np.iinfo(np.intp).max) // (16 * 8)


@dataclass(frozen=True)
class OracleConfig:
    """Search budget and determinism knobs for the brute-force oracle."""

    samples: int = 20000
    refine_iters: int = 200
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("samples", "refine_iters", "restarts"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValidationError(f"{name} must be an integer, got {value!r}") from None
        if self.samples < 1:
            raise ValidationError(f"samples must be >= 1, got {self.samples}")
        if self.refine_iters < 0 or self.restarts < 0:
            raise ValidationError("refine_iters and restarts must be nonnegative")
        if max(self.samples, self.refine_iters, self.restarts) > _INT64_MAX:
            raise ValidationError(f"samples, refine_iters and restarts must be at most "
                                  f"{_INT64_MAX}")
        if self.samples > _MAX_SAMPLES:
            raise ValidationError(f"samples must be at most {_MAX_SAMPLES}, the most frames "
                                  f"a coarse pass can address, got {self.samples}")


@dataclass(frozen=True)
class ExtremumResult:
    """An extremum estimate together with the point attaining it."""

    value: float
    witness: np.ndarray  # read-only orthonormal (4, 4) frame; a plane is its rows 0-1
    samples_used: int
    converged: bool


@dataclass(frozen=True, eq=False)
class Search:
    """One brute-force search: the ``mode`` extremum of ``objective`` on ``matrix``.

    ``objective`` is ``"sectional"`` or ``"biorthogonal"`` (over planes) or
    ``"isotropic"`` (over orthonormal 4-frames); ``matrix`` is a finite,
    validated (6, 6) operator matrix.  Run it with :func:`extremize_batch`.
    """

    matrix: np.ndarray
    objective: str
    mode: str
    cfg: OracleConfig = OracleConfig()

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape != (6, 6):
            raise ValidationError(f"expected a 6x6 operator matrix, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ValidationError("matrix has non-finite entries")
        object.__setattr__(self, "matrix", matrix)
        if self.objective not in _OBJECTIVES:
            raise ValidationError(f"objective must be one of {tuple(_OBJECTIVES)}, "
                                  f"got {self.objective!r}")
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def sign(self) -> float:
        """The search minimizes ``sign * objective``."""
        return 1.0 if self.mode == "min" else -1.0


# ---------------------------------------------------------------------------
# objectives


#: Each objective as a sum of terms ((p, q), (r, t), c), a term being
#: c <M(f_p ^ f_q), f_r ^ f_t> over the rows f of a frame.
_OBJECTIVES = {
    # K(f1, f2)
    "sectional": (((0, 1), (0, 1), 1.0),),
    # (K(f1, f2) + K(f3, f4)) / 2
    "biorthogonal": (((0, 1), (0, 1), 0.5), ((2, 3), (2, 3), 0.5)),
    # K(f1, f3) + K(f1, f4) + K(f2, f3) + K(f2, f4) - 2 <M(f1 ^ f2), f3 ^ f4>
    "isotropic": (((0, 2), (0, 2), 1.0), ((0, 3), (0, 3), 1.0), ((1, 2), (1, 2), 1.0),
                  ((1, 3), (1, 3), 1.0), ((0, 1), (2, 3), -2.0)),
}


def _terms(objective: str, frames: np.ndarray):
    """Each term (a, b, c) of ``objective`` at the frames (..., 4, 4), a and
    b its two wedges (..., 6), b being a for a term on one wedge.  No wedge
    appears in two terms of :data:`_OBJECTIVES`, so each is computed once."""
    for (p, q), (r, t), c in _OBJECTIVES[objective]:
        a = wedge(frames[..., p, :], frames[..., q, :])
        yield a, a if (p, q) == (r, t) else wedge(frames[..., r, :], frames[..., t, :]), c


def _evaluate(objective: str, m: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """The objective at stacked frames (..., n, 4, 4): (..., n); ``m`` is one
    matrix or one per leading index (..., 6, 6).  The terms are summed in
    table order."""
    return functools.reduce(operator.add, (c * np.einsum("...na,...ab,...nb->...n", a, m, b)
                                           for a, b, c in _terms(objective, frames)))


def _frame_form(objective: str, frames: np.ndarray) -> np.ndarray:
    """The frame form P(F) of the objective at each frame (..., 4, 4): the
    symmetric (..., 6, 6) matrix with <P(F), M> equal to the objective of M
    at F, since <M a, b> = <a (x) b, M>.  A term on two different wedges
    a, b contributes (c / 2)(a (x) b + b (x) a)."""
    def outer(a, b):
        return a[..., :, None] * b[..., None, :]

    return functools.reduce(operator.add, (
        c * outer(a, b) if a is b else (c / 2.0) * (outer(a, b) + outer(b, a))
        for a, b, c in _terms(objective, frames)))


# ---------------------------------------------------------------------------
# coarse phase


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _share(items, work, workers: int) -> None:
    """Call ``work(pulled)`` once on each of ``workers`` workers, where
    ``pulled`` yields the items that worker takes from one shared iterator
    over ``items``.

    Worker 0 is the calling thread; the others are plain threads started
    here and joined before this returns.  Each item goes to whichever worker
    asks first, so a worker slowed down by the host just takes fewer.  Once
    a worker raises, no worker takes another item, and the first exception
    is raised here after every worker has stopped.
    """
    pending = iter(items)
    lock = threading.Lock()
    done = object()
    errors: list[BaseException] = []

    def pulled():
        while True:
            with lock:
                item = next(pending, done)
            if item is done:
                return
            yield item

    def run() -> None:
        nonlocal pending
        try:
            work(pulled())
        except BaseException as exc:
            with lock:
                pending = iter(())
                errors.append(exc)

    helpers: list[threading.Thread] = []
    try:
        for w in range(1, workers):
            helpers.append(threading.Thread(target=run, name=f"curv4-oracle-{w}"))
            helpers[-1].start()
        run()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


def _coarse_samples(seed: int, samples: int, targets,
                    workers: int = 1) -> tuple[np.ndarray, list[np.ndarray]]:
    """``samples`` deterministic Haar frames and the raw values of each
    (objective, matrix) target on them.

    Chunk c of the frames is drawn from ``RngStream(seed, c)`` and written,
    with its values, into buffers allocated once: :func:`random_frames`
    writes straight into the chunk's slice of the frame buffer, working in
    its thread's own generator and scratch arrays.  Every chunk draws all
    :data:`SAMPLE_CHUNK` frames, and a short final chunk keeps their prefix,
    so a larger budget extends the sample stream and never reshuffles it.
    The chunks are shared among ``workers`` workers (:func:`_share`); each
    writes only its own slices, so the result does not depend on which
    worker takes a chunk.  The frame buffer keeps :func:`random_frames`'
    layout, a transposed view with the frame axis innermost; callers gather
    the rows they keep into C order.
    """
    frames = np.empty((4, 4, samples)).transpose(2, 1, 0)
    values = [np.empty(samples) for _ in targets]

    def draw(chunks) -> None:
        for chunk in chunks:
            lo = chunk * SAMPLE_CHUNK
            hi = min(lo + SAMPLE_CHUNK, samples)
            batch = random_frames(RngStream(seed, chunk), SAMPLE_CHUNK, out=frames[lo:hi])
            for out, (objective, m) in zip(values, targets):
                out[lo:hi] = _evaluate(objective, m, batch)

    _share(range(-(-samples // SAMPLE_CHUNK)), draw, workers)
    return frames, values


def _far(frames: np.ndarray, isotropic: np.ndarray, kept: int = 0) -> np.ndarray:
    """Whether frame ``kept + r`` of each row of ``frames`` (G, C, 4, 4) is at
    least the diversity radius from frame ``c`` of the same row: (G, C -
    ``kept``, C) booleans.

    The distance is that of the planes' projectors (Frobenius).  The
    isotropic objective sees only the unordered split {P, P-perp} plus the
    frame orientation, so on a row with ``isotropic`` set the distance is the
    smaller one from P and from its complement, and frames of opposite
    orientation are always far apart.
    """
    outer = np.einsum("...ki,...kj->...kij", frames[:, :, :2], frames[:, :, :2])
    projs = outer[:, :, 0] + outer[:, :, 1]
    rows = projs[:, kept:, None]
    diffs = rows - projs[:, None]
    iso = np.flatnonzero(isotropic)
    if iso.size:
        diffs = np.concatenate([diffs, (np.eye(4) - rows[iso]) - projs[iso, None]])
    far = np.linalg.norm(diffs, axis=(-2, -1)) >= _DIVERSITY_MIN_DIST
    if iso.size:
        flipped, far = far[len(frames):], far[:len(frames)]
        signs = np.sign(np.linalg.det(frames[iso]))
        far[iso] = (far[iso] & flipped) | (signs[:, kept:, None] != signs[:, None])
    return far


def _walk(far: list, kept: int, lo: int, count: int, chosen: list[int]) -> None:
    """Append to ``chosen``, until it holds ``count``, each pool position lo +
    r of a block whose row ``far[r]`` is far from every column kept so far:
    the ``kept`` columns of the candidates kept before the block, then column
    ``kept + r`` for each position of the block this keeps."""
    cols = list(range(kept))
    for r, row in enumerate(far):
        if len(chosen) == count:
            return
        if all(row[c] for c in cols):
            chosen.append(lo + r)
            cols.append(kept + r)


def _pool(values: np.ndarray) -> np.ndarray:
    """The rows of the :data:`_CANDIDATE_POOL` best (smallest) ``values``,
    best first: ``argpartition``, then a stable sort of the values (ties in
    ``argpartition``'s order, not row order)."""
    size = min(_CANDIDATE_POOL, len(values))
    pool = np.argpartition(values, size - 1)[:size]
    return pool[np.argsort(values[pool], kind="stable")]


def _select_group(frames: np.ndarray, pools: Sequence[np.ndarray], counts: Sequence[int],
                  isotropic: Sequence[bool]) -> list[list[int]]:
    """The refine candidates of searches that share one coarse pass: for
    search i, ``counts[i]`` rows of ``frames`` from its :func:`_pool`
    ``pools[i]``, greedily kept mutually distant so that restarts probe
    distinct regions instead of re-polishing one basin.

    Walking its pool, a search keeps a position when it is far
    (:func:`_far`) from every one kept before it; if the pool runs out first,
    its earliest positions not kept fill the remaining slots.  The first
    :data:`_SELECT_BLOCK` positions of every search are measured in one
    pass; a search that needs more walks the rest of its pool a block at a
    time, each block measured only against itself and the candidates kept so
    far.
    """
    # Each pool's first block, a short pool padded with its last position.
    heads = np.array([pool[np.minimum(np.arange(_SELECT_BLOCK), len(pool) - 1)]
                      for pool in pools])
    isotropic = np.asarray(isotropic, dtype=bool)
    tables = _far(np.ascontiguousarray(frames[heads]), isotropic).tolist()
    out = []
    for g, (pool, table, count) in enumerate(zip(pools, tables, counts)):
        chosen: list[int] = []
        _walk(table[:len(pool)], 0, 0, count, chosen)
        for lo in range(_SELECT_BLOCK, len(pool), _SELECT_BLOCK):
            if len(chosen) == count:
                break
            rows = np.concatenate([pool[chosen], pool[lo:lo + _SELECT_BLOCK]])
            table = _far(np.ascontiguousarray(frames[rows])[None], isotropic[g:g + 1],
                         len(chosen))[0].tolist()
            _walk(table, len(chosen), lo, count, chosen)
        if len(chosen) < count:  # the pool ran out: backfill
            kept = set(chosen)
            chosen += [pos for pos in range(len(pool)) if pos not in kept][:count - len(chosen)]
        out.append(pool[chosen].tolist())
    return out


def _refined(cfg: OracleConfig) -> bool:
    return cfg.restarts > 0 and cfg.refine_iters > 0


def _coarse_starts(group: list[Search], table: np.ndarray, ids: Sequence[int],
                   workers: int = 1) -> list[tuple[np.ndarray, np.ndarray]]:
    """Coarse phase of searches that share a seed: one frame draw, on which each
    distinct (objective, operator) is evaluated once, its chunks shared among
    ``workers`` workers as in :func:`_coarse_samples`, then one candidate selection
    (:func:`_select_group`) for all its refined searches.  Search ``i`` runs
    on the operator ``table[ids[i]]`` (its matrix, or that matrix scaled).

    Returns each search's starting rows (frames, signed values): its diverse
    refine candidates, or only its best sample when it is not refined.  The
    full sample arrays are released when this returns.
    """
    keys = [(s.objective, i) for s, i in zip(group, ids)]
    targets = {}
    for s, i, key in zip(group, ids, keys):
        targets.setdefault(key, (s.objective, table[i]))
    frames, values = _coarse_samples(group[0].cfg.seed, max(s.cfg.samples for s in group),
                                     list(targets.values()), workers)
    raw = dict(zip(targets, values))
    # One signed copy of a search's values at a time: only its pool outlives it.
    rows, pools = [], []
    for s, key in zip(group, keys):
        signed = s.sign * raw[key][:s.cfg.samples]
        if _refined(s.cfg):
            pools.append(_pool(signed))
            rows.append(None)
        else:
            rows.append([int(np.argmin(signed))])
    refined = [i for i, r in enumerate(rows) if r is None]
    if refined:
        chosen = _select_group(frames, pools, [group[i].cfg.restarts for i in refined],
                               [group[i].objective == "isotropic" for i in refined])
        for i, r in zip(refined, chosen):
            rows[i] = r
    return [(np.ascontiguousarray(frames[r]), s.sign * raw[key][r])
            for s, key, r in zip(group, keys, rows)]


# ---------------------------------------------------------------------------
# refine phase


# The generators X_k = E_ab - E_ba, (a, b) = PAIRS[k], of
# rotation_from_generator, and their actions D_k on 2-forms,
# D_k(u ^ v) = X_k u ^ v + u ^ X_k v: row (a, b) of D_k is X_k[a] ^ e_b + e_a ^ X_k[b].
_P, _Q = np.array(PAIRS).T
_E4 = np.eye(4)
_GENERATORS = _E4[_P, :, None] * _E4[_Q, None] - _E4[_Q, :, None] * _E4[_P, None]
_DERIVATIONS = wedge(_GENERATORS[:, _P], _E4[_Q]) + wedge(_E4[_P], _GENERATORS[:, _Q])
# The Hessian's upper triangle, i <= j, in the order the jets hold it, and
# D_i, D_l and D_i D_l + D_l D_i for each of its entries (i, l).
_HESS_I, _HESS_J = np.triu_indices(6)
_D_I, _D_L = _DERIVATIONS[_HESS_I], _DERIVATIONS[_HESS_J]
_D_SYM = _D_I @ _D_L + _D_L @ _D_I
# Objective evaluations per Newton step: the jet contraction and the trial frame.
_STEP_EVALUATIONS = 2


def _rotated(frames: np.ndarray, rots: np.ndarray) -> np.ndarray:
    """Rows of each frame rotated by Q, F' = F Q^T, broadcast over leading axes."""
    return np.einsum("...mj,...ij->...mi", frames, rots)


def _jets(matrices: np.ndarray) -> np.ndarray:
    """The 27 jets of each operator M (S, 6, 6), each paired with P(F):
    (S, 27, 6, 6).  Jet j < 6 is g_j = 2 M D_j, and jet 6 + t is
    H_il = 2 D_i^T M D_l + M (D_i D_l + D_l D_i) for (i, l) =
    (``_HESS_I[t]``, ``_HESS_J[t]``)."""
    m = matrices[:, None]
    return np.concatenate([2.0 * (m @ _DERIVATIONS),
                           2.0 * (_D_I.transpose(0, 2, 1) @ m @ _D_L) + m @ _D_SYM], axis=1)


def _slots(owner: np.ndarray) -> np.ndarray:
    """Each frame's place among the frames of its operator: frame i is the
    ``slots[i]``-th frame whose owner is ``owner[i]``."""
    order = np.argsort(owner, kind="stable")
    counts = np.bincount(owner)
    slots = np.empty_like(owner)
    slots[order] = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return slots


def _jet_values(objective: str, jets: np.ndarray, frames: np.ndarray,
                owner: np.ndarray) -> np.ndarray:
    """<P(F), J_k> for each frame F (F, 4, 4) and jet J_k of its operator
    ``owner[i]``: (F, 27), ``jets`` being (S, 27, 6, 6).

    Each frame form is written to its place among its operator's frames
    (:func:`_slots`) in one (S, R, 6, 6) array, R the most frames of one
    operator, and read back off one contraction of every place with its
    operator's jets, so no frame copies its operator's jets.  Only the
    places of an operator with fewer than R frames are computed and dropped;
    each place's sum over (a, b) is the same however many places there are.
    """
    slots = _slots(owner)
    forms = np.zeros((len(jets), int(slots.max(initial=0)) + 1, 6, 6))
    forms[owner, slots] = _frame_form(objective, frames)
    return np.einsum("srab,skab->srk", forms, jets)[owner, slots]


def _derivatives(jet_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradient (F, 6) and Hessian (F, 6, 6) in so(4) of each frame,
    scattered from its jet values (F, 27)."""
    hess = np.empty((len(jet_values), 6, 6))
    hess[:, _HESS_I, _HESS_J] = hess[:, _HESS_J, _HESS_I] = jet_values[:, 6:]
    return jet_values[:, :6], hess


def _step(vec: np.ndarray, inv: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The rotation generator -V diag(inv) V^T g of each frame, capped at the
    trust radius: far from an extremum the quadratic model overshoots."""
    omega = -np.einsum("fij,fj->fi", vec, inv * np.einsum("fkj,fk->fj", vec, grad))
    return omega * (_TRUST_RADIUS / np.maximum(np.linalg.norm(omega, axis=1, keepdims=True),
                                               _TRUST_RADIUS))


def _polish(objective, matrices, owner, signs, frames, values, caps):
    """Newton steps minimizing ``signs * objective`` from each frame, until a
    step fails to improve or the frame's step cap is reached.

    ``matrices`` holds the distinct operators (S, 6, 6) and ``owner`` the
    index of each frame's operator.  Each operator's jets are built once, and
    a step reads each live frame's exact gradient and Hessian off them
    through one array of frame forms (:func:`_jet_values`), with a place for
    each live frame of each operator that still has one: the jets of an
    operator whose frames have all stopped are dropped, and the places
    shrink as frames stop.  So the memory grows with the operators and the
    frames, never with their product.  Trial frames are evaluated directly,
    so every value kept is attained by its frame.

    Each step rotates the frame by -H^+ g over the Hessian's curved
    directions.  Where that does not improve the value at a frame that is not
    stationary (its gradient or negative curvature outside the rounding
    band), the frame tries -|H|^+ g, halved up to :data:`_FALLBACK_HALVINGS`
    times, and stops only if no trial improves.

    ``frames`` and ``values`` (signed) are updated in place.  Returns the
    objective evaluations per frame (:data:`_STEP_EVALUATIONS` per step and
    one per fallback trial), and whether the frame stopped before its cap at
    a stationary point.
    """
    jets = _jets(matrices)
    held = np.arange(len(matrices))  # the operator of each row of jets
    evaluations = np.zeros(len(values), dtype=int)
    taken = np.zeros(len(values), dtype=int)
    converged = np.zeros(len(values), dtype=bool)
    band = (_ROUNDING_BAND * np.max(np.abs(matrices), axis=(1, 2)))[owner]
    live = np.flatnonzero(caps > 0)
    while live.size:
        f, sign, own = frames[live], signs[live], owner[live]
        m = matrices[own]
        used = np.flatnonzero(np.bincount(own, minlength=len(matrices)))
        if len(used) < len(held):  # drop the jets of operators with no live frame
            jets, held = jets[np.searchsorted(held, used)], used
        grad, hess = _derivatives(sign[:, None] * _jet_values(
            objective, jets, f, np.searchsorted(held, own)))
        lam, vec = np.linalg.eigh(hess)
        flat = _FLAT_RTOL * np.max(np.abs(lam), axis=1, keepdims=True)
        inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > flat)
        trial = _rotated(f, rotation_from_generator(_step(vec, inv, grad)))
        trial_values = sign * _evaluate(objective, m, trial[:, None])[:, 0]
        better = trial_values < values[live]
        stationary = ((np.max(np.abs(grad), axis=1) <= band[live])
                      & (lam[:, 0] >= -band[live]))
        taken[live] += 1
        evaluations[live] += _STEP_EVALUATIONS
        converged[live] = ~better & stationary
        stalled = np.flatnonzero(~better & ~stationary)
        if stalled.size:
            lam_abs = np.abs(lam[stalled])
            inv = np.divide(1.0, lam_abs, out=np.zeros_like(lam_abs),
                            where=lam_abs > flat[stalled])
            omega = _step(vec[stalled], inv, grad[stalled])
            for _ in range(_FALLBACK_HALVINGS + 1):
                tried = _rotated(f[stalled], rotation_from_generator(omega))
                tried_values = sign[stalled] * _evaluate(objective, m[stalled],
                                                          tried[:, None])[:, 0]
                evaluations[live[stalled]] += 1
                ok = tried_values < values[live[stalled]]
                trial[stalled[ok]] = tried[ok]
                trial_values[stalled[ok]] = tried_values[ok]
                better[stalled[ok]] = True
                stalled, omega = stalled[~ok], omega[~ok] / 2.0
                if not stalled.size:
                    break
        frames[live[better]] = trial[better]
        values[live[better]] = trial_values[better]
        live = live[better & (taken[live] < caps[live])]
        # Free this step's per-frame arrays before the next step allocates its own.
        del m, grad, hess, vec, trial
    return evaluations, converged


def _refine(searches: list[Search], table: np.ndarray, ids: Sequence[int],
            starts) -> list[tuple[float, np.ndarray, int, bool]]:
    """Newton polish from every search's candidates, minimizing each search's
    signed value on its operator ``table[ids[i]]``, where ``table`` (S, 6, 6)
    holds the distinct operators.  Returns (value, frame, evaluations,
    converged).

    All frames of one objective are polished in one :func:`_polish` call,
    which builds the jets of each operator they use once, so searches on one
    operator share its jets.  Each frame's steps depend on that frame alone.
    A search is converged when its winning frame is.
    """
    counts = [len(values) for _, values in starts]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    owner = np.repeat(np.asarray(ids), counts)
    frames = np.concatenate([f for f, _ in starts])
    values = np.concatenate([v for _, v in starts])
    signs = np.repeat([s.sign for s in searches], counts)
    caps = np.repeat([s.cfg.refine_iters for s in searches], counts)
    objectives = np.repeat([s.objective for s in searches], counts)
    evaluations = np.zeros(len(values), dtype=int)
    converged = np.zeros(len(values), dtype=bool)
    for objective in dict.fromkeys(s.objective for s in searches):
        rows = np.flatnonzero(objectives == objective)
        f, v = frames[rows], values[rows]
        used, local = np.unique(owner[rows], return_inverse=True)
        evaluations[rows], converged[rows] = _polish(
            objective, table[used], local, signs[rows], f, v, caps[rows])
        frames[rows], values[rows] = f, v

    out = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        winner = lo + int(np.argmin(values[lo:hi]))
        out.append((float(values[winner]), frames[winner],
                    int(evaluations[lo:hi].sum()), bool(converged[winner])))
    return out


# ---------------------------------------------------------------------------
# the driver


def extremize_batch(searches: Sequence[Search]) -> list[ExtremumResult]:
    """Run every search; result i is bit-identical to running search i alone.

    Searches that share a seed form a group, which shares one draw of Haar
    frames; only the group's refine candidates outlive its coarse pass.  The
    work runs on W = min(CPUs, items, ``_MAX_WORKERS``) workers, the calling
    thread and W - 1 threads started for each phase and joined before it
    ends, each taking items as it comes free (:func:`_share`).  With two or
    more groups there are two phases.  In the first an item is a whole
    group, whose pass and candidate selection run on one worker, so there is
    one pass buffer per worker.  In the second the refined searches, in
    search order, are cut into W contiguous parts, each one refine loop per
    objective, and the workers share the parts; so each loop's frames, and
    with them its steps, depend only on the batch and W.  A lone group's
    items are the chunks of its pass, and the calling thread then refines
    its searches.  After a worker raises, no worker takes another item, and
    the first exception is raised here once every worker has stopped.  Each
    distinct matrix is scaled once into one table of operators: searches on
    equal matrices share their coarse values when their seed and objective
    are the same, and their jets when they fall in one part.  The polish's
    memory grows with the batch; verify bounds it through
    :data:`~curv4.verify.TRIAL_BLOCK`.  An empty batch has no results.

    Every witness is the search's read-only winning (4, 4) frame, whose
    rows 0-1 are a plane objective's plane; one that is not orthonormal
    within 1e-12 raises :class:`ConsistencyError`.  Each value is the best
    value actually evaluated, attained by its witness; one that overflows
    float64 raises :class:`ValidationError`.
    """
    searches = list(searches)
    if not searches:
        return []
    # Each search runs at max-norm [1, 2) (module docstring); _result scales
    # back.  Each distinct matrix is scaled once, into one table of operators.
    exponents = [_exponent(s.matrix) for s in searches]
    distinct: dict[bytes, int] = {}
    ids, scaled = [], []
    for s, e in zip(searches, exponents):
        row = distinct.setdefault(s.matrix.tobytes(), len(distinct))
        if row == len(scaled):
            scaled.append(np.ldexp(s.matrix, -e))
        ids.append(row)
    table = np.stack(scaled)
    by_seed: dict[int, list[int]] = {}
    for i, s in enumerate(searches):
        by_seed.setdefault(s.cfg.seed, []).append(i)
    groups = list(by_seed.values())

    starts: list = [None] * len(searches)

    def coarse(pulled, workers: int = 1) -> None:
        """The coarse starts of each group pulled, its chunks shared among
        ``workers``."""
        for group in pulled:
            for i, start in zip(group, _coarse_starts([searches[i] for i in group], table,
                                                      [ids[i] for i in group], workers)):
                starts[i] = start

    def polish(pulled) -> None:
        """Each part pulled, polished in one :func:`_refine` call."""
        for part in pulled:
            for i, outcome in zip(part, _refine([searches[i] for i in part], table,
                                                [ids[i] for i in part],
                                                [starts[i] for i in part])):
                outcomes[i] = outcome

    if len(groups) == 1:  # its chunks are the items, and the caller polishes
        chunks = -(-max(s.cfg.samples for s in searches) // SAMPLE_CHUNK)
        coarse(groups, min(_cpu_count(), chunks, _MAX_WORKERS))
        workers = 1
    else:
        workers = min(_cpu_count(), len(groups), _MAX_WORKERS)
        _share(groups, coarse, workers)
    outcomes = [(float(values[0]), frames[0], 0, False) for frames, values in starts]
    refined = [i for i, s in enumerate(searches) if _refined(s.cfg)]
    parts = [refined[len(refined) * w // workers:len(refined) * (w + 1) // workers]
             for w in range(workers)]
    parts = [part for part in parts if part]
    _share(parts, polish, len(parts))
    values, frames, evaluations, converged = zip(*outcomes)
    frames = np.stack(frames)
    error = np.max(np.abs(frames @ frames.transpose(0, 2, 1) - np.eye(4)), axis=(1, 2))
    bad = np.flatnonzero(~(error <= _ORTHO_TOL))
    if bad.size:
        s = searches[bad[0]]
        raise ConsistencyError(f"the {s.objective} {s.mode} witness is not orthonormal: "
                               f"max|F F^T - I| = {error[bad[0]]:.3e}")
    frames.flags.writeable = False
    return [_result(*row) for row in zip(searches, exponents, values, frames, evaluations,
                                         converged)]


def _exponent(matrix: np.ndarray) -> int:
    """The e with max|M| / 2^e in [1, 2); 0 for the zero matrix."""
    peak = float(np.max(np.abs(matrix)))
    return math.frexp(peak)[1] - 1 if peak else 0


def _result(search: Search, exponent: int, value: float, frame: np.ndarray,
            refine_evals: int, converged: bool) -> ExtremumResult:
    """The result of ``search``, run on its operator scaled by 2^-``exponent``."""
    try:
        value = math.ldexp(search.sign * value, exponent)
    except OverflowError:
        raise ValidationError(f"matrix is too large: the {search.objective} {search.mode} "
                              "overflows float64") from None
    return ExtremumResult(value=value, witness=frame,
                          samples_used=search.cfg.samples + refine_evals, converged=converged)
