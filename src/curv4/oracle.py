"""Brute-force extrema of curvature quantities over planes and frames.

The search is the ground truth against which closed-form results are tested,
so it deliberately avoids the spectral decomposition: every value it reports
comes from evaluating the curvature form on explicitly sampled planes or
orthonormal 4-frames.

Two phases: uniform sampling (Haar frames, chunked deterministic streams),
then derivative-free hill climbing with a multiplicative step-decay schedule,
restarted from a handful of mutually distant coarse candidates.  Chunked
substreams make the result independent of how the work is scheduled.

One driver, :func:`extremize_batch`, runs any number of searches together:
searches that share a seed share one coarse frame draw and their refinement
proposals, and a single refine loop advances the frames of every search at
once.  Each result is bit-identical to running its search alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import CurvatureOperator, Plane, wedge
from .errors import ValidationError
from .numerics import RngStream, random_frames, rotation_from_generator

#: Frames drawn per RNG chunk during the sampling phase.
SAMPLE_CHUNK = 2048

# Chunk indices at and above this range are reserved for the refinement stream.
_REFINE_CHUNK = 1 << 32

_PROPOSALS_PER_ITER = 4
_CANDIDATE_POOL = 200
_DIVERSITY_MIN_DIST = 0.5
_CONVERGED_RTOL = 1e-9

OBJECTIVES = ("sectional", "biorthogonal")
MODES = ("min", "max")


@dataclass(frozen=True)
class OracleConfig:
    """Search budget and determinism knobs for the brute-force oracle."""

    samples: int = 20000
    refine_iters: int = 200
    restarts: int = 3
    step_init: float = 0.3
    step_decay: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValidationError(f"samples must be >= 1, got {self.samples}")
        if not 0.0 < self.step_decay < 1.0:
            raise ValidationError(f"step_decay must be in (0, 1), got {self.step_decay}")
        if self.step_init <= 0.0:
            raise ValidationError(f"step_init must be positive, got {self.step_init}")
        if self.refine_iters < 0 or self.restarts < 0:
            raise ValidationError("refine_iters and restarts must be nonnegative")


@dataclass(frozen=True)
class ExtremumResult:
    """An extremum estimate together with the point attaining it."""

    value: float
    witness: object  # Plane for plane objectives, (4, 4) frame for isotropic
    samples_used: int
    converged: bool


@dataclass(frozen=True, eq=False)
class Search:
    """One brute-force search: the ``mode`` extremum of ``objective`` on ``matrix``.

    ``objective`` is one of :data:`OBJECTIVES` (over planes) or
    ``"isotropic"`` (over orthonormal 4-frames); ``matrix`` is a validated
    (6, 6) operator matrix.
    """

    matrix: np.ndarray
    objective: str
    mode: str
    cfg: OracleConfig = OracleConfig()

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape != (6, 6):
            raise ValidationError(f"expected a 6x6 operator matrix, got shape {matrix.shape}")
        object.__setattr__(self, "matrix", matrix)
        if self.objective not in _BATCH_OBJECTIVES:
            raise ValidationError(f"objective must be one of {tuple(_BATCH_OBJECTIVES)}, "
                                  f"got {self.objective!r}")
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def sign(self) -> float:
        """The search minimizes ``sign * objective``."""
        return 1.0 if self.mode == "min" else -1.0


# ---------------------------------------------------------------------------
# batched objective evaluation


def _quad(m: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """<M a, a> for stacked forms (..., n, 6); ``m`` is one matrix or one per
    leading index (..., 6, 6)."""
    return np.einsum("...na,...ab,...nb->...n", forms, m, forms)


def _sectional_batch(m: np.ndarray, frames: np.ndarray) -> np.ndarray:
    return _quad(m, wedge(frames[..., 0, :], frames[..., 1, :]))


def _biortho_batch(m: np.ndarray, frames: np.ndarray) -> np.ndarray:
    w01 = wedge(frames[..., 0, :], frames[..., 1, :])
    w23 = wedge(frames[..., 2, :], frames[..., 3, :])
    return (_quad(m, w01) + _quad(m, w23)) / 2.0


def _iso_batch(m: np.ndarray, frames: np.ndarray) -> np.ndarray:
    f = [frames[..., i, :] for i in range(4)]
    total = np.zeros(frames.shape[:-2])
    for i, j in ((0, 2), (0, 3), (1, 2), (1, 3)):
        total += _quad(m, wedge(f[i], f[j]))
    coupling = np.einsum("...na,...ab,...nb->...n", wedge(f[0], f[1]), m, wedge(f[2], f[3]))
    return total - 2.0 * coupling


_BATCH_OBJECTIVES = {
    "sectional": _sectional_batch,
    "biorthogonal": _biortho_batch,
    "isotropic": _iso_batch,
}


def isotropic_curvature(r: CurvatureOperator, frame: np.ndarray) -> float:
    """Frame-wise isotropic curvature
    K(f1,f3) + K(f1,f4) + K(f2,f3) + K(f2,f4) - 2 <M(f1^f2), f3^f4>."""
    frame = np.asarray(frame, dtype=float).reshape(1, 4, 4)
    return float(_iso_batch(r.matrix, frame)[0])


# ---------------------------------------------------------------------------
# coarse phase


def _coarse_samples(seed: int, samples: int, targets) -> tuple[np.ndarray, list[np.ndarray]]:
    """``samples`` deterministic Haar frames and the raw values of each
    (objective, matrix) target on them."""
    frames_parts = []
    values_parts = [[] for _ in targets]
    remaining = samples
    chunk = 0
    while remaining > 0:
        # Always draw a full chunk so a larger budget extends, never reshuffles,
        # the sample stream.
        batch = random_frames(RngStream(seed, chunk), SAMPLE_CHUNK)[:remaining]
        frames_parts.append(batch)
        for parts, (objective, m) in zip(values_parts, targets):
            parts.append(_BATCH_OBJECTIVES[objective](m, batch))
        remaining -= len(batch)
        chunk += 1
    return np.concatenate(frames_parts), [np.concatenate(parts) for parts in values_parts]


def _select_candidates(frames: np.ndarray, values: np.ndarray, count: int,
                       isotropic: bool) -> list[int]:
    """Best coarse candidates, greedily kept mutually distant so that restarts
    probe distinct regions instead of re-polishing one basin."""
    pool_size = min(_CANDIDATE_POOL, len(values))
    pool = np.argpartition(values, pool_size - 1)[:pool_size]
    pool = pool[np.argsort(values[pool], kind="stable")]
    pf = frames[pool]
    projs = np.einsum("ni,nj->nij", pf[:, 0], pf[:, 0]) + np.einsum(
        "ni,nj->nij", pf[:, 1], pf[:, 1])
    if isotropic:
        # The isotropic objective sees only the unordered split {P, P-perp}
        # plus the frame orientation, so measure distance accordingly.
        det_sign = np.sign(np.linalg.det(pf))
    chosen: list[int] = []
    for pos in range(len(pool)):
        if len(chosen) == count:
            break
        if chosen:
            dist = np.linalg.norm(projs[pos] - projs[chosen], axis=(1, 2))
            if isotropic:
                flipped = np.linalg.norm((np.eye(4) - projs[pos]) - projs[chosen], axis=(1, 2))
                dist = np.minimum(dist, flipped)
                dist[det_sign[chosen] != det_sign[pos]] = np.inf
            if dist.min() < _DIVERSITY_MIN_DIST:
                continue
        chosen.append(pos)
    for pos in range(len(pool)):  # backfill if diversity left slots empty
        if len(chosen) == count:
            break
        if pos not in chosen:
            chosen.append(pos)
    return [int(pool[pos]) for pos in chosen]


def _refined(cfg: OracleConfig) -> bool:
    return cfg.restarts > 0 and cfg.refine_iters > 0


def _coarse_starts(group: list[Search]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Coarse phase of searches that share a seed: one frame draw, on which each
    distinct (objective, matrix) is evaluated once.

    Returns each search's starting rows (frames, signed values): its diverse
    refine candidates, or only its best sample when it is not refined.  The
    full sample arrays are released when this returns.
    """
    keys = [(s.objective, s.matrix.tobytes()) for s in group]
    targets = {}
    for s, key in zip(group, keys):
        targets.setdefault(key, (s.objective, s.matrix))
    frames, values = _coarse_samples(group[0].cfg.seed, max(s.cfg.samples for s in group),
                                     list(targets.values()))
    raw = dict(zip(targets, values))
    starts = []
    for s, key in zip(group, keys):
        n = s.cfg.samples
        signed = s.sign * raw[key][:n]
        if _refined(s.cfg):
            rows = _select_candidates(frames[:n], signed, s.cfg.restarts,
                                      s.objective == "isotropic")
        else:
            rows = [int(np.argmin(signed))]
        starts.append((frames[rows], signed[rows]))
    return starts


# ---------------------------------------------------------------------------
# refine phase


def _propose(frames: np.ndarray, omega: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Proposals (F, P, 4, 4): each frame (F, 4, 4) rotated by the angle-``steps``
    rotations along its P unit generator directions ``omega`` (F, P, 6)."""
    rots = rotation_from_generator(omega * steps[:, None, None])
    # rows of each frame rotated by Q: F' = F Q^T
    return np.einsum("kmj,kpij->kpmi", frames, rots)


def _refine(searches: list[Search], starts) -> list[tuple[float, np.ndarray, int, bool]]:
    """Hill climbing from every search's candidates in one loop; minimizes each
    search's signed value.  Returns (value, frame, evaluations, converged).

    Each restart carries its own step: multiplied by the decay factor whenever
    none of its proposals improves, and grown back (capped at the initial step)
    on success, so the step tracks the scale that still makes progress even on
    ill-conditioned objectives.  Frames stay orthonormal to around 1e-14 under
    pure rotations, so no re-orthonormalization is needed inside the loop.

    A search draws its proposal directions from its own seed's refinement
    stream, so searches with the same seed and restart count see the same
    directions and one draw per iteration serves them all.  Frames are laid
    out search by search, grouped by objective, so each objective is one
    evaluation over a contiguous span.
    """
    order = sorted(range(len(searches)), key=lambda i: searches[i].objective)
    ordered = [searches[i] for i in order]
    counts = np.array([len(starts[i][1]) for i in order])
    offsets = np.concatenate([[0], np.cumsum(counts)])
    cur_frames = np.concatenate([starts[i][0] for i in order])
    cur_values = np.concatenate([starts[i][1] for i in order])
    iters = np.array([s.cfg.refine_iters for s in ordered])
    frame_iters = np.repeat(iters, counts)
    steps = np.repeat([s.cfg.step_init for s in ordered], counts)
    step_init = steps.copy()
    decay = np.repeat([s.cfg.step_decay for s in ordered], counts)
    signs = np.repeat([s.sign for s in ordered], counts)
    matrices = np.repeat(np.stack([s.matrix for s in ordered]), counts, axis=0)

    # Row j of a stream's draw is restart j's direction; ``gather`` picks, for
    # every frame, its row in the concatenation of all streams' draws.
    stream_start: dict[tuple[int, int], int] = {}
    gather = []
    drawn = 0
    for pos, s in enumerate(ordered):
        key = (s.cfg.seed, int(counts[pos]))
        if key not in stream_start:
            stream_start[key] = drawn
            drawn += key[1]
        gather.append(stream_start[key] + np.arange(key[1]))
    gather = np.concatenate(gather)
    streams = [(RngStream(seed, _REFINE_CHUNK).generator(), k) for seed, k in stream_start]
    spans = []
    for objective in dict.fromkeys(s.objective for s in ordered):
        members = [pos for pos, s in enumerate(ordered) if s.objective == objective]
        spans.append((_BATCH_OBJECTIVES[objective],
                      slice(offsets[members[0]], offsets[members[-1] + 1])))

    total = len(cur_values)
    history = np.empty((len(ordered), iters.max()))
    cvals = np.empty((total, _PROPOSALS_PER_ITER))
    rows = np.arange(total)
    for it in range(iters.max()):
        draws = np.concatenate([gen.standard_normal((k, _PROPOSALS_PER_ITER, 6))
                                for gen, k in streams])
        nrm = np.linalg.norm(draws, axis=-1, keepdims=True)
        nrm[nrm == 0.0] = 1.0
        draws /= nrm
        omega = draws[gather]
        cands = _propose(cur_frames, omega, steps)
        for evaluate, span in spans:
            cvals[span] = evaluate(matrices[span], cands[span])
        cvals *= signs[:, None]
        best_p = np.argmin(cvals, axis=1)
        best_vals = cvals[rows, best_p]
        improved = (best_vals < cur_values) & (it < frame_iters)
        cur_values[improved] = best_vals[improved]
        cur_frames[improved] = cands[rows, best_p][improved]
        steps[~improved] *= decay[~improved]
        steps[improved] = np.minimum(steps[improved] / decay[improved], step_init[improved])
        history[:, it] = np.minimum.reduceat(cur_values, offsets[:-1])

    out: list = [None] * len(searches)
    for pos, i in enumerate(order):
        n = int(iters[pos])
        trace = history[pos, :n]
        window = max(1, n // 4)
        reference = trace[max(0, n - window - 1)]
        converged = bool(reference - trace[-1] <= _CONVERGED_RTOL * (1.0 + abs(trace[-1])))
        seg = slice(offsets[pos], offsets[pos + 1])
        winner = int(np.argmin(cur_values[seg]))
        out[i] = (float(cur_values[seg][winner]), cur_frames[seg][winner],
                  n * int(counts[pos]) * _PROPOSALS_PER_ITER, converged)
    return out


# ---------------------------------------------------------------------------
# the driver and its views


def extremize_batch(searches: Sequence[Search]) -> list[ExtremumResult]:
    """Run every search; result i is bit-identical to running search i alone.

    The coarse phase runs one seed at a time: searches with that seed share
    one draw of Haar frames, and only their refine candidates outlive it.
    One refine loop then advances the candidates of all searches together.
    Plane objectives return a :class:`Plane` witness, ``"isotropic"`` a
    read-only (4, 4) frame.  Each value is the best value actually
    evaluated, attained by its witness.
    """
    searches = list(searches)
    by_seed: dict[int, list[int]] = {}
    for i, s in enumerate(searches):
        by_seed.setdefault(s.cfg.seed, []).append(i)
    starts: list = [None] * len(searches)
    for members in by_seed.values():
        for i, start in zip(members, _coarse_starts([searches[i] for i in members])):
            starts[i] = start

    outcomes = [(float(values[0]), frames[0], 0, False) for frames, values in starts]
    refined = [i for i, s in enumerate(searches) if _refined(s.cfg)]
    if refined:
        for i, outcome in zip(refined, _refine([searches[i] for i in refined],
                                               [starts[i] for i in refined])):
            outcomes[i] = outcome
    return [_result(s, *outcome) for s, outcome in zip(searches, outcomes)]


def _result(search: Search, value: float, frame: np.ndarray, refine_evals: int,
            converged: bool) -> ExtremumResult:
    if search.objective == "isotropic":
        witness = np.array(frame)
        witness.flags.writeable = False
    else:
        witness = Plane(frame[0], frame[1])
    return ExtremumResult(value=search.sign * value, witness=witness,
                          samples_used=search.cfg.samples + refine_evals, converged=converged)


def _check_plane_objective(objective: str) -> None:
    if objective not in OBJECTIVES:
        raise ValidationError(f"objective must be one of {OBJECTIVES}, got {objective!r}")


def extremize(r: CurvatureOperator, objective: str, mode: str,
              cfg: OracleConfig = OracleConfig()) -> ExtremumResult:
    """Brute-force extremum of sectional or biorthogonal curvature over planes.

    The reported value is the best value actually evaluated, so in ``min``
    mode it is always an upper bound on the true minimum, attained by the
    returned witness plane.
    """
    _check_plane_objective(objective)
    return extremize_batch([Search(r.matrix, objective, mode, cfg)])[0]


def extremize_pair(r: CurvatureOperator, objective: str,
                   cfg: OracleConfig = OracleConfig()) -> tuple[ExtremumResult, ExtremumResult]:
    """Minimum and maximum in one call, sharing the sampling pass.

    Bit-identical to two separate :func:`extremize` calls with the same
    configuration.
    """
    _check_plane_objective(objective)
    lo, hi = extremize_batch([Search(r.matrix, objective, mode, cfg) for mode in MODES])
    return lo, hi


def min_isotropic(r: CurvatureOperator, cfg: OracleConfig = OracleConfig()) -> ExtremumResult:
    """Minimum of the frame-wise isotropic curvature over orthonormal 4-frames."""
    return extremize_batch([Search(r.matrix, "isotropic", "min", cfg)])[0]
