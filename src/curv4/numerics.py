"""Deterministic random sampling and rotations of R^4, and the scaled bound
of every validation tolerance.

All randomness flows through :class:`RngStream`, a counter-chunked Philox
stream, so that serial and parallel runs of the same configuration produce
bit-identical results; the oracle draws its Haar-random frames from it
(:func:`random_frames`) and steps them by :func:`rotation_from_generator`.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def scaled_bound(tol, scale):
    """The largest deviation accepted on a matrix of max-norm ``scale``:
    ``tol * scale``, but never below the smallest subnormal.  Scalars or
    arrays."""
    return np.maximum(tol * scale, math.ulp(0.0))


@dataclass(frozen=True)
class RngStream:
    """A (seed, chunk) pair naming one deterministic Philox substream.

    The chunk index is mapped onto disjoint ranges of the Philox counter, so
    any partition of work into chunks yields the same draws regardless of
    execution order or thread count.  Only the oracle's sampling phase uses
    chunks other than 0, numbering them from 0 up.  :meth:`generator` defines
    the stream's draws; :func:`random_frames` and
    :func:`standard_normal_rows` draw the same numbers through their
    thread's one re-keyed generator (:func:`_rekeyed`).
    """

    seed: int
    chunk: int = 0

    def generator(self) -> np.random.Generator:
        key = int(self.seed) & _MASK64
        return np.random.Generator(np.random.Philox(counter=int(self.chunk) << 128, key=key))


class _ThreadDraws(threading.local):
    """One thread's Philox generator and :func:`random_frames` scratch
    (:func:`_scratch_for`), each built on the thread's first draw.

    The first ``Philox(...)`` of a process, keyed or not, costs about 9 ms
    and 5 MiB of peak RSS: numpy imports ``numpy.random`` lazily, and that
    import pulls in ``secrets``, ``hashlib`` and OpenSSL.  Importing curv4
    should not pay for it.

    ``state`` is the bit generator's state at the start of a stream, held in
    plain ints and lists so that setting it converts no numpy scalars: the
    buffer is empty, and ``key`` and ``counter`` are the lists inside it that
    re-keying overwrites.
    """

    gen = None
    scratch = None

    def build(self) -> None:
        self.bitgen = np.random.Philox()
        self.gen = np.random.Generator(self.bitgen)
        self.key, self.counter = [0, 0], [0, 0, 0, 0]
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": self.counter, "key": self.key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }


_draws = _ThreadDraws()


def _rekeyed(stream: RngStream) -> np.random.Generator:
    """This thread's generator, re-keyed to the start of ``stream``: it draws
    what ``stream.generator()`` draws, until the thread re-keys it again.

    Re-keying one bit generator to each stream's (key, counter) is cheaper
    than building a generator per stream, whose constructor also seeds a
    ``SeedSequence`` from OS entropy, and the draws are the same.
    """
    draws = _draws
    if draws.gen is None:
        draws.build()
    # Chunk c is the 256-bit counter c << 128: words 2 and 3.
    chunk = int(stream.chunk)
    draws.key[0] = int(stream.seed) & _MASK64
    draws.counter[2] = chunk & _MASK64
    draws.counter[3] = chunk >> 64
    draws.bitgen.state = draws.state
    return draws.gen


def standard_normal_rows(streams, shape: tuple[int, ...]) -> np.ndarray:
    """``stream.generator().standard_normal(shape)`` for every stream, stacked
    into one ``(len(streams), *shape)`` array, drawn through this thread's
    re-keyed generator."""
    out = np.empty((len(streams), *shape))
    for row, stream in zip(out, streams):
        _rekeyed(stream).standard_normal(out=row)
    return out


# numpy's SeedSequence hash: a pool of four uint32 words.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _words(n: int) -> list[int]:
    """The little-endian uint32 words of a non-negative int (0 is one word)."""
    if n < 0:
        raise ValueError(f"seed path entries must be non-negative, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashmix(x, const: int):
    """One ``hashmix`` step of ``x`` with multiplier ``const``; returns the
    mixed word and the next multiplier, which never depends on ``x``."""
    const_next = (const * _MULT_A) & _MASK32
    x = _u32((x ^ const) * const_next)
    return x ^ (x >> _XSHIFT), const_next


def _u32(x):
    """``x`` modulo 2**32: Python ints are reduced, uint32 arrays already wrap."""
    return x & _MASK32 if isinstance(x, int) else x


def _mix(x, y):
    r = _u32(_u32(_MIX_MULT_L * x) - _u32(_MIX_MULT_R * y))
    return r ^ (r >> _XSHIFT)


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """The pool after the run entropy ``seed & (2**64 - 1)`` is mixed in,
    and the hash multiplier reached.

    A spawn key zero-pads the run entropy to the pool size, so this part of
    the hash depends on the seed alone.
    """
    words = _words(int(seed) & _MASK64)
    const = _INIT_A
    pool = []
    for w in words + [0] * (_POOL_SIZE - len(words)):
        w, const = _hashmix(w, const)
        pool.append(w)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    return tuple(pool), const


def _spawn_state(seed: int, key_words: list) -> tuple:
    """The two words of ``SeedSequence(entropy=seed,
    spawn_key=key).generate_state(2, np.uint32)``.

    ``key_words`` are the spawn key's uint32 words, each a Python int or a
    uint32 array holding that word for every row of a batch; the arithmetic
    works on both (uint32 arrays wrap modulo 2**32 as the reference's C
    code does), and the result has the shape of the key words.
    """
    pool, const = _seed_pool(seed)
    pool = list(pool)
    for word in key_words:
        for dst in range(_POOL_SIZE):
            h, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], h)
    state = []
    const = _INIT_B
    for word in pool[:2]:
        word = word ^ const
        const = (const * _MULT_B) & _MASK32
        word = _u32(word * const)
        state.append(word ^ (word >> _XSHIFT))
    return tuple(state)


def _index_array(indices) -> np.ndarray:
    """``indices`` as a uint64 array.  A range is laid out by numpy rather
    than iterated in Python.  Negative indices and indices of 2**64 or more
    raise OverflowError."""
    if not (isinstance(indices, range) and indices):
        return np.fromiter(map(operator.index, indices), dtype=np.uint64)
    first, last = indices[0], indices[-1]
    if min(first, last) < 0 or max(first, last) >= 1 << 64:
        raise OverflowError(f"indices must lie in [0, 2**64), got {indices!r}")
    offsets = np.arange(len(indices), dtype=np.uint64) * np.uint64(abs(indices.step))
    return np.uint64(first) + offsets if indices.step > 0 else np.uint64(first) - offsets


def derive_seeds(seed: int, indices, *tail: int) -> np.ndarray:
    """``derive_seed(seed, i, *tail)`` for every ``i`` in ``indices``, as one
    uint64 array.

    This is numpy's ``SeedSequence(entropy=seed, spawn_key=(i, *tail))``
    hash with two output words, run over the whole batch in lockstep: the
    hash constants depend only on the number of words hashed, so rows with
    the same index width share every step.  Indices of 2**32 and above are
    two words and form their own group.
    """
    tail_words = [w for t in tail for w in _words(operator.index(t))]
    idx = _index_array(indices)
    out = np.empty(idx.size, dtype=np.uint64)
    wide = idx > _MASK32
    for group, width in ((~wide, 1), (wide, 2)):
        if np.any(group):
            rows = idx[group]
            key = [(rows >> np.uint64(32 * k)).astype(np.uint32) for k in range(width)]
            lo, hi = _spawn_state(seed, key + tail_words)
            out[group] = lo.astype(np.uint64) | (hi.astype(np.uint64) << np.uint64(32))
    return out


def derive_seed(seed: int, first: int, *rest: int) -> int:
    """Derive a stable 64-bit subseed from a seed and an index path.

    The one-element case of :func:`derive_seeds`, run on plain ints through
    the same hash.
    """
    lo, hi = _spawn_state(seed, [w for i in (first, *rest) for w in _words(operator.index(i))])
    return lo | (hi << 32)


# p e_k only permutes and negates the components of p, and q-bar negates
# those of q, so every term of the Hamilton product (p e_k) q-bar is +-p_x q_y.
# Component c of row k is the left-to-right sum over terms t of
# products[_FRAME_TERMS[t, c, k]], where products holds p_x q_y at 4 x + y
# and its negation 16 further on.
_FRAME_TERMS = np.array([
    [[0, 20, 24, 28], [17, 5, 9, 13], [18, 6, 10, 14], [19, 7, 11, 15]],
    [[5, 1, 29, 9], [4, 0, 28, 8], [7, 3, 31, 11], [22, 18, 14, 26]],
    [[10, 14, 2, 22], [27, 31, 19, 7], [8, 12, 0, 20], [9, 13, 1, 21]],
    [[15, 27, 7, 3], [14, 26, 6, 2], [29, 9, 21, 17], [12, 24, 4, 0]],
])


class _FrameScratch:
    """:func:`random_frames`' working arrays for chunks of ``n`` frames."""

    def __init__(self, n: int):
        self.n = n
        self.normals = np.empty((n, 8))
        self.uniforms = np.empty(n)
        self.pq = np.empty((2, 4, n))
        self.squares = np.empty((2, 4, n))
        self.norms = np.empty((2, n))
        self.products = np.empty((2, 4, 4, n))
        self.terms = np.empty((2, 16 * n))


def _scratch_for(n: int) -> _FrameScratch:
    """This thread's :class:`_FrameScratch`, kept for the chunk size it drew last."""
    scratch = _draws.scratch
    if scratch is None or scratch.n != n:
        scratch = _draws.scratch = _FrameScratch(n)
    return scratch


def random_frames(stream: RngStream, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """``n`` Haar-random orthonormal 4-frames (rows are the frame vectors).

    Row k of a frame is p e_k q-bar, for unit quaternions p and q uniform on
    S^3 and the quaternion basis e_k = 1, i, j, k: the map x -> p x q-bar is
    Haar-distributed on SO(4).  Negating the last row of a random half of the
    frames makes them Haar on O(4).  The eight normals and the sign bit of
    every frame come from ``stream``, drawn through this thread's generator
    re-keyed to it (:func:`_rekeyed`).

    Every entry is a sum of four signed products p_x q_y, so the frames are
    built from one signed outer product of p and q, gathered through
    :data:`_FRAME_TERMS` one term at a time and summed in the Hamilton
    product's own order; the last-row flip is an exact multiply by +-1 in
    place.  Each step is elementwise and exact up to the products' and sums'
    own rounding, so the frames are orthonormal to rounding and their bytes
    do not depend on the BLAS build.

    The working arrays (normals, uniforms, p and q, their squares and norms,
    the signed outer product and the gathered terms) are allocated once per
    thread and chunk size and reused by every call on that thread, so a
    warm call allocates no array.  With ``out``, a writable (m, 4, 4) array
    with m <= n, the first m frames are written into it and ``out`` is
    returned; all n frames are still drawn, so they are a prefix of the
    frames drawn without ``out``.  Without ``out`` the frames are a fresh
    array, a transposed view of a component-major (4, 4, n) array: the frame
    axis is innermost in memory, so the rows' wedges are too.
    """
    gen = _rekeyed(stream)
    buf = _scratch_for(n)
    if out is None:
        out = np.empty((4, 4, n)).transpose(2, 1, 0)
    m = len(out)
    gen.standard_normal(out=buf.normals)
    # signs = np.where(u < 0.5, -1.0, 1.0): u - 0.5 is negative exactly when
    # u < 0.5, and +0.0 at u = 0.5.
    signs = gen.random(out=buf.uniforms)
    np.subtract(signs, 0.5, out=signs)
    np.copysign(1.0, signs, out=signs)
    pq, sq, norms = buf.pq, buf.squares, buf.norms
    pq.reshape(8, n)[...] = buf.normals.T
    np.multiply(pq, pq, out=sq)
    np.add(sq[:, 0], sq[:, 1], out=norms)
    norms += sq[:, 2]
    norms += sq[:, 3]
    pq /= np.sqrt(norms, out=norms)[:, None]
    products = buf.products
    np.multiply(pq[0][:, None], pq[1][None], out=products[0])
    np.negative(products[0], out=products[1])
    flat = products.reshape(32, n)
    # component c of row k of frame i at [c, k, i]; one term gathered at a time
    first, term = (t.reshape(4, 4, n) for t in buf.terms)
    rows = out.transpose(2, 1, 0)
    np.take(flat, _FRAME_TERMS[0], axis=0, out=first, mode="clip")
    np.take(flat, _FRAME_TERMS[1], axis=0, out=term, mode="clip")
    np.add(first[..., :m], term[..., :m], out=rows)
    for terms in _FRAME_TERMS[2:]:
        np.take(flat, terms, axis=0, out=term, mode="clip")
        rows += term[..., :m]
    for component in rows[:, 3]:  # 1-D operands, which the ufunc does not buffer
        np.multiply(component, signs[:m], out=component)
    return out


# Entry (r, c) of each quaternionic half of rotation_from_generator is
# component r ^ c of (cos theta, a, b, c), times the half's sign at (r, c).
_HALF_COMPONENT = np.bitwise_xor.outer(np.arange(4), np.arange(4))
_HALF_SIGNS = np.array([
    [[1, 1, 1, 1], [-1, 1, 1, -1], [-1, -1, 1, 1], [-1, 1, -1, 1]],
    [[1, 1, 1, 1], [-1, 1, -1, 1], [-1, 1, 1, -1], [-1, -1, 1, 1]],
], dtype=float)
# The half with sign s takes a, b, c from (w0 + s w5, w1 - s w4, w2 + s w3) / 2.
_HALF_MIX = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]])


def rotation_from_generator(omega: np.ndarray) -> np.ndarray:
    """Matrix exponential of the antisymmetric matrix with coefficients ``omega``.

    Works on a single 6-vector or a batch (..., 6).  Uses the split of a 4x4
    antisymmetric matrix into two commuting quaternionic halves, each of which
    squares to a negative multiple of the identity, so the exponential is a
    closed-form cosine/sine combination.  Both halves are built in one pass:
    each entry is a signed copy of one of its four components.
    """
    omega = np.asarray(omega, dtype=float)
    shape = omega.shape[:-1]
    o = omega.reshape(-1, 6)
    abc = (o[:, :3] + _HALF_MIX[:, None] * o[:, 5:2:-1]) / 2.0   # (2, n, 3)
    a, b, c = abc[..., 0], abc[..., 1], abc[..., 2]
    theta = np.sqrt(a * a + b * b + c * c)
    safe = np.where(theta == 0.0, 1.0, theta)
    sinc = np.where(theta == 0.0, 1.0, np.sin(safe) / safe)
    components = np.empty(abc.shape[:-1] + (4,))
    components[..., 0] = np.cos(theta)
    np.multiply(sinc[..., None], abc, out=components[..., 1:])
    halves = components[..., _HALF_COMPONENT] * _HALF_SIGNS[:, None]
    return (halves[0] @ halves[1]).reshape(shape + (4, 4))
