"""Batched draws: the stacked random-tensor and random-frame paths reproduce
the per-row code they replace bit for bit, and their bytes are pinned."""

import hashlib

import numpy as np
import pytest

from curv4.core import from_matrix, projected_stack
from curv4.errors import ValidationError
from curv4.models import random_bianchi, random_bianchi_matrices
from curv4.numerics import (RngStream, _orthonormalize_rows, derive_seed, random_frames,
                            standard_normal_rows)
from curv4.verify import trial_matrices

_PIVOT_TOL = 1e-10


def reference_random_bianchi(rng, scale):
    """One tensor per generator, as drawn before the batched path."""
    g = rng.generator().standard_normal((6, 6)) * scale
    sym = np.triu(g) + np.triu(g, 1).T
    return from_matrix(sym, project_bianchi=True)


def reference_orthonormalize_rows(g):
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


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestRandomBianchiBatch:
    @pytest.mark.parametrize("n", [1, 2, 1000])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e9])
    @pytest.mark.parametrize("seed", [0, 1, 7919, 2**63 + 5])
    def test_rows_equal_per_row_draws(self, seed, scale, n):
        streams = [RngStream(seed)] + [RngStream(derive_seed(seed, i, 0)) for i in range(n - 1)]
        batch = random_bianchi_matrices(streams, scale)
        assert batch.shape == (n, 6, 6)
        assert not batch.flags.writeable
        for row, stream in zip(batch, streams):
            ref = reference_random_bianchi(stream, scale)
            assert np.array_equal(bits(row), bits(ref.matrix))
        # The one-tensor view, bianchi included, on a few rows.
        for stream in streams[:3]:
            ref = reference_random_bianchi(stream, scale)
            op = random_bianchi(stream, scale)
            assert np.array_equal(bits(op.matrix), bits(ref.matrix))
            assert bits(op.bianchi) == bits(ref.bianchi)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
    def test_scale_must_be_positive(self, scale):
        with pytest.raises(ValidationError, match="scale must be positive"):
            random_bianchi_matrices([RngStream(1)], scale)
        with pytest.raises(ValidationError, match="scale must be positive"):
            random_bianchi(RngStream(1), scale)

    def test_no_streams_is_an_empty_stack(self):
        assert random_bianchi_matrices([], 1.0).shape == (0, 6, 6)


class TestRekeyedPhilox:
    @pytest.mark.parametrize("chunk", [0, 5, 2**32, 2**40])
    @pytest.mark.parametrize("seed", [0, 7919, 2**63 + 5])
    def test_matches_a_fresh_generator(self, seed, chunk):
        stream = RngStream(seed, chunk)
        rows = standard_normal_rows([RngStream(3, 1), stream, stream], (300,))
        expected = stream.generator().standard_normal(300)
        assert np.array_equal(bits(rows[1]), bits(expected))
        assert np.array_equal(bits(rows[2]), bits(expected))

    def test_rows_take_the_requested_shape(self):
        rows = standard_normal_rows([RngStream(4, 2)], (4, 4))
        assert np.array_equal(bits(rows[0]), bits(RngStream(4, 2).generator().standard_normal((4, 4))))


class TestProjectedStack:
    def test_rows_equal_from_matrix(self):
        g = RngStream(12).generator().standard_normal((40, 6, 6))
        stack = g + np.swapaxes(g, -1, -2) + 1e-12 * g   # asymmetric within tolerance
        out = projected_stack(stack)
        assert not out.flags.writeable
        for row, m in zip(out, stack):
            assert np.array_equal(bits(row), bits(from_matrix(m, project_bianchi=True).matrix))

    def test_first_failing_row_raises_its_error(self):
        stack = np.stack([np.eye(6)] * 3)
        stack[1, 1, 1] = np.inf
        stack[2, 0, 1] = 2.0
        with pytest.raises(ValidationError, match="non-finite"):
            projected_stack(stack)
        with pytest.raises(ValidationError, match=r"not symmetric: entries \(0,1\)"):
            projected_stack(stack[[0, 2, 1]])

    def test_shape_is_checked(self):
        with pytest.raises(ValidationError, match="stack of 6x6"):
            projected_stack(np.eye(6))


class TestComponentMajorGramSchmidt:
    @pytest.mark.parametrize("chunk", range(6))
    def test_matches_the_row_major_reference(self, chunk):
        rng = np.random.default_rng(chunk)
        g = RngStream(21, chunk).generator().standard_normal((2048, 4, 4))
        if chunk % 2:   # nearly dependent rows, as in the Gram-Schmidt property test
            g[:, 1] = g[:, 0] + 10.0 ** rng.uniform(-14, -6, (2048, 1)) * g[:, 1]
            g[:, 3] = rng.uniform(-2, 2, (2048, 1)) * g[:, 2] + g[:, 0] + 1e-9 * g[:, 3]
        if chunk % 3 == 2:
            g[::7, 2] = 0.0                  # degenerate frames
            g *= 10.0 ** rng.uniform(-150, 150, (2048, 1, 1))
        q, bad = _orthonormalize_rows(g)
        q_ref, bad_ref = reference_orthonormalize_rows(g)
        assert q.flags.c_contiguous
        assert np.array_equal(bits(q), bits(q_ref))
        assert np.array_equal(bad, bad_ref)
        if chunk % 3 == 2:
            assert bad.any()


class TestPinnedBytes:
    """sha256 of draws that involve no LAPACK call, so they hold across builds."""

    def test_scan_matrix_stack(self):
        # The stack `scan --model random_bianchi:1 --trials 2000 --seed 1` analyzes.
        stack = trial_matrices(1, range(2000), 1.0)
        assert sha256(stack) == "229eb7d1cd1717f1c3975716ba53890a9d49005a64dfe8da5f4c5a3fb9416e50"

    def test_random_frames(self):
        frames = random_frames(RngStream(7, 0), 2048)
        assert sha256(frames) == "3144da3d821a9219aa71554650c0f887b1ac00fa2bb7817fffba728d9ce24c14"
