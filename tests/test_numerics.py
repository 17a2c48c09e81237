import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curv4.errors import DegenerateInputError, ValidationError
from curv4.numerics import (RngStream, antisymmetric_from_coeffs, derive_seed,
                            eig_sym, gram_schmidt, random_frames,
                            rotation_from_generator)


def symmetric_from_upper(values, n):
    m = np.zeros((n, n))
    it = iter(values)
    for i in range(n):
        for j in range(i, n):
            m[i, j] = m[j, i] = next(it)
    return m


bounded = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def sym3():
    return st.lists(bounded, min_size=6, max_size=6).map(lambda v: symmetric_from_upper(v, 3))


def sym6():
    return st.lists(bounded, min_size=21, max_size=21).map(lambda v: symmetric_from_upper(v, 6))


class TestEigSym:
    def test_diagonal(self):
        assert np.allclose(eig_sym(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])

    def test_identity(self):
        assert np.allclose(eig_sym(np.eye(3)), [1.0, 1.0, 1.0])

    def test_swap_block(self):
        m = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        assert np.allclose(eig_sym(m), [-1.0, 1.0, 2.0], atol=1e-12)

    def test_rejects_asymmetric(self):
        m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        with pytest.raises(ValidationError):
            eig_sym(m)

    def test_rejects_bad_size(self):
        with pytest.raises(ValidationError):
            eig_sym(np.eye(7))

    @pytest.mark.parametrize("n,seed", [(3, 0), (3, 1), (6, 2), (6, 3), (4, 4)])
    def test_against_lapack(self, n, seed):
        g = RngStream(seed).generator().standard_normal((n, n))
        m = (g + g.T) / 2.0
        w, v = eig_sym(m, vectors=True)
        assert np.allclose(w, np.linalg.eigvalsh(m), atol=1e-10)
        scale = 1.0 + np.max(np.abs(m))
        assert np.max(np.abs(m - v @ np.diag(w) @ v.T)) <= 1e-10 * scale
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(sym3())
    def test_trace_equals_eigensum(self, m):
        w = eig_sym(m)
        tr = np.trace(m)
        assert abs(w.sum() - tr) <= 1e-10 * (1.0 + abs(tr))

    @settings(max_examples=40, deadline=None)
    @given(sym6(), st.permutations(list(range(6))))
    def test_permutation_invariance(self, m, perm):
        p = np.eye(6)[perm]
        assert np.allclose(eig_sym(p @ m @ p.T), eig_sym(m), atol=1e-10 * (1 + np.max(np.abs(m))))


class TestGramSchmidt:
    def test_standard_basis_fixed(self):
        basis = [np.eye(4)[i] for i in range(4)]
        out = gram_schmidt(basis)
        assert np.allclose(np.stack(out), np.eye(4))

    def test_two_vectors(self):
        out = gram_schmidt([np.array([2.0, 0, 0, 0]), np.array([1.0, 1.0, 0, 0])])
        assert np.allclose(out[0], [1, 0, 0, 0])
        assert np.allclose(out[1], [0, 1, 0, 0])

    def test_dependent_vectors_rejected(self):
        v = np.array([1.0, 0, 0, 0])
        with pytest.raises(DegenerateInputError):
            gram_schmidt([v, v])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4),
                    min_size=2, max_size=4))
    def test_orthonormal_and_span(self, rows):
        vs = [np.array(r) for r in rows]
        try:
            out = gram_schmidt(vs)
        except DegenerateInputError:
            return
        q = np.stack(out)
        assert np.max(np.abs(q @ q.T - np.eye(len(out)))) <= 1e-12
        assert np.allclose(out[0], vs[0] / np.linalg.norm(vs[0]))
        # span accuracy degrades with input conditioning; only check it for
        # inputs that are not borderline dependent
        sigma = np.linalg.svd(np.stack(vs), compute_uv=False)
        if sigma[-1] > 1e-4 * (1.0 + sigma[0]):
            coeffs = q @ np.stack(vs).T
            assert np.allclose(q.T @ coeffs, np.stack(vs).T, atol=1e-9)


class TestRng:
    def test_stream_is_reproducible(self):
        a = RngStream(42, 3).generator().standard_normal(8)
        b = RngStream(42, 3).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_chunks_are_disjoint_streams(self):
        a = RngStream(42, 0).generator().standard_normal(8)
        b = RngStream(42, 1).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_derive_seed_is_stable(self):
        assert derive_seed(7, 0, 0) == derive_seed(7, 0, 0)
        assert derive_seed(7, 0, 0) != derive_seed(7, 0, 1)
        assert derive_seed(7, 1) != derive_seed(8, 1)

    def test_frame_determinism(self):
        f1 = random_frames(RngStream(11, 0), 1)[0]
        f2 = random_frames(RngStream(11, 0), 1)[0]
        assert np.array_equal(f1, f2)
        f3 = random_frames(RngStream(12, 0), 1)[0]
        assert not np.array_equal(f1, f3)

    def test_frame_orthogonality(self):
        for seed in range(5):
            f = random_frames(RngStream(seed), 1)[0]
            assert np.max(np.abs(f @ f.T - np.eye(4))) <= 1e-12

    def test_batch_prefix_matches_single(self):
        batch = random_frames(RngStream(5, 2), 3)
        assert np.array_equal(batch[0], random_frames(RngStream(5, 2), 1)[0])

    def test_rotation_invariance_statistic(self):
        # second moment of the first frame vector should be I/4
        frames = random_frames(RngStream(3), 4000)
        second = np.einsum("ni,nj->ij", frames[:, 0], frames[:, 0]) / len(frames)
        assert np.max(np.abs(second - np.eye(4) / 4.0)) < 5.0 / math.sqrt(len(frames))


def _expm_series(a, terms=40):
    out = np.eye(4)
    term = np.eye(4)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


class TestRotations:
    def test_zero_generator_is_identity(self):
        assert np.array_equal(rotation_from_generator(np.zeros(6)), np.eye(4))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_series_exponential(self, seed):
        omega = RngStream(seed).generator().standard_normal(6)
        q = rotation_from_generator(omega)
        expected = _expm_series(antisymmetric_from_coeffs(omega))
        assert np.max(np.abs(q - expected)) < 1e-12

    def test_orthogonal_with_unit_determinant(self):
        omega = RngStream(77).generator().standard_normal((10, 6))
        qs = rotation_from_generator(omega)
        for q in qs:
            assert np.max(np.abs(q @ q.T - np.eye(4))) < 1e-12
            assert abs(np.linalg.det(q) - 1.0) < 1e-12
