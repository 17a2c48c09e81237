import math

import numpy as np
import pytest

from curv4.numerics import RngStream, derive_seed, random_frames, rotation_from_generator


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


# Generator coefficients are ordered like the two-form basis: (12, 13, 14, 23, 24, 34).
_GEN_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def antisymmetric_from_coeffs(omega):
    """4x4 antisymmetric matrix from six generator coefficients."""
    out = np.zeros((4, 4))
    for a, (i, j) in enumerate(_GEN_PAIRS):
        out[i, j] = omega[a]
        out[j, i] = -omega[a]
    return out


def _expm_series(a, terms=40):
    out = np.eye(4)
    term = np.eye(4)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def reference_rotation(omega):
    """rotation_from_generator as first written: each quaternionic half
    built in its own pass, one entry column at a time."""
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


class TestRotations:
    @pytest.mark.parametrize("omega", [
        RngStream(5).generator().standard_normal((500, 6)),
        4.0 * RngStream(6).generator().standard_normal((3, 7, 6)),
        RngStream(7).generator().standard_normal(6),
        np.zeros((4, 6)),
        np.array([[0.0, -0.0, 0.0, -0.0, 0.0, -0.0], [1.0, 0.0, 0.0, 0.0, 0.0, 1.0]]),
        1e-8 * RngStream(8).generator().standard_normal((50, 6)),
        1e-160 * RngStream(9).generator().standard_normal((50, 6)),   # squares underflow
        np.array([[5e-324, -5e-324, 1e-320, 0.0, -1e-310, 2e-308]]),
    ], ids=["random", "batched", "single", "zero", "signed-zeros", "small", "tiny",
            "subnormal"])
    def test_bits_match_the_per_half_formula(self, omega):
        got = rotation_from_generator(omega)
        want = reference_rotation(omega)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

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
