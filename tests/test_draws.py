"""Batched draws: the stacked random-tensor path and the outer-product frames
reproduce the code they replace bit for bit, random frames are orthonormal
and Haar on O(4), and the bytes of both are pinned."""

import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from curv4.core import from_matrix, project_to_bianchi, validated_stack
from curv4.errors import ValidationError
from curv4.models import random_bianchi, random_bianchi_matrices
from curv4.models import cp2
from curv4 import numerics
from curv4.numerics import RngStream, derive_seed, random_frames, standard_normal_rows
from curv4.oracle import _OBJECTIVES, SAMPLE_CHUNK, _coarse_samples, _evaluate
from curv4.verify import trial_matrices


def reference_random_bianchi(rng, scale):
    """One tensor per generator, as drawn before the batched path."""
    g = rng.generator().standard_normal((6, 6)) * scale
    sym = np.triu(g) + np.triu(g, 1).T
    return from_matrix(sym, project_bianchi=True)


def reference_hamilton(a, b):
    """Quaternion products of ``a`` and ``b``, components on the first axis."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return np.stack([a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                     a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                     a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                     a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0])


def reference_random_frames(rng, n):
    """Frames as built before the signed outer product: p e_k, then (p e_k) q-bar,
    each a full Hamilton product, in C order."""
    gen = rng.generator()
    g = gen.standard_normal((n, 8))
    flip = gen.random(n) < 0.5
    pq = np.ascontiguousarray(g.T).reshape(2, 4, n)
    sq = pq * pq
    pq /= np.sqrt(((sq[:, 0] + sq[:, 1]) + sq[:, 2]) + sq[:, 3])[:, None]
    p, q_bar = pq[0], pq[1] * np.array([1.0, -1.0, -1.0, -1.0])[:, None]
    rows = reference_hamilton(reference_hamilton(p[:, None], np.eye(4)[:, :, None]),
                              q_bar[:, None])
    frames = np.ascontiguousarray(rows.transpose(2, 1, 0))
    frames[flip, 3] *= -1.0
    return frames


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

    def test_generators_follow_their_streams(self):
        streams = [RngStream(9, 4), RngStream(2**63 + 5, 0), RngStream(9, 4)]
        for stream in streams:
            gen = numerics._rekeyed(stream)
            drawn = (gen.standard_normal((5, 8)), gen.random(5))
            fresh = stream.generator()
            assert np.array_equal(bits(drawn[0]), bits(fresh.standard_normal((5, 8))))
            assert np.array_equal(bits(drawn[1]), bits(fresh.random(5)))

    def test_rows_take_the_requested_shape(self):
        rows = standard_normal_rows([RngStream(4, 2)], (4, 4))
        assert np.array_equal(bits(rows[0]), bits(RngStream(4, 2).generator().standard_normal((4, 4))))


def leave_buffer_part_used():
    """Draw so that this thread's bit generator holds back half a uint64
    (``has_uint32``) and stops mid-way through a Philox block."""
    gen = numerics._rekeyed(RngStream(11, 3))
    gen.integers(0, 2**32, size=3, dtype=np.uint32)  # an odd count of uint32 words
    gen.random(3)
    state = numerics._draws.bitgen.state
    assert state["has_uint32"] == 1 and 0 < state["buffer_pos"] < 4


# The largest seed, and a chunk that sets counter word 3.
EDGE_STREAMS = [RngStream(2**64 - 1), RngStream(2**64 - 1, 2**64 + 1), RngStream(7, 2**64 + 1)]


class TestRekeyAfterPartialDraws:
    """Re-keying starts a stream afresh whatever the previous stream left in
    the bit generator's buffer."""

    @pytest.mark.parametrize("stream", EDGE_STREAMS)
    def test_rekeyed_generator_draws_the_fresh_stream(self, stream):
        leave_buffer_part_used()
        gen, fresh = numerics._rekeyed(stream), stream.generator()
        for draw in (lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
                     lambda g: g.random(5), lambda g: g.standard_normal(7)):
            assert np.array_equal(draw(gen), draw(fresh))

    @pytest.mark.parametrize("stream", EDGE_STREAMS)
    def test_rows_draw_the_fresh_stream(self, stream):
        leave_buffer_part_used()
        rows = standard_normal_rows([stream, RngStream(3, 1), stream], (9,))
        expected = stream.generator().standard_normal(9)
        assert np.array_equal(bits(rows[0]), bits(expected))
        assert np.array_equal(bits(rows[2]), bits(expected))

    def test_counter_word_3_is_the_chunks_high_word(self):
        numerics._rekeyed(RngStream(2**64 - 1, 2**64 + 1))
        state = numerics._draws.bitgen.state["state"]
        assert state["key"].tolist() == [2**64 - 1, 0]
        assert state["counter"].tolist() == [0, 0, 1, 1]


class TestValidatedStack:
    @pytest.mark.parametrize("project", [False, True])
    def test_rows_equal_from_matrix(self, project):
        g = RngStream(12).generator().standard_normal((40, 6, 6))
        stack = g + np.swapaxes(g, -1, -2) + 1e-12 * g   # asymmetric within tolerance
        if not project:
            stack = project_to_bianchi(stack)
        out = validated_stack(stack, project_bianchi=project)
        assert not out.flags.writeable
        for row, m in zip(out, stack):
            sym = (m + m.T) / 2.0
            assert np.array_equal(bits(row), bits(project_to_bianchi(sym) if project else sym))
            assert np.array_equal(bits(row), bits(from_matrix(m, project_bianchi=project).matrix))

    def test_first_failing_row_raises_its_error(self):
        stack = np.stack([np.eye(6)] * 3)
        stack[1, 1, 1] = np.inf
        stack[2, 0, 1] = 2.0
        with pytest.raises(ValidationError, match="non-finite"):
            validated_stack(stack, project_bianchi=True)
        with pytest.raises(ValidationError, match=r"not symmetric: entries \(0,1\)"):
            validated_stack(stack[[0, 2, 1]], project_bianchi=True)

    def test_rows_failing_different_checks_raise_the_first_rows_message(self):
        # Row 0 has a Bianchi residual, which only the unprojected check
        # rejects; row 1 has a non-finite entry.
        stack = np.stack([np.eye(6)] * 2)
        stack[0, 0, 5] = stack[0, 5, 0] = 1.0
        stack[1, 3, 3] = np.nan
        residual = ("Bianchi residual 1.000000e+00 exceeds tolerance 1.000e-09; pass "
                    "project_bianchi=True (--project-bianchi on the command line) to "
                    "project it away")
        with pytest.raises(ValidationError) as info:
            validated_stack(stack)
        assert str(info.value) == residual
        with pytest.raises(ValidationError) as info:
            validated_stack(stack[::-1])
        assert str(info.value) == "matrix has non-finite entries"
        with pytest.raises(ValidationError) as info:
            validated_stack(stack, project_bianchi=True)
        assert str(info.value) == "matrix has non-finite entries"

    def test_symmetry_message_names_the_largest_difference(self):
        stack = np.stack([np.eye(6)] * 2)
        stack[1, 4, 2] = 0.25
        stack[1, 1, 3] = -0.5
        with pytest.raises(ValidationError) as info:
            validated_stack(stack)
        assert str(info.value) == ("matrix is not symmetric: entries (1,3)=-0.5 and "
                                   "(3,1)=0.0 differ by 5.000e-01")

    def test_overflowing_rows_raise_their_errors(self):
        # Row 1 overflows when symmetrized, row 2 when its residual is projected away.
        stack = np.stack([np.eye(6)] * 3)
        stack[1] = 1e308 * np.eye(6)
        stack[2, 0, 5] = stack[2, 5, 0] = stack[2, 2, 3] = stack[2, 3, 2] = 8e307
        stack[2, 1, 4] = stack[2, 4, 1] = -8e307
        with pytest.raises(ValidationError, match="symmetrizing overflows"):
            validated_stack(stack, project_bianchi=True)
        with pytest.raises(ValidationError, match="projecting the Bianchi residual away"):
            validated_stack(stack[[0, 2]], project_bianchi=True)
        with pytest.raises(ValidationError, match="Bianchi residual inf exceeds"):
            validated_stack(stack[[0, 2]])

    def test_shape_is_checked(self):
        with pytest.raises(ValidationError, match="stack of 6x6"):
            validated_stack(np.eye(6))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (1, 6, 6)])
    def test_from_matrix_takes_one_6x6_matrix(self, shape):
        with pytest.raises(ValidationError, match=r"expected a 6x6 matrix, got shape \("):
            from_matrix(np.zeros(shape))


class TestRandomFrames:
    """Coarse frames x -> p x q-bar from two unit quaternions, half of them
    with the last row negated."""

    @pytest.mark.parametrize("seed", [1, 7919])
    def test_full_chunks_are_orthonormal(self, seed):
        # Row 952 of seed 1, chunk 4 was 2.1e-12 off under one Gram-Schmidt pass.
        for chunk in range(8):
            f = random_frames(RngStream(seed, chunk), SAMPLE_CHUNK)
            gram = np.einsum("nij,nkj->nik", f, f)
            assert np.max(np.abs(gram - np.eye(4))) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 777, 2048])
    @pytest.mark.parametrize("chunk", [0, 1, 9])
    @pytest.mark.parametrize("seed", [0, 1, 7919, 2**63 + 5])
    def test_equal_two_hamilton_passes(self, seed, chunk, n):
        frames = random_frames(RngStream(seed, chunk), n)
        assert frames.shape == (n, 4, 4)
        assert np.array_equal(bits(frames), bits(reference_random_frames(RngStream(seed, chunk), n)))

    def test_frame_axis_is_innermost(self):
        frames = random_frames(RngStream(3, 1), 5)
        assert frames.T.flags.c_contiguous
        assert np.array_equal(bits(random_frames(RngStream(3, 1), 5)), bits(frames))

    def test_moments_match_haar_on_o4(self):
        f = np.concatenate([random_frames(RngStream(5, c), SAMPLE_CHUNK) for c in range(8)])
        # E[F_ij F_kl] = delta_ik delta_jl / 4 and E[F_ij^4] = 3 / (n (n + 2)) = 1/8
        second = np.einsum("nij,nkl->ijkl", f, f) / len(f)
        expected = np.einsum("ik,jl->ijkl", np.eye(4), np.eye(4)) / 4.0
        assert np.max(np.abs(second - expected)) <= 0.01
        assert np.max(np.abs(np.mean(f ** 4, axis=0) - 0.125)) <= 0.01

    def test_det_signs_are_balanced(self):
        f = np.concatenate([random_frames(RngStream(5, c), SAMPLE_CHUNK) for c in range(8)])
        det = np.linalg.det(f)
        assert np.max(np.abs(np.abs(det) - 1.0)) <= 1e-13
        assert abs(np.mean(det > 0) - 0.5) <= 0.02


class TestFrameScratch:
    """random_frames works in per-thread scratch arrays: a warm call allocates
    no array, results never alias the scratch, and threads do not share it."""

    def test_warm_call_into_out_allocates_no_array(self):
        stream = RngStream(4, 0)
        out = np.empty((4, 4, SAMPLE_CHUNK)).transpose(2, 1, 0)
        random_frames(stream, SAMPLE_CHUNK, out=out)  # warms this thread's scratch
        tracemalloc.start()
        try:
            random_frames(stream, SAMPLE_CHUNK, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The scratch is about 1.4 MB for a chunk; the frames alone are 256 KB.
        assert peak <= 256 * 1024

    @pytest.mark.parametrize("m", [1, 1000, SAMPLE_CHUNK])
    def test_out_takes_a_prefix_of_the_full_draw(self, m):
        stream = RngStream(6, 3)
        buffer = np.full((4, 4, m + 5), np.nan).transpose(2, 1, 0)
        got = random_frames(stream, SAMPLE_CHUNK, out=buffer[2:m + 2])
        assert got.base is buffer.base
        assert np.isnan(buffer[:2]).all() and np.isnan(buffer[m + 2:]).all()
        assert np.array_equal(bits(got), bits(reference_random_frames(stream, SAMPLE_CHUNK)[:m]))
        # The whole chunk was drawn: this thread's generator goes on where a
        # full draw of the stream leaves it.
        full = stream.generator()
        full.standard_normal((SAMPLE_CHUNK, 8))
        full.random(SAMPLE_CHUNK)
        assert np.array_equal(bits(numerics._draws.gen.random(5)), bits(full.random(5)))

    def test_calls_without_out_return_independent_arrays(self):
        a = random_frames(RngStream(8, 0), SAMPLE_CHUNK)
        a_bytes = a.copy()
        b = random_frames(RngStream(8, 1), SAMPLE_CHUNK)
        assert not np.shares_memory(a, b)
        assert np.array_equal(bits(a), bits(a_bytes))
        assert np.array_equal(bits(a), bits(reference_random_frames(RngStream(8, 0), SAMPLE_CHUNK)))
        assert np.array_equal(bits(b), bits(reference_random_frames(RngStream(8, 1), SAMPLE_CHUNK)))

    def test_threads_drawing_at_once_get_the_serial_bytes(self):
        streams = {name: [RngStream(seed, c) for c in range(12)]
                   for name, seed in (("a", 21), ("b", 2**63 + 9), ("c", 5))}
        serial = {name: [random_frames(st, SAMPLE_CHUNK) for st in group]
                  for name, group in streams.items()}
        got: dict = {}
        start = threading.Barrier(len(streams))

        def draw(name):
            start.wait(timeout=30)
            got[name] = [random_frames(st, SAMPLE_CHUNK).copy() for st in streams[name]]

        threads = [threading.Thread(target=draw, args=(name,)) for name in streams]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for name, frames in serial.items():
            assert len(got[name]) == len(frames)
            for mine, want in zip(got[name], frames):
                assert np.array_equal(bits(mine), bits(want))


class TestCoarseSamples:
    """A coarse pass's frames and values are the old per-chunk construction's,
    and a smaller budget is a byte-equal prefix of a larger one."""

    TARGETS = [(objective, cp2(1.0).matrix) for objective in _OBJECTIVES]

    @pytest.fixture(scope="class")
    def full(self):
        return _coarse_samples(3, 40960, self.TARGETS)

    def test_full_pass_equals_reference_chunks(self, full):
        frames, values = full
        for chunk in range(40960 // SAMPLE_CHUNK):
            rows = slice(chunk * SAMPLE_CHUNK, (chunk + 1) * SAMPLE_CHUNK)
            expected = reference_random_frames(RngStream(3, chunk), SAMPLE_CHUNK)
            assert np.array_equal(bits(frames[rows]), bits(expected))
            for out, (objective, m) in zip(values, self.TARGETS):
                assert np.array_equal(bits(out[rows]), bits(_evaluate(objective, m, expected)))

    @pytest.mark.parametrize("samples", [1, 2047, 2049, 20000])
    def test_smaller_budgets_are_prefixes(self, full, samples):
        frames, values = _coarse_samples(3, samples, self.TARGETS)
        assert frames.shape == (samples, 4, 4)
        assert np.array_equal(bits(frames), bits(full[0][:samples]))
        for out, full_out in zip(values, full[1]):
            assert np.array_equal(bits(out), bits(full_out[:samples]))


    def test_groups_through_one_worker_generator(self):
        """One thread's generator, re-keyed to every chunk of group after
        group, draws each chunk as a fresh generator of its stream does; a
        short final chunk keeps the prefix of its draw."""
        streams, gens = [], set()
        rekeyed = numerics._rekeyed

        def recorded(stream):
            streams.append(stream)
            gen = rekeyed(stream)
            gens.add(id(gen))
            return gen

        groups = ((3, 4097), (2**63 + 9, 2048), (5, 5000), (3, 1))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numerics, "_rekeyed", recorded)
            passes = [_coarse_samples(seed, samples, self.TARGETS) for seed, samples in groups]
        for (seed, samples), (frames, values) in zip(groups, passes):
            for chunk in range(-(-samples // SAMPLE_CHUNK)):
                lo = chunk * SAMPLE_CHUNK
                rows = slice(lo, min(lo + SAMPLE_CHUNK, samples))
                expected = reference_random_frames(RngStream(seed, chunk),
                                                   SAMPLE_CHUNK)[:rows.stop - lo]
                assert np.array_equal(bits(frames[rows]), bits(expected))
                for out, (objective, m) in zip(values, self.TARGETS):
                    assert np.array_equal(bits(out[rows]),
                                          bits(_evaluate(objective, m, expected)))
        assert streams == [RngStream(seed, c) for seed, samples in groups
                           for c in range(-(-samples // SAMPLE_CHUNK))]
        assert len(gens) == 1


class TestPinnedBytes:
    """sha256 of draws that involve no LAPACK call, so they hold across builds."""

    def test_scan_matrix_stack(self):
        # The stack `scan --model random_bianchi:1 --trials 2000 --seed 1` analyzes.
        stack = trial_matrices(1, range(2000), 1.0)
        assert sha256(stack) == "229eb7d1cd1717f1c3975716ba53890a9d49005a64dfe8da5f4c5a3fb9416e50"

    def test_random_frames(self):
        frames = random_frames(RngStream(7, 0), 2048)
        assert sha256(frames) == "1216a96c7daf3413af274f8ee9baf03145da01e18173b9c80f685bed6a357911"
