import multiprocessing
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from curv4 import oracle
from curv4.core import PAIRS, CurvatureOperator, wedge
from curv4.errors import ConsistencyError, ValidationError
from curv4.models import cp2, flat, product_surfaces, random_bianchi, sphere
from curv4.numerics import RngStream, derive_seeds, random_frames, rotation_from_generator
from curv4.oracle import (_CANDIDATE_POOL, _DERIVATIONS, _DIVERSITY_MIN_DIST, _OBJECTIVES,
                          _SELECT_BLOCK, _STEP_EVALUATIONS, MODES, ExtremumResult, OracleConfig,
                          Search, _coarse_samples, _coarse_starts, _derivatives, _evaluate,
                          _frame_form, _jet_values, _jets, _polish, _pool, _refine,
                          _rotated, _select_group, extremize_batch)
from curv4.verify import (DEFAULT_SAMPLES, TRIAL_BLOCK, _run_trials, run_verification,
                          trial_matrices)

from . import reference as ref

SMALL = OracleConfig(samples=3000, refine_iters=80, restarts=2, seed=5)


def results_equal(a: ExtremumResult, b: ExtremumResult) -> bool:
    return (a.value == b.value and np.array_equal(a.witness, b.witness)
            and a.samples_used == b.samples_used and a.converged == b.converged)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            OracleConfig(samples=0)
        with pytest.raises(ValidationError):
            OracleConfig(refine_iters=-1)

    @pytest.mark.parametrize("field, value", [
        ("samples", 2500.5), ("samples", 2500.0), ("samples", "2500"),
        ("refine_iters", 2.5), ("restarts", 1.5), ("restarts", None)])
    def test_budgets_must_be_integers(self, field, value):
        with pytest.raises(ValidationError, match=field):
            OracleConfig(**{field: value})

    @pytest.mark.parametrize("field", ["samples", "refine_iters", "restarts"])
    def test_budgets_must_fit_in_int64(self, field):
        OracleConfig(**{field: 2**55})
        with pytest.raises(ValidationError, match="at most"):
            OracleConfig(**{field: 2**63})

    def test_samples_must_fit_in_one_addressable_pass(self):
        with pytest.raises(ValidationError, match="address"):
            OracleConfig(samples=2**56)

    def test_integer_budgets_are_plain_ints(self):
        cfg = OracleConfig(samples=np.int64(2500), refine_iters=np.int32(3), restarts=np.uint8(2))
        assert [type(v) for v in (cfg.samples, cfg.refine_iters, cfg.restarts)] == [int] * 3
        assert (cfg.samples, cfg.refine_iters, cfg.restarts) == (2500, 3, 2)

    def test_empty_batch_has_no_results(self):
        assert extremize_batch([]) == []

    def test_objective_and_mode_checked(self):
        with pytest.raises(ValidationError):
            Search(sphere(1.0).matrix, "ricci", "min", SMALL)
        with pytest.raises(ValidationError):
            Search(sphere(1.0).matrix, "sectional", "inf", SMALL)


class TestModelExtrema:
    def test_unit_sphere_is_constant(self):
        res, = extremize_batch([Search(sphere(1.0).matrix, "biorthogonal", "min", SMALL)])
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_product_min_is_zero_on_mixed_plane(self):
        op = product_surfaces(1.0, 1.0)
        res, = extremize_batch([Search(op.matrix, "biorthogonal", "min", OracleConfig(seed=2))])
        assert abs(res.value) <= 1e-9
        # the witness realizes the minimum with a genuinely mixed plane
        proj = res.witness[:2].T @ res.witness[:2]
        factor_mass = proj[:2, :2].trace()
        assert 0.05 < factor_mass < 1.95

    def test_cp2_biortho_max(self):
        res, = extremize_batch([Search(cp2(1.0).matrix, "biorthogonal", "max",
                                       OracleConfig(seed=2))])
        assert res.value == pytest.approx(4.0, abs=1e-6)

    def test_cp2_sectional_range(self):
        lo, hi = extremize_batch([Search(cp2(1.0).matrix, "sectional", mode, OracleConfig(seed=2))
                                  for mode in MODES])
        assert lo.value == pytest.approx(1.0, abs=1e-6)
        assert hi.value == pytest.approx(4.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_closed_form_on_random_tensors(self, seed):
        op = random_bianchi(seed + 100)
        k1, _, k3 = op.invariants.k[0].tolist()
        lo, hi = extremize_batch([Search(op.matrix, "biorthogonal", mode, OracleConfig(seed=seed))
                                  for mode in MODES])
        assert lo.value == pytest.approx(k1, abs=1e-6, rel=1e-6)
        assert hi.value == pytest.approx(k3, abs=1e-6, rel=1e-6)
        assert lo.value >= k1 - 1e-9
        assert hi.value <= k3 + 1e-9

    def test_sectional_range_matches_finsler_thorpe(self):
        """The sectional objective is multimodal; at the default budget its
        searches reach the closed-form range on 40 random tensors, and never
        cross it."""
        assert ref.sectional_range(cp2(1.0).matrix) == pytest.approx((1.0, 4.0), abs=1e-12)
        matrices = [random_bianchi(seed).matrix for seed in range(40)]
        results = extremize_batch([Search(m, "sectional", mode)
                                   for m in matrices for mode in MODES])
        for m, lo, hi in zip(matrices, results[0::2], results[1::2]):
            k_min, k_max = ref.sectional_range(m)
            scale = max(1.0, float(np.max(np.abs(m))))
            assert abs(lo.value - k_min) <= 1e-9 * scale
            assert abs(hi.value - k_max) <= 1e-9 * scale
            assert lo.value >= k_min - 1e-12 * scale
            assert hi.value <= k_max + 1e-12 * scale


class TestSoundness:
    @pytest.mark.parametrize("objective", ["sectional", "biorthogonal"])
    def test_witness_reproduces_value(self, objective):
        op = random_bianchi(321)
        for mode in ("min", "max"):
            res, = extremize_batch([Search(op.matrix, objective, mode, SMALL)])
            curvature = ref.sectional if objective == "sectional" else ref.biorthogonal
            again = curvature(op.matrix, res.witness[0], res.witness[1])
            assert abs(again - res.value) <= 1e-12

    def test_isotropic_witness_reproduces_value(self):
        op = random_bianchi(321)
        res, = extremize_batch([Search(op.matrix, "isotropic", "min", SMALL)])
        assert abs(ref.isotropic(op.matrix, res.witness) - res.value) <= 1e-12
        assert np.max(np.abs(res.witness @ res.witness.T - np.eye(4))) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_biorthogonal_witness_complement_attains_value(self, seed):
        """A biorthogonal witness's plane and complement are its rows 0-1
        and 2-3, and their mean sectional curvature is its value."""
        m = random_bianchi(400 + seed).matrix
        for res in extremize_batch([Search(m, "biorthogonal", mode, SMALL) for mode in MODES]):
            w = res.witness
            mean = (ref.sectional(m, w[0], w[1]) + ref.sectional(m, w[2], w[3])) / 2.0
            assert abs(mean - res.value) <= 1e-12

    @pytest.mark.parametrize("refine", [0, 80])
    def test_every_witness_is_a_read_only_orthonormal_frame(self, refine):
        m = random_bianchi(321).matrix
        cfg = OracleConfig(samples=3000, refine_iters=refine, restarts=2, seed=5)
        for res in extremize_batch([Search(m, objective, mode, cfg)
                                    for objective in _OBJECTIVES for mode in MODES]):
            assert type(res.witness) is np.ndarray and res.witness.shape == (4, 4)
            assert not res.witness.flags.writeable
            assert np.max(np.abs(res.witness @ res.witness.T - np.eye(4))) <= 1e-12


class TestWitnessCheck:
    """A winning frame that is not orthonormal within 1e-12 is an internal
    failure of the search, whatever its objective."""

    @pytest.mark.parametrize("objective, mode", [("sectional", "min"), ("isotropic", "max")])
    def test_non_orthonormal_witness_is_a_consistency_error(self, monkeypatch, objective, mode):
        def perturbed(searches, *args):
            return [(value, frame * (1.0 + 1e-11), evaluations, converged)
                    for value, frame, evaluations, converged in refine(searches, *args)]

        refine = oracle._refine
        monkeypatch.setattr(oracle, "_refine", perturbed)
        search = Search(random_bianchi(321).matrix, objective, mode, SMALL)
        with pytest.raises(ConsistencyError, match=f"the {objective} {mode} witness"):
            extremize_batch([search])


class TestDeterminism:
    def test_identical_config_identical_result(self):
        op = random_bianchi(9)
        a, = extremize_batch([Search(op.matrix, "biorthogonal", "min", SMALL)])
        b, = extremize_batch([Search(op.matrix, "biorthogonal", "min", SMALL)])
        assert results_equal(a, b)

    def test_different_seeds_explore_differently(self):
        op = random_bianchi(9)
        a, b = extremize_batch([Search(op.matrix, "biorthogonal", "min",
                                       OracleConfig(samples=500, seed=seed)) for seed in (1, 2)])
        assert not np.array_equal(a.witness[0], b.witness[0])


class TestMonotonicity:
    def test_coarse_phase_is_exactly_monotone(self):
        op = random_bianchi(13)
        budgets = [500, 2000, 4096, 9000]
        values = [res.value for res in extremize_batch([
            Search(op.matrix, "biorthogonal", "min",
                   OracleConfig(samples=n, refine_iters=0, seed=4))
            for n in budgets])]
        for worse, better in zip(values, values[1:]):
            assert better <= worse

    def test_full_pipeline_monotone_within_soundness_slack(self):
        op = random_bianchi(13)
        values = [res.value for res in extremize_batch([
            Search(op.matrix, "biorthogonal", "min",
                   OracleConfig(samples=n, refine_iters=60, restarts=2, seed=4))
            for n in (1000, 4000, 12000)])]
        for worse, better in zip(values, values[1:]):
            assert better <= worse + 1e-9

    def test_refinement_never_worsens_coarse_result(self):
        op = random_bianchi(29)
        coarse, refined = extremize_batch([
            Search(op.matrix, "biorthogonal", "min",
                   OracleConfig(samples=2000, refine_iters=0, seed=6)),
            Search(op.matrix, "biorthogonal", "min",
                   OracleConfig(samples=2000, refine_iters=50, restarts=2, seed=6)),
        ])
        assert refined.value <= coarse.value + 1e-12


def reference_select_candidates(frames, values, count, isotropic):
    """Candidate selection measuring each pool position against the kept ones,
    as done before the distances were taken per kept candidate."""
    pool_size = min(_CANDIDATE_POOL, len(values))
    pool = np.argpartition(values, pool_size - 1)[:pool_size]
    pool = pool[np.argsort(values[pool], kind="stable")]
    pf = frames[pool]
    projs = np.einsum("ni,nj->nij", pf[:, 0], pf[:, 0]) + np.einsum(
        "ni,nj->nij", pf[:, 1], pf[:, 1])
    det_sign = np.sign(np.linalg.det(pf))
    chosen = []
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
    for pos in range(len(pool)):
        if len(chosen) == count:
            break
        if pos not in chosen:
            chosen.append(pos)
    return [int(pool[pos]) for pos in chosen]


def select(frames, values, count, isotropic):
    """The candidates of one search, selected as a group of one."""
    return _select_group(frames, [_pool(values)], [count], [isotropic])[0]


def clustered_frames(seed: int, n: int, clusters: int) -> np.ndarray:
    """``n`` frames near ``clusters`` random frames: a pool of them holds
    near repeats that selection must skip, past its first block too."""
    gen = RngStream(seed, 2).generator()
    centers = random_frames(RngStream(seed, 1), clusters)
    return np.ascontiguousarray(centers[gen.integers(0, clusters, n)]
                                + 0.05 * gen.standard_normal((n, 4, 4)))


class TestCandidateSelection:
    @pytest.mark.parametrize("isotropic", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_position_distances(self, seed, isotropic):
        gen = RngStream(seed, 1).generator()
        frames = random_frames(RngStream(seed), 700)
        if seed % 2:
            # Clusters around three frames: most of the pool is too close to
            # a kept candidate, and some searches need the backfill.
            frames = np.ascontiguousarray(frames[gen.integers(0, 3, 700)]
                                          + 0.05 * gen.standard_normal((700, 4, 4)))
        values = np.round(gen.standard_normal(700), 1)
        for n in (1, 5, 700):
            for count in range(6):
                assert (select(frames[:n], values[:n], count, isotropic)
                        == reference_select_candidates(frames[:n], values[:n], count, isotropic))

    # Counts that need pool positions past the first block of 16, and budgets
    # just below and at the pool size.
    @pytest.mark.parametrize("isotropic", [False, True])
    @pytest.mark.parametrize("clusters", [12, 40, None])
    @pytest.mark.parametrize("seed", range(3))
    def test_counts_past_the_first_block(self, seed, clusters, isotropic):
        n = 700
        frames = (random_frames(RngStream(seed), n) if clusters is None
                  else clustered_frames(seed, n, clusters))
        values = RngStream(seed, 3).generator().standard_normal(n)
        for budget in (199, 200, n):
            for count in (_SELECT_BLOCK, _SELECT_BLOCK + 1, 20, 200, 201):
                assert (select(frames[:budget], values[:budget], count, isotropic)
                        == reference_select_candidates(frames[:budget], values[:budget],
                                                       count, isotropic)), (budget, count)

    def test_past_the_block_keeps_distant_candidates(self):
        # 40 clusters: the first block holds repeats, so 20 distant
        # candidates need positions past it, not the backfill.
        frames = clustered_frames(0, 700, 40)
        values = RngStream(0, 3).generator().standard_normal(700)
        chosen = select(frames, values, 20, False)
        pool = np.argsort(values, kind="stable")[:_CANDIDATE_POOL].tolist()
        assert max(pool.index(row) for row in chosen) >= _SELECT_BLOCK
        projs = np.einsum("nki,nkj->nij", frames[chosen, :2], frames[chosen, :2])
        dist = np.linalg.norm(projs[:, None] - projs[None], axis=(2, 3))
        assert np.all(dist[np.triu_indices(20, 1)] >= _DIVERSITY_MIN_DIST)

    def test_group_on_one_draw_matches_each_search(self):
        """Every objective and both modes on one seed, with mixed budgets and
        restarts: each search's starts are the reference's rows of the draw."""
        matrix = random_bianchi(64).matrix
        searches = [Search(matrix, objective, mode,
                           OracleConfig(samples=samples, refine_iters=5, restarts=restarts,
                                        seed=14))
                    for objective, mode, samples, restarts in (
                        ("sectional", "min", 2049, 3), ("sectional", "max", 150, 17),
                        ("isotropic", "min", 4096, 20), ("biorthogonal", "min", 199, 1),
                        ("biorthogonal", "max", 3000, 201), ("sectional", "min", 12, 5),
                        ("biorthogonal", "min", 500, 0))]
        starts = _coarse_starts(searches, matrix[None], [0] * len(searches))
        frames, values = _coarse_samples(14, 4096, [(s.objective, matrix) for s in searches])
        for s, raw, (got_frames, got_values) in zip(searches, values, starts):
            signed = s.sign * raw[:s.cfg.samples]
            if s.cfg.restarts:
                rows = reference_select_candidates(np.ascontiguousarray(frames[:s.cfg.samples]),
                                                   signed, s.cfg.restarts,
                                                   s.objective == "isotropic")
            else:
                rows = [int(np.argmin(signed))]
            assert got_frames.tobytes() == np.ascontiguousarray(frames[rows]).tobytes()
            assert got_values.tobytes() == signed[rows].tobytes()


def unit_directions(seed: int, shape) -> np.ndarray:
    omega = RngStream(seed).generator().standard_normal(shape + (6,))
    return omega / np.linalg.norm(omega, axis=-1, keepdims=True)


class TestPerturbations:
    """The refine phase's moves: frames rotated by bounded-angle rotations."""

    FRAMES = random_frames(RngStream(2), 5)

    def step(self, omega):
        return _rotated(self.FRAMES, rotation_from_generator(omega))

    def test_zero_step_is_identity(self):
        assert np.array_equal(self.step(np.zeros((5, 6))), self.FRAMES)

    @pytest.mark.parametrize("step", [1e-6, 0.01, 0.3, 2.0])
    def test_output_is_orthonormal(self, step):
        moved = self.step(step * unit_directions(3, (5,)))
        gram = np.einsum("kmi,kni->kmn", moved, moved)
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-12

    def test_small_step_moves_little(self):
        moved = self.step(1e-8 * unit_directions(3, (5,)))
        assert np.max(np.abs(moved - self.FRAMES)) <= 1e-7


def derivatives(objective, matrices, frames, owner):
    """The polish's gradient and Hessian of each frame on its operator
    ``matrices[owner[i]]``."""
    return _derivatives(_jet_values(objective, _jets(matrices), frames, owner))


class TestFrameForms:
    """The polish's operator side: the frame form P(F) with <P(F), M> the
    objective of M at F, and the jets that give its exact derivatives."""

    # Random tensors, then the sphere, cp2 and the flat tensor.
    MATRICES = np.concatenate([trial_matrices(4, range(6)),
                               np.stack([sphere(1.0).matrix, cp2(1.0).matrix, flat().matrix])])
    SCALE = np.max(np.abs(MATRICES), axis=(1, 2))
    FRAMES = random_frames(RngStream(9), 45)
    OWNER = np.arange(45) % len(MATRICES)
    REFERENCE = {"sectional": lambda m, f: ref.sectional(m, f[0], f[1]),
                 "biorthogonal": lambda m, f: ref.biorthogonal(m, f[0], f[1]),
                 "isotropic": ref.isotropic}

    @pytest.mark.parametrize("objective", sorted(_OBJECTIVES))
    def test_form_pairs_to_the_objective(self, objective):
        m = self.MATRICES[self.OWNER]
        got = np.einsum("fab,fab->f", _frame_form(objective, self.FRAMES), m)
        want = _evaluate(objective, m, self.FRAMES[:, None])[:, 0]
        assert np.all(np.abs(got - want) <= 1e-14 * self.SCALE[self.OWNER])
        # Both read one table of terms: check its coefficients independently.
        expected = [self.REFERENCE[objective](mi, f) for mi, f in zip(m, self.FRAMES)]
        assert np.all(np.abs(want - expected) <= 1e-14 * self.SCALE[self.OWNER])
        assert not got[self.OWNER == len(self.MATRICES) - 1].any()   # flat: exactly 0

    @pytest.mark.parametrize("objective", sorted(_OBJECTIVES))
    def test_form_is_symmetric(self, objective):
        form = _frame_form(objective, self.FRAMES)
        assert np.array_equal(form, np.swapaxes(form, -1, -2))

    # Central differences of the objective at the frames rotated by
    # exp(sum w_k X_k), step h = 1e-3, about w = 0.  Against the exact jets
    # their error is their O(h^2) truncation, at most 10.2 h^2 max|M| here
    # (isotropic Hessian), and the same multiple of h^2 at h = 1e-2 and 5e-4.
    FD_STEP = 1e-3

    @pytest.mark.parametrize("objective", sorted(_OBJECTIVES))
    def test_jets_match_central_differences(self, objective):
        h, eye = self.FD_STEP, np.eye(6)
        i, j = np.triu_indices(6)
        # w = +-h e_i, then +-h (e_i + e_j) and +-h (e_i - e_j) for i <= j
        steps = h * np.concatenate([eye, -eye, eye[i] + eye[j], -eye[i] - eye[j],
                                    eye[i] - eye[j], eye[j] - eye[i]])
        rotated = _rotated(self.FRAMES[:, None], rotation_from_generator(steps))
        values = _evaluate(objective, self.MATRICES[self.OWNER], rotated)
        plus, minus = values[:, :6], values[:, 6:12]
        sums = values[:, 12:33] + values[:, 33:54] - values[:, 54:75] - values[:, 75:]
        fd_hess = np.zeros((45, 6, 6))
        fd_hess[:, i, j] = fd_hess[:, j, i] = sums / (4.0 * h * h)
        grad, hess = derivatives(objective, self.MATRICES, self.FRAMES, self.OWNER)
        bound = 16.0 * h * h * self.SCALE[self.OWNER]
        assert np.all(np.max(np.abs(grad - (plus - minus) / (2.0 * h)), axis=1) <= bound)
        assert np.all(np.max(np.abs(hess - fd_hess), axis=(1, 2)) <= bound)
        flat = self.OWNER == len(self.MATRICES) - 1
        assert not grad[flat].any() and not hess[flat].any()

    @pytest.mark.parametrize("objective", sorted(_OBJECTIVES))
    def test_jet_values_do_not_depend_on_the_places(self, objective):
        # The polish contracts fewer places, and fewer operators, as frames
        # stop: each frame's values must keep their bytes.
        jets = _jets(self.MATRICES)
        full = _jet_values(objective, jets, self.FRAMES, self.OWNER)
        for i, (frame, owner) in enumerate(zip(self.FRAMES, self.OWNER)):
            alone = _jet_values(objective, jets[owner:owner + 1], frame[None], np.zeros(1, int))
            assert alone.tobytes() == full[i].tobytes()
        live = np.flatnonzero(self.OWNER < 3)[::2]
        part = _jet_values(objective, jets[:3], self.FRAMES[live], self.OWNER[live])
        assert part.tobytes() == full[live].tobytes()

    def test_sectional_jets_vanish_on_the_unit_sphere(self):
        # Every plane has curvature 1, so every derivative is exactly 0.
        grad, hess = derivatives("sectional", sphere(1.0).matrix[None], self.FRAMES,
                                 np.zeros(45, dtype=int))
        assert not grad.any() and not hess.any()


class TestDerivations:
    """D_k, the action on 2-forms of the k-th generator of rotation_from_generator."""

    def test_antisymmetric(self):
        assert np.array_equal(np.swapaxes(_DERIVATIONS, 1, 2), -_DERIVATIONS)

    def test_derivative_of_the_second_wedge_of_the_rotation(self):
        # (Lambda^2 exp(t X_k) - Lambda^2 exp(-t X_k)) / 2t, truncation O(t^2);
        # row (a, b) of Lambda^2 Q is Q[a] ^ Q[b].
        t = 1e-5
        rots = rotation_from_generator(t * np.concatenate([np.eye(6), -np.eye(6)]))
        a, b = np.array(PAIRS).T
        lam = wedge(rots[:, a], rots[:, b])
        assert np.max(np.abs((lam[:6] - lam[6:]) / (2.0 * t) - _DERIVATIONS)) <= 1e-10


class TestNewtonPolish:
    @pytest.mark.parametrize("objective", ["sectional", "biorthogonal"])
    def test_frame_near_cp2_minimizing_plane_polishes_to_one(self, objective):
        # span(e0, e2) is a totally real plane of cp2(1), where both objectives are 1.
        plane = np.eye(4)[[0, 2, 1, 3]]
        frames = _rotated(plane, rotation_from_generator(1e-3 * unit_directions(8, (1,))))
        m = cp2(1.0).matrix[None]
        values = _evaluate(objective, m, frames[:, None])[:, 0]
        assert values[0] - 1.0 > 1e-8
        evaluations, converged = _polish(objective, m, np.zeros(1, dtype=int), np.ones(1),
                                         frames, values, np.array([200]))
        assert abs(values[0] - 1.0) <= 1e-14
        assert _STEP_EVALUATIONS <= evaluations[0] < _STEP_EVALUATIONS * 200 and converged[0]
        assert _evaluate(objective, m, frames[:, None])[0, 0] == values[0]

    def test_far_restarts_reach_a_stationary_point(self):
        # From these 300 coarse candidates, uncapped Newton steps overshoot and
        # leave 24 frames stopped where the gradient is still large.
        searches = [Search(m, "sectional", mode, OracleConfig(samples=4000, seed=i))
                    for i, m in enumerate(trial_matrices(1, range(50))) for mode in MODES]
        starts = [_coarse_starts([s], s.matrix[None], [0])[0] for s in searches]
        frames = np.concatenate([f for f, _ in starts])
        values = np.concatenate([v for _, v in starts])
        owner = np.repeat(np.arange(len(searches)), [len(v) for _, v in starts])
        _, converged = _polish(
            "sectional", np.stack([s.matrix for s in searches]), owner,
            np.array([s.sign for s in searches])[owner], frames, values, np.full(len(values), 200))
        assert len(values) == 300 and converged.all()

    @pytest.mark.parametrize("objective", sorted(_OBJECTIVES))
    def test_flat_directions_stay_inside_the_rounding_band(self, objective):
        # Rotating within span(f0, f1) or span(f2, f3) leaves every objective
        # unchanged, so the Hessian vanishes on span{f0^f1, f2^f3}; at
        # polished frames the exact Hessian's rounding there stays near
        # float64 precision (measured: 3.3e-15 max|M|).
        matrices = trial_matrices(5, range(40))
        searches = [Search(m, objective, mode, OracleConfig(samples=2048, seed=i))
                    for i, m in enumerate(matrices) for mode in MODES]
        ids = np.arange(len(searches)) // 2
        out = _refine(searches, matrices, ids,
                      [_coarse_starts([s], matrices, [i])[0] for s, i in zip(searches, ids)])
        frames = np.stack([frame for _, frame, _, _ in out])
        m = np.stack([s.matrix for s in searches])
        _, hess = derivatives(objective, matrices, frames, ids)
        flat_dirs = np.stack([wedge(frames[:, 0], frames[:, 1]),
                              wedge(frames[:, 2], frames[:, 3])], axis=-1)
        reduced = np.einsum("fia,fij,fjb->fab", flat_dirs, hess, flat_dirs)
        worst = np.max(np.abs(np.linalg.eigvalsh(reduced)), axis=1)
        assert np.all(worst <= 1e-13 * np.max(np.abs(m), axis=(1, 2)))

    # tracemalloc peak of the polish of one verify block (100 trials, min and
    # max, 600 frames) on one thread: 2.4 MB, of which 0.8 MB are the 100
    # operators' jets.  Gathering each frame's 27 jets would alone add 4.7 MB.
    POLISH_PEAK_BOUND = 3e6

    def test_verify_block_polish_memory(self, monkeypatch):
        """The block's polishes, one per worker, traced together from the
        first entry to the last exit, since tracemalloc counts every thread."""
        built, peaks = [], []
        jets, refine = oracle._jets, oracle._refine
        lock = threading.Lock()

        def counting(matrices):
            built.append([m.tobytes() for m in matrices])
            return jets(matrices)

        def measured(*args):
            with lock:
                if not tracemalloc.is_tracing():
                    tracemalloc.start()
            try:
                return refine(*args)
            finally:
                with lock:
                    peaks.append(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(oracle, "_jets", counting)
        monkeypatch.setattr(oracle, "_refine", measured)
        try:
            _run_trials(1, range(TRIAL_BLOCK), OracleConfig(samples=DEFAULT_SAMPLES))
        finally:
            tracemalloc.stop()
        # Each operator's jets are built once: a trial's min and max share it.
        operators = [m for call in built for m in call]
        assert len(operators) == len(set(operators)) == TRIAL_BLOCK
        assert 1 <= len(peaks) <= oracle._MAX_WORKERS
        assert max(peaks) <= self.POLISH_PEAK_BOUND

    def test_step_cap_leaves_search_unconverged(self):
        op = random_bianchi(61)
        capped, free = extremize_batch([
            Search(op.matrix, "biorthogonal", "min",
                   OracleConfig(samples=2000, refine_iters=1, restarts=2, seed=3)),
            Search(op.matrix, "biorthogonal", "min",
                   OracleConfig(samples=2000, refine_iters=200, restarts=2, seed=3))])
        assert not capped.converged
        assert free.converged
        assert free.value < capped.value

    # (verify seed, trial, samples) where the positive-part Newton step alone
    # stops every restart of the min search where the gradient is large and
    # the Hessian indefinite, since it skips every negative direction: the
    # search then ends 0.099 and 1.02e-3 above k1.
    STALLS = [(1000025, 65, 256), (7919023844, 47, 2048)]

    @staticmethod
    def stalled_search(seed: int, trial: int, samples: int) -> Search:
        """The min search of one verify trial, seeded as verify seeds it."""
        cfg = OracleConfig(samples=samples, seed=int(derive_seeds(seed, [trial], 1)[0]))
        return Search(trial_matrices(seed, [trial])[0], "biorthogonal", "min", cfg)

    @pytest.mark.parametrize("seed, trial, samples", STALLS)
    def test_stalled_restarts_descend_to_k1(self, seed, trial, samples):
        search = self.stalled_search(seed, trial, samples)
        res, = extremize_batch([search])
        k1 = CurvatureOperator(matrix=search.matrix).invariants.k[0, 0]
        assert abs(res.value - k1) <= 1e-12 * np.max(np.abs(search.matrix))
        assert res.converged

    def test_evaluations_count_every_frame_evaluated(self, monkeypatch):
        # 2 per Newton step (the jet contraction, which reads the frame form,
        # and the trial frame) and one per fallback trial, which these
        # restarts take.
        search = self.stalled_search(*self.STALLS[0])
        (frames, values), = _coarse_starts([search], search.matrix[None], [0])
        evaluated = []
        def counting(objective, m, f):
            evaluated.append(int(np.prod(f.shape[:-2])))
            return _evaluate(objective, m, f)

        def counting_form(objective, f):
            evaluated.append(int(np.prod(f.shape[:-2])))
            return _frame_form(objective, f)

        monkeypatch.setattr(oracle, "_evaluate", counting)
        monkeypatch.setattr(oracle, "_frame_form", counting_form)
        evaluations, converged = _polish("biorthogonal", search.matrix[None],
                                         np.zeros(len(values), dtype=int), np.ones(len(values)),
                                         frames, values, np.full(len(values), 200))
        assert evaluations.sum() == sum(evaluated)
        assert np.any(evaluations % _STEP_EVALUATIONS) and converged.all()

    def test_known_near_degenerate_miss_is_closed(self):
        # Trial 2 of this run has w2+ = 1.189 and w3+ = 1.220; a random-direction
        # climb stopped 4.1e-6 short of k3 there.
        report = run_verification(trials=5, seed=101000309)
        assert report.passed
        for rec in report.records:
            assert abs(rec.oracle_min - rec.k1) <= 1e-12 * (1.0 + abs(rec.k1))
            assert abs(rec.oracle_max - rec.k3) <= 1e-12 * (1.0 + abs(rec.k3))


class TestIsotropic:
    def test_unit_sphere_value(self):
        res, = extremize_batch([Search(sphere(1.0).matrix, "isotropic", "min",
                                       OracleConfig(seed=3))])
        assert res.value == pytest.approx(4.0, abs=1e-9)

    def test_cp2_is_borderline(self):
        res, = extremize_batch([Search(cp2(1.0).matrix, "isotropic", "min", OracleConfig(seed=3))])
        assert abs(res.value) <= 1e-4

    def test_product_is_borderline(self):
        op = product_surfaces(1.0, 1.0)
        res, = extremize_batch([Search(op.matrix, "isotropic", "min", OracleConfig(seed=3))])
        assert abs(res.value) <= 1e-4

    def test_standard_frame_value_on_product(self):
        # the frame aligned with the two factors realizes zero
        m = product_surfaces(1.0, 1.0).matrix
        assert ref.isotropic(m, np.eye(4)) == 0.0
        assert _evaluate("isotropic", m, np.eye(4)[None])[0] == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_sign_matches_eigenvalue_criterion(self, seed):
        op = random_bianchi(seed + 40)
        inv = op.invariants
        s, wp, wm = float(inv.s[0]), inv.weyl_plus[0], inv.weyl_minus[0]
        margin = min(s / 6.0 - wp[2], s / 6.0 - wm[2])
        assert abs(margin) > 1e-3  # these seeds are far from the borderline
        res, = extremize_batch([Search(op.matrix, "isotropic", "min", OracleConfig(seed=seed))])
        assert np.sign(res.value) == np.sign(margin)
        # the isotropic identity min_iso = 2 min(s/6 - w3+, s/6 - w3-)
        assert abs(res.value - 2.0 * margin) <= 1e-10 * (1.0 + np.max(np.abs(op.matrix)))


class TestBudgetAccounting:
    def test_samples_used_counts_all_evaluations(self):
        # 2 evaluations per Newton step: the jet contraction and the trial
        # frame.  These restarts take no fallback step, which would add one
        # per trial.
        op = random_bianchi(57)
        capped, free = extremize_batch([
            Search(op.matrix, "sectional", "max",
                   OracleConfig(samples=1000, refine_iters=cap, restarts=2, seed=0))
            for cap in (1, 200)])
        assert capped.samples_used == 1000 + _STEP_EVALUATIONS * 2
        steps, rest = divmod(free.samples_used - 1000, _STEP_EVALUATIONS)
        assert rest == 0 and 2 * 2 <= steps <= 2 * 200

    def test_witness_value_is_between_bounds(self):
        op = random_bianchi(55)
        k1, _, k3 = op.invariants.k[0].tolist()
        res, = extremize_batch([Search(op.matrix, "biorthogonal", "min", SMALL)])
        assert k1 - 1e-9 <= res.value <= k3 + 1e-9
        assert ref.biorthogonal(op.matrix, res.witness[0], res.witness[1]) == pytest.approx(
            res.value, abs=1e-12)


def summary(res: ExtremumResult) -> tuple:
    """A result's value, witness, evaluation count and convergence, as bytes
    where they are floats."""
    return (np.float64(res.value).tobytes(), res.witness.tobytes(), res.samples_used,
            res.converged)


def verify_style(samples: int) -> list[Search]:
    """Biorthogonal min and max of several tensors, one oracle seed each."""
    return [Search(random_bianchi(60 + seed).matrix, "biorthogonal", mode,
                   OracleConfig(samples=samples, refine_iters=20, restarts=2, seed=seed))
            for seed in (11, 12, 13) for mode in MODES]


def analyze_style(samples: int) -> list[Search]:
    """Sectional min and max plus the isotropic min of one tensor, one seed."""
    matrix = random_bianchi(64).matrix
    cfg = OracleConfig(samples=samples, refine_iters=20, restarts=2, seed=14)
    return [Search(matrix, "sectional", "min", cfg), Search(matrix, "sectional", "max", cfg),
            Search(matrix, "isotropic", "min", cfg)]


def _send_summaries(searches, sender):
    sender.send([summary(res) for res in extremize_batch(searches)])
    sender.close()


class TestScheduling:
    """Oracle work shared by the calling thread and the helper threads started
    for one call: whole seed groups, each with its polish, when a batch has
    several, and one group's chunks when it has one.  The same bytes for any
    CPU count, no thread outliving the call, and a worker's exception passed
    on.  Workers take items as they come free, so no test asserts which
    thread took which item."""

    @staticmethod
    def record_threads(monkeypatch) -> dict[bytes, set[int]]:
        """Make every coarse objective call (one (6, 6) matrix) add its thread
        to the returned set for that matrix."""
        seen: dict[bytes, set[int]] = {}

        def recorded(objective, m, frames):
            if m.ndim == 2:
                seen.setdefault(m.tobytes(), set()).add(threading.get_ident())
            return _evaluate(objective, m, frames)

        monkeypatch.setattr(oracle, "_evaluate", recorded)
        return seen

    @staticmethod
    def record_helpers(monkeypatch) -> list[threading.Thread]:
        """Make every thread started through ``threading.Thread`` append
        itself to the returned list."""
        started: list[threading.Thread] = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recorded)
        return started

    @staticmethod
    def first_items_wait(monkeypatch, workers: int, fail_on: str | None = None) -> None:
        """Make each worker's first objective call wait until ``workers``
        workers hold an item; then the worker ``fail_on`` ("caller" or
        "helper") raises."""
        caller = threading.get_ident()
        started: set[int] = set()
        all_started = threading.Barrier(workers)

        def waiting(objective, m, frames):
            me = threading.get_ident()
            if me not in started:
                started.add(me)
                all_started.wait(60)
                worker = "caller" if me == caller else "helper"
                if worker == fail_on:
                    raise RuntimeError(f"{worker} item failed")
            return _evaluate(objective, m, frames)

        monkeypatch.setattr(oracle, "_evaluate", waiting)

    @pytest.mark.parametrize("samples", [1, 2048, 2049, 4097, 20000])
    @pytest.mark.parametrize("batch", [verify_style, analyze_style])
    def test_results_do_not_depend_on_cpu_count(self, monkeypatch, batch, samples):
        searches = batch(samples)
        monkeypatch.setattr(oracle, "_cpu_count", lambda: 1)
        helpers = self.record_helpers(monkeypatch)
        serial = [summary(res) for res in extremize_batch(searches)]
        assert helpers == []
        groups = len({s.cfg.seed for s in searches})  # verify_style 3, analyze_style 1
        items = groups if groups > 1 else -(-samples // oracle.SAMPLE_CHUNK)
        # Lift the thread cap so that up to 11 workers run.
        monkeypatch.setattr(oracle, "_MAX_WORKERS", 11)
        seen = self.record_threads(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for cpus in (2, 3, 11):
                monkeypatch.setattr(oracle, "_cpu_count", lambda: cpus)
                seen.clear()
                helpers.clear()
                threads = threading.active_count()
                assert [summary(res) for res in extremize_batch(searches)] == serial, cpus
                assert threading.active_count() == threads
                workers = min(cpus, items)
                assert len(helpers) == workers - 1
                assert not any(t.is_alive() for t in helpers)
                assert len(set().union(*seen.values())) <= workers
        finally:
            sys.setswitchinterval(interval)

    def test_each_group_runs_on_one_thread(self, monkeypatch):
        """A group's coarse pass and the polish of its searches."""
        monkeypatch.setattr(oracle, "_cpu_count", lambda: 2)
        seen = self.record_threads(monkeypatch)
        jets = oracle._jets

        def recorded(matrices):
            for m in matrices:
                seen.setdefault(m.tobytes(), set()).add(threading.get_ident())
            return jets(matrices)

        monkeypatch.setattr(oracle, "_jets", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            extremize_batch(verify_style(20000))
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 3  # one matrix per seed group
        assert all(len(threads) == 1 for threads in seen.values())
        assert len(set().union(*seen.values())) <= 2

    @staticmethod
    def many_groups(count: int) -> list[list[Search]]:
        """``count`` seed groups: the biorthogonal min and max of one tensor each."""
        return [[Search(random_bianchi(70 + g).matrix, "biorthogonal", mode,
                        OracleConfig(samples=2049, refine_iters=5, restarts=3, seed=100 + g))
                 for mode in MODES] for g in range(count)]

    def test_two_workers_pulling_twelve_groups_each(self):
        """Two plain threads, each drawing its groups through its own
        generator at once, give the bytes of every group run alone."""
        groups = self.many_groups(24)

        def starts(group):
            out = _coarse_starts(group, np.stack([s.matrix for s in group]), [0, 1])
            return [(f.tobytes(), v.tobytes()) for f, v in out]

        serial = [starts(group) for group in groups]
        got: dict[int, list] = {}
        begin = threading.Barrier(2)

        def worker(w):
            begin.wait(timeout=30)
            got[w] = [starts(group) for group in groups[w::2]]

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got[0] == serial[0::2] and got[1] == serial[1::2]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_one_generator_per_worker(self, monkeypatch, cpus):
        """Each drawing thread builds at most one generator: a helper one for
        the call, the calling thread none once it has drawn."""
        monkeypatch.setattr(oracle, "_cpu_count", lambda: cpus)
        random_frames(RngStream(0), 1)  # the calling thread has drawn
        made, drew = [], set()
        philox, draw = np.random.Philox, oracle.random_frames

        def counting(*args, **kwargs):
            made.append(threading.get_ident())
            return philox(*args, **kwargs)

        def drawing(*args, **kwargs):
            drew.add(threading.get_ident())
            return draw(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        monkeypatch.setattr(oracle, "random_frames", drawing)
        searches = [s for group in self.many_groups(12) for s in group]
        results = extremize_batch(searches)
        assert len(made) == len(set(made))
        assert set(made) == drew - {threading.get_ident()}
        assert len(drew) <= cpus
        assert len(results) == 24

    def test_workers_are_capped(self, monkeypatch):
        monkeypatch.setattr(oracle, "_cpu_count", lambda: 11)
        helpers = self.record_helpers(monkeypatch)
        threads = threading.active_count()
        for batch in (verify_style, analyze_style):
            extremize_batch(batch(20000))
        assert len(helpers) == 2 * (oracle._MAX_WORKERS - 1) == 2
        assert threading.active_count() == threads

    def test_cpu_count_follows_affinity_then_cpu_count(self, monkeypatch):
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert oracle._cpu_count() == 3
        monkeypatch.delattr(oracle.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 5)
        assert oracle._cpu_count() == 5
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)
        assert oracle._cpu_count() == 1

    @pytest.mark.parametrize("failing_worker, cpus", [("helper", 2), ("caller", 2),
                                                      ("caller", 1)])
    def test_worker_exception_propagates(self, monkeypatch, failing_worker, cpus):
        """Raised in a seed group (verify_style) or in a chunk (analyze_style),
        on the helper or on the calling thread.  With two CPUs both workers
        hold an item before one of them raises, and the exception leaves the
        call only once the other has stopped."""
        monkeypatch.setattr(oracle, "_cpu_count", lambda: cpus)
        helpers = self.record_helpers(monkeypatch)
        threads = threading.active_count()
        for batch in (verify_style, analyze_style):
            helpers.clear()
            self.first_items_wait(monkeypatch, cpus, failing_worker)
            with pytest.raises(RuntimeError, match=f"{failing_worker} item failed"):
                extremize_batch(batch(4097))
            assert len(helpers) == cpus - 1
            assert not any(t.is_alive() for t in helpers)
            assert threading.active_count() == threads

    def test_helper_polish_exception_propagates(self, monkeypatch):
        """A helper's polish (:func:`_refine` off the calling thread) that
        raises, in a verify_style batch where both workers hold a group: the
        exception leaves the call once the caller's own polish has run."""
        monkeypatch.setattr(oracle, "_cpu_count", lambda: 2)
        caller = threading.get_ident()
        self.first_items_wait(monkeypatch, 2)
        refine, polished = oracle._refine, []

        def failing(*args):
            polished.append(threading.get_ident())
            if threading.get_ident() != caller:
                raise RuntimeError("helper polish failed")
            return refine(*args)

        monkeypatch.setattr(oracle, "_refine", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="helper polish failed"):
            extremize_batch(verify_style(2048))
        assert threading.active_count() == threads
        assert caller in polished and len(set(polished)) == 2

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method on this platform")
    def test_forked_child_after_a_call(self, monkeypatch):
        monkeypatch.setattr(oracle, "_cpu_count", lambda: 2)
        searches = analyze_style(4097)
        parent = [summary(res) for res in extremize_batch(searches)]
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_send_summaries, args=(searches, sender))
        child.start()
        sender.close()
        try:
            assert receiver.poll(60), "the forked child's search did not finish"
            assert receiver.recv() == parent
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join(10)
        assert not child.is_alive() and child.exitcode == 0
