"""The batched invariants pass against its one-operator views."""

import numpy as np
import pytest

from curv4 import verify
from curv4.analyzer import AnalyzeConfig, analyze
from curv4.core import (CurvatureOperator, from_matrix, invariants, lambda_blocks, norm_max,
                        operator_from_blocks)
from curv4.errors import ValidationError
from curv4.io import report_to_dict
from curv4.models import ModelSpec, make_operator
from curv4.numerics import RngStream, derive_seed
from curv4.oracle import OracleConfig, Search, extremize_batch
from curv4.verify import TRIAL_BLOCK, run_scan, run_verification, trial_matrices

THIRD = 1.0 / 3.0

#: model -> (s, Weyl+ spectrum, Weyl- spectrum, biorthogonal spectrum)
GOLDEN = {
    "sphere": (12.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
    "space_form": (12.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
    "product_surfaces": (4.0, (-THIRD, -THIRD, 2 * THIRD), (-THIRD, -THIRD, 2 * THIRD),
                         (0.0, 0.0, 1.0)),
    "cp2": (24.0, (-2.0, -2.0, 4.0), (0.0, 0.0, 0.0), (1.0, 1.0, 4.0)),
    "r_times_s3": (6.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.5, 0.5, 0.5)),
    "flat": (0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
}


def assert_row_matches_views(inv, i, op):
    """Row i of a scan's invariants pass holds what the one-operator views of
    ``op`` (its own one-row pass and its report) give."""
    one = op.invariants
    doc = report_to_dict(analyze(op))
    assert (inv.s[i], inv.weyl_plus[i, 2], inv.weyl_minus[i, 2]) == \
        (one.s[0], one.weyl_plus[0, 2], one.weyl_minus[0, 2])
    assert tuple(inv.k[i]) == tuple(one.k[0].tolist())
    assert (inv.hypothesis_a[i], inv.hypothesis_b[i], inv.nnic[i]) == \
        (doc["hypothesis_A"]["holds"], doc["hypothesis_B"]["holds"], doc["nnic"]["holds"])


def ensemble():
    named = [make_operator(ModelSpec(name)) for name in GOLDEN]
    shifted = [from_matrix(trial_matrices(5, [i])[0] + 0.5 * i * np.eye(6)) for i in range(8)]
    return named + [CurvatureOperator(matrix=m) for m in trial_matrices(3, range(12))] + shifted


class TestBatchMatchesViews:
    def test_rows_equal_one_operator_views(self):
        ops = ensemble()
        inv = invariants(np.stack([op.matrix for op in ops]))
        assert len(inv.s) == len(ops)
        for i, op in enumerate(ops):
            one = op.invariants
            assert one.s[0] == inv.s[i]
            assert np.array_equal(one.weyl_plus[0], inv.weyl_plus[i])
            assert np.array_equal(one.weyl_minus[0], inv.weyl_minus[i])
            assert np.array_equal(one.wplus[0], inv.wplus[i])
            assert tuple(one.k[0].tolist()) == tuple(inv.k[i])
            doc = report_to_dict(analyze(op))
            hyp_a, hyp_b, nnic = doc["hypothesis_A"], doc["hypothesis_B"], doc["nnic"]
            assert (hyp_a["margin"], hyp_b["margin"]) == (inv.margin_a[i], inv.margin_b[i])
            assert (hyp_a["holds"], hyp_b["holds"], doc["scalar_positive"]) == \
                (inv.hypothesis_a[i], inv.hypothesis_b[i], inv.scalar_positive[i])
            assert (nnic["holds"], nnic["margin_plus"], nnic["margin_minus"]) == \
                (inv.nnic[i], inv.margin_plus[i], inv.margin_minus[i])
            assert tuple(doc["biortho_spectrum"][key] for key in ("k1", "k2", "k3")) == \
                tuple(inv.k[i])
            assert tuple(doc["weyl_plus"]) == tuple(inv.weyl_plus[i])

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_table_through_batch_and_views(self, name):
        s, wplus, wminus, k = GOLDEN[name]
        op = make_operator(ModelSpec(name))
        inv = invariants(np.stack([trial_matrices(1, [0])[0], op.matrix]))
        one = op.invariants
        for got_s, got_wp, got_wm, got_k in (
                (inv.s[1], inv.weyl_plus[1], inv.weyl_minus[1], inv.k[1]),
                (one.s[0], one.weyl_plus[0], one.weyl_minus[0], one.k[0])):
            assert got_s == pytest.approx(s, abs=1e-12)
            assert tuple(got_wp) == pytest.approx(wplus, abs=1e-12)
            assert tuple(got_wm) == pytest.approx(wminus, abs=1e-12)
            assert tuple(got_k) == pytest.approx(k, abs=1e-12)

    def test_cp2_doubled_eigenvalue_sits_on_the_hypothesis_a_boundary(self):
        inv = invariants(make_operator(ModelSpec("cp2")).matrix[None])
        assert abs(inv.margin_a[0]) <= 1e-12 and inv.hypothesis_a[0]
        assert inv.margin_plus[0] == pytest.approx(0.0, abs=1e-12) and inv.nnic[0]

    def test_scan_rows_equal_scan_row_views(self):
        report = run_scan(ModelSpec("random_bianchi", (1.0,)), trials=30, seed=4)
        assert len(report.invariants.s) == 30
        for i in range(30):
            assert_row_matches_views(report.invariants, i,
                                     CurvatureOperator(matrix=trial_matrices(4, [i])[0]))

    def test_deterministic_model_scan_repeats_one_row(self):
        report = run_scan(ModelSpec("cp2"), trials=3, seed=0)
        op = make_operator(ModelSpec("cp2"))
        assert len(report.invariants.s) == 3
        for i in range(3):
            assert_row_matches_views(report.invariants, i, op)

    def test_rejects_non_stack(self):
        with pytest.raises(ValidationError):
            invariants(np.eye(6))

    def test_rejects_a_row_whose_invariants_overflow(self):
        # s = 12 * 3e307 overflows; so would the eigensolve of its Weyl blocks.
        with pytest.raises(ValidationError, match="matrix 1 is too large"):
            invariants(np.stack([np.eye(6), 3e307 * np.eye(6)]))

    def test_arrays_are_read_only(self):
        inv = invariants(np.eye(6)[None])
        with pytest.raises(ValueError):
            inv.k[0, 0] = 2.0


class TestVerifyBlockPass:
    """verify takes one stacked invariants pass per block of trials, and
    every trial reads its row of it."""

    def test_one_pass_per_block(self, monkeypatch):
        calls = []

        def counting(matrices):
            calls.append(len(matrices))
            return invariants(matrices)

        monkeypatch.setattr(verify, "invariants", counting)
        trials = TRIAL_BLOCK + 7
        tiny = OracleConfig(samples=64, refine_iters=2, restarts=1)
        report = run_verification(trials, seed=3, oracle=tiny)
        # One stacked pass per block; no record recomputes its trial's row.
        assert len(report.records) == trials
        assert calls == [TRIAL_BLOCK, 7]

    def test_trial_rows_equal_one_row_passes(self):
        matrices = trial_matrices(9, range(40))
        inv = invariants(matrices)
        for i, m in enumerate(matrices):
            row = inv.row(i)
            alone = invariants(m[None])
            for name, col in vars(row).items():
                assert col.shape == getattr(alone, name).shape
                assert np.array_equal(np.ascontiguousarray(col).view(np.uint8),
                                      np.ascontiguousarray(getattr(alone, name)).view(np.uint8))
                assert not col.flags.writeable
            assert_row_matches_views(row, 0, CurvatureOperator(matrix=m))


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def entrywise_blocks(m):
    """A+, A- and C of every matrix of a stack, one entry at a time: (AA + sc AB
    + sr BA + (sr sc) BB) / 2 with the block's row and column signs, then A+
    and A- symmetrized."""
    a, b = (0, 1, 2), (5, 4, 3)
    plus = np.array([1.0, -1.0, 1.0])
    blocks = []
    for srow, scol in ((plus, plus), (-plus, -plus), (plus, -plus)):
        block = np.empty(m.shape[:-2] + (3, 3))
        for i in range(3):
            for j in range(3):
                block[..., i, j] = (m[..., a[i], a[j]] + scol[j] * m[..., a[i], b[j]]
                                    + srow[i] * m[..., b[i], a[j]]
                                    + srow[i] * scol[j] * m[..., b[i], b[j]]) / 2.0
        blocks.append(block)
    for w in blocks[:2]:
        w[...] = (w + np.swapaxes(w, -1, -2)) / 2.0
    return blocks


def wide_range_stack(seed: int, n: int = 300) -> np.ndarray:
    """Asymmetric 6x6 matrices whose entries span 1e-320..1e300 within and
    across rows (the first rows subnormal, where halving rounds), the last
    rows holding entries near the float64 limit whose block sums overflow to
    +-inf and meet as NaN."""
    gen = RngStream(seed).generator()
    exponents = gen.uniform(-280, 280, (n, 1, 1)) + gen.uniform(-20, 20, (n, 6, 6))
    exponents[:20] = gen.uniform(-320, -308, (20, 6, 6))
    m = gen.standard_normal((n, 6, 6)) * 10.0 ** exponents
    m[-40:] = np.copysign(1.7e308, m[-40:])
    return m


class TestStackedBlocks:
    """The stacked gather and sign expression give the entrywise blocks, and
    the one stacked eigensolve gives each Weyl half's own spectra, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_blocks_equal_the_entrywise_formula(self, seed):
        m = wide_range_stack(seed)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = lambda_blocks(m), entrywise_blocks(m)
        assert np.isnan(want[0][-40:]).any() and np.isinf(want[2][-40:]).any()
        for mine, ref in zip(got, want):
            assert mine.shape == (len(m), 3, 3)
            assert np.array_equal(bits(mine), bits(ref))

    @pytest.mark.parametrize("row", [0, 150, 299])   # subnormal, wide, overflowing
    def test_one_matrix_equals_the_entrywise_formula(self, row):
        m = wide_range_stack(3)[row]
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = lambda_blocks(m), entrywise_blocks(m)
        for mine, ref in zip(got, want):
            assert mine.shape == (3, 3)
            assert np.array_equal(bits(mine), bits(ref))

    @pytest.mark.parametrize("n", [1, 100])
    def test_one_eigensolve_equals_two(self, n):
        scales = np.array([1e-150, 1.0, 1e150])[np.arange(n) % 3, None, None]
        m = trial_matrices(11, range(n)) * scales
        inv = invariants(m)
        aplus, aminus, _ = entrywise_blocks(m)
        shift = (inv.s / 12.0)[:, None, None] * np.eye(3)
        for weyl, block, spectra in ((inv.wplus, aplus, inv.weyl_plus),
                                     (inv.wminus, aminus, inv.weyl_minus)):
            assert np.array_equal(bits(weyl), bits(block - shift))
            assert np.array_equal(bits(spectra), bits(np.linalg.eigvalsh(block - shift)))


def trace_free(seed: int) -> np.ndarray:
    m = trial_matrices(seed, [0])[0]
    return m - (np.trace(m) / 6.0) * np.eye(6)


class TestScaleCovariance:
    @pytest.mark.parametrize("seed", range(6))
    def test_trace_free_tensors_at_every_scale(self, seed):
        base = trace_free(derive_seed(61, seed))
        k_unit = analyze(from_matrix(base)).invariants.k[0]
        for exponent in range(-6, 10):
            c = 10.0 ** exponent
            op = from_matrix(c * base)
            k = analyze(op).invariants.k[0]
            assert np.max(np.abs(k - c * k_unit)) <= 1e-12 * norm_max(op)

    def test_batch_accepts_mixed_scales(self):
        base = trace_free(7)
        stack = np.stack([c * base for c in (1e-6, 1.0, 1e3, 1e6, 1e9)])
        inv = invariants(stack)
        assert np.all(np.abs(inv.k[:, 0] + inv.k[:, 1] + inv.k[:, 2] - inv.s / 4.0)
                      <= 1e-12 * (1.0 + np.max(np.abs(stack), axis=(1, 2))))


    @pytest.mark.parametrize("seed", range(10))
    def test_chain_holds_with_a_large_traceless_ricci_block(self, seed):
        # s = 12 and zero Weyl, so the chain applies; rounding in the Weyl
        # spectra is ~1e-8 here, far beyond 1e-12 (1 + |s|).
        off = 1e9 * RngStream(derive_seed(67, seed)).generator().standard_normal((3, 3))
        op = operator_from_blocks(np.eye(3), np.eye(3), off)
        rep = analyze(op)
        assert rep.invariants.s[0] == pytest.approx(12.0)
        assert rep.chain.applicable and rep.chain.all_satisfied, \
            [step for step in rep.chain.steps if not step.satisfied]
        assert rep.invariants.nnic[0]


def test_analyze_oracle_matches_two_single_searches():
    op = CurvatureOperator(matrix=trial_matrices(12, [0])[0])
    oracle = OracleConfig(samples=1500, refine_iters=30, seed=6)
    rep = analyze(op, AnalyzeConfig(run_oracle=True, oracle=oracle))
    for got, mode in zip(rep.sectional_extrema, ("min", "max")):
        want, = extremize_batch([Search(op.matrix, "sectional", mode, oracle)])
        assert (got.value, got.samples_used, got.converged) == \
            (want.value, want.samples_used, want.converged)
        assert np.array_equal(got.witness, want.witness)
