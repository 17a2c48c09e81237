"""The batched invariants pass against its one-operator views."""

import numpy as np
import pytest

from curv4.analyzer import AnalyzeConfig, analyze, check_nnic, check_pinching
from curv4.core import (Plane, biortho_spectrum, complement, decompose, from_matrix,
                        invariants, norm_max, operator_from_blocks)
from curv4.errors import ValidationError
from curv4.models import ModelSpec, make_operator
from curv4.numerics import RngStream, derive_seed, gram_schmidt
from curv4.oracle import OracleConfig, extremize
from curv4.verify import run_scan, scan_row, trial_operator

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


def ensemble():
    named = [make_operator(ModelSpec(name)) for name in GOLDEN]
    shifted = [from_matrix(trial_operator(5, i).matrix + 0.5 * i * np.eye(6))
               for i in range(8)]
    return named + [trial_operator(3, i) for i in range(12)] + shifted


class TestBatchMatchesViews:
    def test_rows_equal_one_operator_views(self):
        ops = ensemble()
        inv = invariants(np.stack([op.matrix for op in ops]))
        assert len(inv.s) == len(ops)
        for i, op in enumerate(ops):
            dec = decompose(op)
            wp, wm = dec.weyl_spectra()
            assert dec.s == inv.s[i]
            assert np.array_equal(wp, inv.weyl_plus[i])
            assert np.array_equal(wm, inv.weyl_minus[i])
            assert np.array_equal(dec.wplus, inv.wplus[i])
            assert biortho_spectrum(op).as_tuple() == tuple(inv.k[i])
            pc = check_pinching(op)
            assert (pc.hypothesis_a.margin, pc.hypothesis_b.margin) == \
                (inv.margin_a[i], inv.margin_b[i])
            assert (pc.hypothesis_a.holds, pc.hypothesis_b.holds, pc.scalar_positive) == \
                (inv.hypothesis_a[i], inv.hypothesis_b[i], inv.scalar_positive[i])
            nn = check_nnic(op)
            assert (nn.holds, nn.margin_plus, nn.margin_minus) == \
                (inv.nnic[i], inv.margin_plus[i], inv.margin_minus[i])
            rep = analyze(op)
            assert rep.spectrum.as_tuple() == tuple(inv.k[i])
            assert rep.weyl_plus == tuple(inv.weyl_plus[i])

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_table_through_batch_and_views(self, name):
        s, wplus, wminus, k = GOLDEN[name]
        op = make_operator(ModelSpec(name))
        inv = invariants(np.stack([trial_operator(1, 0).matrix, op.matrix]))
        dec = decompose(op)
        wp, wm = dec.weyl_spectra()
        for got_s, got_wp, got_wm, got_k in (
                (inv.s[1], inv.weyl_plus[1], inv.weyl_minus[1], inv.k[1]),
                (dec.s, wp, wm, biortho_spectrum(op).as_tuple())):
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
        for row in report.rows:
            assert row == scan_row(trial_operator(4, row.index), row.index)

    def test_deterministic_model_scan_repeats_one_row(self):
        report = run_scan(ModelSpec("cp2"), trials=3, seed=0)
        op = make_operator(ModelSpec("cp2"))
        assert all(row == scan_row(op, row.index) for row in report.rows)

    def test_rejects_non_stack(self):
        with pytest.raises(ValidationError):
            invariants(np.eye(6))

    def test_arrays_are_read_only(self):
        inv = invariants(np.eye(6)[None])
        with pytest.raises(ValueError):
            inv.k[0, 0] = 2.0


def trace_free(seed: int) -> np.ndarray:
    m = trial_operator(seed, 0).matrix
    return m - (np.trace(m) / 6.0) * np.eye(6)


class TestScaleCovariance:
    @pytest.mark.parametrize("seed", range(6))
    def test_trace_free_tensors_at_every_scale(self, seed):
        base = trace_free(derive_seed(61, seed))
        k_unit = np.array(analyze(from_matrix(base)).spectrum.as_tuple())
        for exponent in range(-6, 10):
            c = 10.0 ** exponent
            op = from_matrix(c * base)
            rep = analyze(op)
            k = np.array(rep.spectrum.as_tuple())
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
        assert rep.s == pytest.approx(12.0)
        assert rep.chain.applicable and rep.chain.all_satisfied, \
            [step for step in rep.chain.steps if not step.satisfied]
        assert rep.nnic.holds


class TestNearlyDependentSpans:
    ROWS = [np.array([0.0, 1.0, 0.0, 2.14e-7]), np.array([0.0, 1.0, 0.0, 0.0])]

    def test_gram_schmidt_stays_orthonormal(self):
        q = np.stack(gram_schmidt(self.ROWS))
        assert np.max(np.abs(q @ q.T - np.eye(2))) <= 1e-12

    def test_plane_from_span_and_complement(self):
        p = Plane.from_span(*self.ROWS)
        q = complement(p)
        frame = np.stack([p.u, p.v, q.u, q.v])
        assert np.max(np.abs(frame @ frame.T - np.eye(4))) <= 1e-12


def test_analyze_oracle_matches_two_single_searches():
    op = trial_operator(12, 0)
    oracle = OracleConfig(samples=1500, refine_iters=30, seed=6)
    rep = analyze(op, AnalyzeConfig(run_oracle=True, oracle=oracle))
    for got, mode in zip(rep.sectional_extrema, ("min", "max")):
        want = extremize(op, "sectional", mode, oracle)
        assert (got.value, got.samples_used, got.converged) == \
            (want.value, want.samples_used, want.converged)
        assert np.array_equal(got.witness.u, want.witness.u)
        assert np.array_equal(got.witness.v, want.witness.v)
