from pathlib import Path

import numpy as np
import pytest

from curv4.analyzer import (HINT_CONSTANT, HINT_CP2, HINT_FLAT, HINT_LINE_SPHERE,
                            HINT_PRODUCT, AnalyzeConfig, analyze, classification_hints,
                            implication_audit)
from curv4.core import (from_matrix, invariants, lambda_blocks, norm_max, operator_from_blocks,
                        ricci)
from curv4.errors import ValidationError
from curv4.io import load, report_to_dict
from curv4.models import (cp2, flat, product_surfaces, r_times_s3, random_bianchi,
                          space_form, sphere)
from curv4.numerics import RngStream, derive_seed
from curv4.oracle import OracleConfig

DATA = Path(__file__).parent / "data"


def shifted_random(seed, index, scale=1.0, shift_max=4.0):
    """Random tensor plus a scalar-curvature shift; Bianchi-exact by construction."""
    op = random_bianchi(derive_seed(seed, index, 0), scale)
    t = RngStream(derive_seed(seed, index, 2)).generator().uniform(0.0, shift_max)
    return from_matrix(op.matrix + t * np.eye(6))


class TestCheckPinching:
    """Both hypotheses' verdicts and margins in an operator's invariants row."""

    def test_unit_sphere(self):
        inv = sphere(1.0).invariants
        assert inv.hypothesis_a[0] and inv.margin_a[0] == pytest.approx(0.5, abs=1e-12)
        assert inv.hypothesis_b[0] and inv.margin_b[0] == pytest.approx(1.0, abs=1e-12)
        assert inv.scalar_positive[0]

    def test_product_surfaces_fails_both(self):
        inv = product_surfaces(1.0, 1.0).invariants
        assert not inv.hypothesis_a[0]
        assert inv.margin_a[0] == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert not inv.hypothesis_b[0]
        assert inv.margin_b[0] == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_cp2_sits_exactly_on_both_boundaries(self):
        inv = cp2(1.0).invariants
        assert inv.hypothesis_a[0] and inv.margin_a[0] == 0.0
        assert inv.hypothesis_b[0] and inv.margin_b[0] == 0.0

    def test_negative_scalar_is_reported_not_rejected(self):
        assert not space_form(-1.0).invariants.scalar_positive[0]


class TestCheckNnic:
    """The NNIC verdict and margins in an operator's invariants row."""

    def test_unit_sphere_margins(self):
        inv = sphere(1.0).invariants
        assert inv.nnic[0]
        assert (inv.margin_plus[0], inv.margin_minus[0]) == (2.0, 2.0)

    def test_cp2_margins(self):
        inv = cp2(1.0).invariants
        assert inv.nnic[0]
        assert inv.margin_plus[0] == pytest.approx(0.0, abs=1e-12)
        assert inv.margin_minus[0] == pytest.approx(4.0, abs=1e-12)

    def test_weyl_dominated_tensor_fails(self):
        # self-dual Weyl eigenvalues (-4, -4, 8) with s = 12: w3+ > s/6
        wplus = np.diag([-4.0, -4.0, 8.0])
        op = operator_from_blocks(wplus + np.eye(3), np.eye(3))
        assert op.invariants.s[0] == pytest.approx(12.0, abs=1e-12)
        inv = op.invariants
        assert not inv.nnic[0]
        assert inv.margin_plus[0] == pytest.approx(-6.0, abs=1e-12)


class TestImplicationAudit:
    def test_unit_sphere_chain_values(self):
        chain = implication_audit(sphere(1.0).invariants)
        assert chain.applicable and chain.all_satisfied
        by_label = {s.label: s for s in chain.steps}
        first = by_label["w1+ + w1- >= -s/12"]
        assert (first.lhs, first.rhs) == (0.0, -1.0)
        last = by_label["-2*w1+ <= s/6"]
        assert (last.lhs, last.rhs) == (0.0, 2.0)

    def test_cp2_chain_is_tight(self):
        chain = implication_audit(cp2(1.0).invariants)
        assert chain.applicable and chain.all_satisfied
        by_label = {s.label: s for s in chain.steps}
        assert by_label["w1+ + w1- >= -s/12"].slack == 0.0
        assert by_label["w3+ <= -2*w1+"].slack == 0.0
        assert by_label["-2*w1+ <= s/6"].slack == 0.0

    def test_not_applicable_without_hypothesis(self):
        chain = implication_audit(product_surfaces(1.0, 1.0).invariants)
        assert not chain.applicable
        assert "hypothesis" in chain.reason
        assert not chain.all_satisfied

    def test_not_applicable_without_positive_scalar(self):
        chain = implication_audit(space_form(-1.0).invariants)
        assert not chain.applicable
        assert "s > 0" in chain.reason

    def test_rejects_a_pass_of_two_rows(self):
        inv = invariants(np.stack([sphere(1.0).matrix, cp2(1.0).matrix]))
        with pytest.raises(ValidationError, match="one-row invariants pass, got 2 rows"):
            implication_audit(inv)
        assert implication_audit(inv.row(1)) == implication_audit(cp2(1.0).invariants)

    def test_random_ensemble_has_no_violations(self):
        checked = 0
        for i in range(400):
            op = shifted_random(11, i)
            chain = implication_audit(op.invariants)
            if chain.applicable:
                checked += 1
                assert chain.all_satisfied, f"violation at index {i}"
        assert checked > 50


class TestClassificationHints:
    def test_sphere(self):
        op = sphere(1.0)
        hints = classification_hints(op)
        assert HINT_CONSTANT in hints

    def test_product(self):
        op = product_surfaces(1.0, 1.0)
        hints = classification_hints(op)
        assert hints == (HINT_PRODUCT,)

    def test_cp2(self):
        op = cp2(1.0)
        hints = classification_hints(op)
        assert hints == (HINT_CP2,)

    def test_line_times_sphere(self):
        op = r_times_s3(1.0)
        hints = classification_hints(op)
        assert hints == (HINT_LINE_SPHERE,)

    def test_flat(self):
        op = flat()
        hints = classification_hints(op)
        assert HINT_FLAT in hints

    def test_flat_keeps_both_hints(self):
        # The threshold is exactly 0 for the flat tensor, and every test holds.
        assert classification_hints(flat()) == (HINT_PRODUCT, HINT_FLAT)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-10, 1.0, 1e10, 1e150, 1e300])
    def test_hints_follow_the_scale(self, scale):
        # The threshold is proportional to max|M|, so a scaled model keeps the
        # hints of the unit model, however small or large the scale.
        for op, hints in ((space_form(1.0), (HINT_CONSTANT,)), (cp2(1.0), (HINT_CP2,)),
                          (product_surfaces(1.0, 1.0), (HINT_PRODUCT,)),
                          (r_times_s3(1.0), (HINT_LINE_SPHERE,))):
            assert classification_hints(from_matrix(scale * op.matrix)) == hints
        assert classification_hints(from_matrix(scale * random_bianchi(2).matrix)) \
            == ()

    def test_generic_tensor_has_no_hints(self):
        op = random_bianchi(2)
        assert classification_hints(op) == ()

    def test_einstein_reads_the_traceless_ricci_not_the_off_block(self):
        # The sphere plus an off-diagonal block C = delta I: max|C| = delta but
        # max|Ric - s/4 I| = 3 delta, and the threshold (1e-8 max|M|, about
        # 2 delta) lies between them.
        op = operator_from_blocks(np.eye(3), np.eye(3), 5e-9 * np.eye(3))
        eps = 1e-8 * norm_max(op)
        traceless_ricci = ricci(op) - op.invariants.s[0] / 4.0 * np.eye(4)
        assert np.max(np.abs(lambda_blocks(op.matrix)[2])) < eps < norm_max(traceless_ricci)
        hints = classification_hints(op)
        assert HINT_CONSTANT not in hints
        assert hints == ()


class TestAnalyze:
    def test_report_fields_for_cp2(self):
        rep = analyze(cp2(1.0))
        inv = rep.invariants
        assert inv.s[0] == 24.0
        assert inv.weyl_plus[0] == pytest.approx((-2.0, -2.0, 4.0), abs=1e-12)
        assert inv.weyl_minus[0] == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
        assert inv.k[0] == pytest.approx((1.0, 1.0, 4.0), abs=1e-12)
        assert inv.margin_a[0] == 0.0
        assert inv.margin_plus[0] == pytest.approx(0.0, abs=1e-12)
        assert inv.margin_minus[0] == pytest.approx(4.0, abs=1e-12)
        assert rep.sectional_extrema is None and rep.iso_min is None

    def test_margin_arithmetic_has_no_recomputation_drift(self):
        for seed in range(6):
            doc = report_to_dict(analyze(random_bianchi(seed)))
            s, k, nnic = doc["s"], doc["biortho_spectrum"], doc["nnic"]
            assert doc["hypothesis_A"]["margin"] == k["k1"] - s / 24.0
            assert doc["hypothesis_B"]["margin"] == s / 6.0 - k["k3"]
            assert nnic["margin_plus"] == s / 6.0 - doc["weyl_plus"][2]
            assert nnic["margin_minus"] == s / 6.0 - doc["weyl_minus"][2]

    def test_report_is_deterministic(self):
        op = shifted_random(3, 0)
        cfg = AnalyzeConfig(run_oracle=True, oracle=OracleConfig(samples=2000,
                                                                 refine_iters=40, seed=8))
        assert report_to_dict(analyze(op, cfg)) == report_to_dict(analyze(op, cfg))

    def test_proof_chain_invariant_in_reports(self):
        for i in range(200):
            inv = analyze(shifted_random(17, i)).invariants
            if inv.scalar_positive[0] and (inv.hypothesis_a[0] or inv.hypothesis_b[0]):
                assert inv.nnic[0]

    def test_negative_scalar_report(self):
        rep = analyze(space_form(-1.0))
        assert not rep.invariants.scalar_positive[0]
        assert not rep.chain.applicable

    def test_oracle_fields_for_cp2(self):
        cfg = AnalyzeConfig(run_oracle=True, oracle=OracleConfig(seed=2))
        rep = analyze(cp2(1.0), cfg)
        lo, hi = rep.sectional_extrema
        assert lo.value == pytest.approx(1.0, abs=1e-6)
        assert hi.value == pytest.approx(4.0, abs=1e-6)
        assert abs(rep.conjecture.margin) <= 1e-6
        assert abs(rep.iso_min.value) <= 1e-4

    def test_conjecture_holds_for_sphere(self):
        cfg = AnalyzeConfig(run_oracle=True, oracle=OracleConfig(samples=2000,
                                                                 refine_iters=40, seed=2))
        rep = analyze(sphere(1.0), cfg)
        # K is constant 1 and s/24 = 0.5: strict bound holds with margin 1/2
        assert rep.conjecture.holds
        assert rep.conjecture.margin == pytest.approx(0.5, abs=1e-6)
        assert not rep.conjecture.boundary


class TestConverseWitness:
    def test_fixture_has_nnic_without_pinching(self):
        # NNIC does not imply the pinching hypotheses: stored counterexample
        inv = load(DATA / "converse_witness.json").invariants
        assert inv.scalar_positive[0]
        assert inv.nnic[0]
        assert not inv.hypothesis_a[0]
        assert not inv.hypothesis_b[0]

    def test_fresh_search_reproduces_such_a_tensor(self):
        found = False
        for i in range(300):
            inv = shifted_random(21, i).invariants
            if not inv.scalar_positive[0] or inv.hypothesis_a[0] or inv.hypothesis_b[0]:
                continue
            if inv.nnic[0]:
                found = True
                break
        assert found
