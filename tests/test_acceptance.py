"""Top-level acceptance checks, one test per criterion.

Each test prints a one-line verdict; the conftest summary hook repeats the
pass/fail table after the run.  Criteria 1, 5 and 7 exercise the brute-force
search at its default budget and together take a few minutes.
"""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from curv4.analyzer import check_nnic, check_pinching, implication_audit, tolerance_band
from curv4.core import (bianchi_residual, biortho_spectrum, decompose, from_matrix,
                        lambda_blocks, ricci, rotate_operator, scalar_curvature)
from curv4.models import (ModelSpec, cp2, make_operator, product_surfaces,
                          r_times_s3, random_bianchi, sphere)
from curv4.numerics import RngStream, derive_seed
from curv4.oracle import OracleConfig, min_isotropic
from curv4.verify import run_verification, trial_operator

SEED = 7
TRIALS = 500

NAMED_MODELS = [
    make_operator(ModelSpec(name, seed=1))
    for name in ("sphere", "space_form", "product_surfaces", "cp2", "r_times_s3", "flat")
]


def shifted_random(seed: int, index: int) -> "CurvatureOperator":
    """Random tensor with a scalar shift so the pinching filter is populated."""
    op = random_bianchi(RngStream(derive_seed(seed, index, 0)), 1.0)
    t = RngStream(derive_seed(seed, index, 2)).generator().uniform(0.0, 4.0)
    return from_matrix(op.matrix + t * np.eye(6))


def announce(line: str) -> None:
    print(line, flush=True)


@pytest.mark.acceptance(criterion=1, summary="oracle matches closed-form spectrum on "
                                             f"{TRIALS} random tensors")
def test_criterion_1_oracle_equivalence():
    report = run_verification(trials=TRIALS, seed=SEED, oracle=OracleConfig(), workers=4)
    bad = [r for r in report.records
           if not (r.oracle_min_ok and r.oracle_max_ok and r.sound_ok)]
    worst = max(
        max(abs(r.oracle_min - r.k1) / (1.0 + abs(r.k1)),
            abs(r.oracle_max - r.k3) / (1.0 + abs(r.k3)))
        for r in report.records)
    announce(f"criterion 1: {TRIALS - len(bad)}/{TRIALS} oracle extrema within "
             f"1e-6 (worst relative error {worst:.2e})")
    assert not bad, f"oracle disagreed on trials {[r.index for r in bad]}"
    assert all(r.oracle_min >= r.k1 - 1e-9 for r in report.records)
    assert all(r.oracle_max <= r.k3 + 1e-9 for r in report.records)


@pytest.mark.acceptance(criterion=2, summary="k1+k2+k3 = s/4 on all tensors and models")
def test_criterion_2_trace_identity():
    failures = 0
    for i in range(TRIALS):
        op = trial_operator(SEED, i)
        sp = biortho_spectrum(op)
        s = scalar_curvature(op)
        if abs(sp.k1 + sp.k2 + sp.k3 - s / 4.0) > tolerance_band(s):
            failures += 1
    for op in NAMED_MODELS:
        sp = biortho_spectrum(op)
        s = scalar_curvature(op)
        if abs(sp.k1 + sp.k2 + sp.k3 - s / 4.0) > tolerance_band(s):
            failures += 1
    announce(f"criterion 2: trace identity failures {failures}/{TRIALS + len(NAMED_MODELS)}")
    assert failures == 0


@pytest.mark.acceptance(criterion=3, summary="pinching hypotheses imply the NNIC "
                                             "criterion on 20000 random tensors")
def test_criterion_3_proof_chain():
    populations = [
        ("plain", lambda i: random_bianchi(RngStream(derive_seed(29, i, 0)), 1.0)),
        ("shifted", lambda i: shifted_random(31, i)),
    ]
    total = qualifying = violations = 0
    for name, make in populations:
        for i in range(10000):
            op = make(i)
            total += 1
            dec = decompose(op)
            pc = check_pinching(op, dec=dec)
            if not (pc.scalar_positive
                    and (pc.hypothesis_a.holds or pc.hypothesis_b.holds)):
                continue
            qualifying += 1
            if not check_nnic(op, dec=dec).holds:
                violations += 1
                continue
            if not implication_audit(op, dec=dec).all_satisfied:
                violations += 1
    announce(f"criterion 3: {qualifying}/{total} tensors met a hypothesis, "
             f"{violations} NNIC/chain violations")
    assert total >= 10000
    assert qualifying > 1000, "hypothesis filter is unexpectedly empty"
    assert violations == 0


@pytest.mark.acceptance(criterion=4, summary="model golden table exact to 1e-12")
def test_criterion_4_golden_table():
    tol = 1e-12

    op = sphere(1.0)
    assert scalar_curvature(op) == pytest.approx(12.0, abs=tol)
    assert biortho_spectrum(op).as_tuple() == pytest.approx((1.0, 1.0, 1.0), abs=tol)

    op = product_surfaces(1.0, 1.0)
    assert scalar_curvature(op) == pytest.approx(4.0, abs=tol)
    assert biortho_spectrum(op).as_tuple() == pytest.approx((0.0, 0.0, 1.0), abs=tol)
    pc = check_pinching(op)
    assert not pc.hypothesis_a.holds and not pc.hypothesis_b.holds

    op = cp2(1.0)
    dec = decompose(op)
    wp, wm = dec.weyl_spectra()
    assert scalar_curvature(op) == pytest.approx(24.0, abs=tol)
    assert tuple(wp) == pytest.approx((-2.0, -2.0, 4.0), abs=tol)
    assert np.max(np.abs(wm)) <= tol
    assert biortho_spectrum(op).as_tuple() == pytest.approx((1.0, 1.0, 4.0), abs=tol)
    assert abs(check_pinching(op).hypothesis_a.margin) <= tol
    nn = check_nnic(op)
    assert nn.margin_plus == pytest.approx(0.0, abs=tol)
    assert nn.margin_minus == pytest.approx(4.0, abs=tol)

    op = r_times_s3(1.0)
    dec = decompose(op)
    assert scalar_curvature(op) == pytest.approx(6.0, abs=tol)
    assert biortho_spectrum(op).as_tuple() == pytest.approx((0.5, 0.5, 0.5), abs=tol)
    assert np.max(np.abs(dec.wplus)) <= tol and np.max(np.abs(dec.wminus)) <= tol
    assert np.max(np.abs(ricci(op) - np.diag([2.0, 2.0, 2.0, 0.0]))) <= tol

    announce("criterion 4: golden table values all exact to 1e-12")


@pytest.mark.acceptance(criterion=5, summary="isotropic-minimum sign agrees with the "
                                             "eigenvalue criterion, 200/200")
def test_criterion_5_isotropic_consistency():
    agree = checked = 0
    worst_identity = 0.0
    index = 0
    while checked < 200:
        if index % 2:
            op = shifted_random(37, index)
        else:
            op = random_bianchi(RngStream(derive_seed(37, index, 0)), 1.0)
        index += 1
        dec = decompose(op)
        wp, wm = dec.weyl_spectra()
        margin = min(dec.s / 6.0 - wp[2], dec.s / 6.0 - wm[2])
        if abs(margin) <= 1e-3 * (1.0 + np.max(np.abs(op.matrix))):
            continue
        checked += 1
        res = min_isotropic(op, OracleConfig(seed=derive_seed(37, index, 1)))
        if np.sign(res.value) == np.sign(margin):
            agree += 1
        worst_identity = max(worst_identity, abs(res.value - 2.0 * margin))
    announce(f"criterion 5: sign agreement {agree}/200; conjectured identity "
             f"|min_iso - 2*margin| worst {worst_identity:.2e} (logged, not asserted)")
    if worst_identity > 1e-4:
        warnings.warn(f"isotropic identity deviated by {worst_identity:.2e}")
    assert agree == 200

    for op, label in ((cp2(1.0), "cp2"), (product_surfaces(1.0, 1.0), "product")):
        res = min_isotropic(op, OracleConfig(seed=5))
        assert abs(res.value) <= 1e-4, f"{label} borderline minimum {res.value!r}"


@pytest.mark.acceptance(criterion=6, summary="block-trace and frame-invariance "
                                             "structural identities")
def test_criterion_6_structural_invariants():
    gen = RngStream(43).generator()
    worst_bt = 0.0
    for _ in range(1000):
        g = gen.standard_normal((6, 6))
        m = np.triu(g) + np.triu(g, 1).T  # unprojected: residual is generic
        aplus, aminus, _ = lambda_blocks(m)
        defect = abs((np.trace(aplus) - np.trace(aminus)) - 2.0 * bianchi_residual(m))
        worst_bt = max(worst_bt, defect)
    assert worst_bt <= 1e-12

    tensors = list(NAMED_MODELS)
    tensors += [random_bianchi(RngStream(derive_seed(47, i)), 1.0) for i in range(10)]
    qgen = RngStream(53).generator()
    worst = 0.0
    for op in tensors:
        dec = decompose(op)
        wp, wm = dec.weyl_spectra()
        sp = np.array(biortho_spectrum(op).as_tuple())
        for _ in range(100):
            q, _ = np.linalg.qr(qgen.standard_normal((4, 4)))
            if qgen.integers(2):
                q[:, 0] = -q[:, 0]
            rotated = rotate_operator(op, q)
            dec2 = decompose(rotated)
            wp2, wm2 = dec2.weyl_spectra()
            if np.linalg.det(q) < 0:
                wp2, wm2 = wm2, wp2
            worst = max(
                worst,
                abs(dec2.s - dec.s),
                float(np.max(np.abs(wp2 - wp))),
                float(np.max(np.abs(wm2 - wm))),
                float(np.max(np.abs(np.array(biortho_spectrum(rotated).as_tuple()) - sp))),
            )
    announce(f"criterion 6: worst block-trace defect {worst_bt:.2e}, "
             f"worst frame-invariance drift {worst:.2e}")
    assert worst <= 1e-9


@pytest.mark.acceptance(criterion=7, summary="verify --trials 500 --seed 7 is "
                                             "byte-identical across two runs")
def test_criterion_7_determinism(tmp_path):
    outputs = []
    for run, workers in enumerate(("2", "4")):
        out = tmp_path / f"verify_{run}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "curv4", "verify", "--trials", str(TRIALS),
             "--seed", str(SEED), "--json", "--workers", workers, "--out", str(out)],
            capture_output=True, text=True, timeout=1200)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["passed"] is True and len(doc["records"]) == TRIALS
    announce(f"criterion 7: two runs ({len(outputs[0])} bytes each; --workers 2 vs 4, "
             "which has no effect) are byte-identical")
