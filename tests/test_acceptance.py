"""Top-level acceptance checks, one test per criterion.

Each test prints a one-line verdict; the conftest summary hook repeats the
pass/fail table after the run.  Criteria 1, 5 and 7 exercise the brute-force
search: criteria 1 and 7 at verify's default budget, in one shared in-process
verify run that criterion 7 repeats once through the CLI, and criterion 5 at
the library's default budget.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from curv4 import io
from curv4.analyzer import implication_audit
from curv4.core import from_matrix, invariants, lambda_blocks, ricci, tolerance_band
from curv4.models import (ModelSpec, cp2, make_operator, product_surfaces,
                          r_times_s3, random_bianchi, sphere)
from curv4.numerics import RngStream, derive_seed, derive_seeds
from curv4.oracle import OracleConfig, Search, extremize_batch
from curv4.verify import run_verification, trial_matrices

from . import reference as ref

SEED = 7
TRIALS = 500

NAMED_MODELS = [
    make_operator(ModelSpec(name, seed=1))
    for name in ("sphere", "space_form", "product_surfaces", "cp2", "r_times_s3", "flat")
]


def shifted_random(seed: int, index: int) -> "CurvatureOperator":
    """Random tensor with a scalar shift so the pinching filter is populated."""
    op = random_bianchi(derive_seed(seed, index, 0), 1.0)
    t = RngStream(derive_seed(seed, index, 2)).generator().uniform(0.0, 4.0)
    return from_matrix(op.matrix + t * np.eye(6))


def announce(line: str) -> None:
    print(line, flush=True)


@pytest.fixture(scope="module")
def verification():
    """The in-process ``verify --trials 500 --seed 7`` report at verify's
    default budget, shared by criteria 1 and 7."""
    return run_verification(trials=TRIALS, seed=SEED)


@pytest.mark.acceptance(criterion=1, summary="oracle matches closed-form spectrum on "
                                             f"{TRIALS} random tensors")
def test_criterion_1_oracle_equivalence(verification):
    report = verification
    bad = [r for r in report.records
           if not (r.oracle_min_ok and r.oracle_max_ok and r.sound_ok)]
    worst = max(
        max(abs(r.oracle_min - r.k1) / (1.0 + abs(r.k1)),
            abs(r.oracle_max - r.k3) / (1.0 + abs(r.k3)))
        for r in report.records)
    announce(f"criterion 1: {TRIALS - len(bad)}/{TRIALS} oracle extrema within "
             f"1e-6 (worst relative error {worst:.2e})")
    assert not bad, f"oracle disagreed on trials {[r.trial for r in bad]}"
    assert all(r.oracle_min >= r.k1 - 1e-9 for r in report.records)
    assert all(r.oracle_max <= r.k3 + 1e-9 for r in report.records)


@pytest.mark.acceptance(criterion=2, summary="k1+k2+k3 = s/4 on all tensors and models")
def test_criterion_2_trace_identity():
    failures = 0
    trial_inv = invariants(trial_matrices(SEED, range(TRIALS)))
    for k, s in zip(trial_inv.k, trial_inv.s):
        if abs(k[0] + k[1] + k[2] - s / 4.0) > tolerance_band(s):
            failures += 1
    for op in NAMED_MODELS:
        k, s = op.invariants.k[0], op.invariants.s[0]
        if abs(k[0] + k[1] + k[2] - s / 4.0) > tolerance_band(s):
            failures += 1
    announce(f"criterion 2: trace identity failures {failures}/{TRIALS + len(NAMED_MODELS)}")
    assert failures == 0


@pytest.mark.acceptance(criterion=3, summary="pinching hypotheses imply the NNIC "
                                             "criterion on 20000 random tensors")
def test_criterion_3_proof_chain():
    # The shifted population adds shifted_random's t_i I to each tensor.
    shifts = [RngStream(s).generator().uniform(0.0, 4.0)
              for s in derive_seeds(31, range(10000), 2).tolist()]
    populations = [
        trial_matrices(29, range(10000)),
        trial_matrices(31, range(10000)) + np.multiply.outer(shifts, np.eye(6)),
    ]
    total = qualifying = violations = 0
    for stack in populations:
        inv = invariants(stack)
        meets = inv.scalar_positive & (inv.hypothesis_a | inv.hypothesis_b)
        total += len(stack)
        qualifying += int(np.sum(meets))
        for i in np.flatnonzero(meets):
            if not (inv.nnic[i] and implication_audit(inv.row(i)).all_satisfied):
                violations += 1
    announce(f"criterion 3: {qualifying}/{total} tensors met a hypothesis, "
             f"{violations} NNIC/chain violations")
    assert total >= 10000
    assert qualifying > 1000, "hypothesis filter is unexpectedly empty"
    assert violations == 0


@pytest.mark.acceptance(criterion=4, summary="model golden table exact to 1e-12")
def test_criterion_4_golden_table():
    tol = 1e-12

    inv = sphere(1.0).invariants
    assert inv.s[0] == pytest.approx(12.0, abs=tol)
    assert tuple(inv.k[0].tolist()) == pytest.approx((1.0, 1.0, 1.0), abs=tol)

    inv = product_surfaces(1.0, 1.0).invariants
    assert inv.s[0] == pytest.approx(4.0, abs=tol)
    assert tuple(inv.k[0].tolist()) == pytest.approx((0.0, 0.0, 1.0), abs=tol)
    assert not inv.hypothesis_a[0] and not inv.hypothesis_b[0]

    inv = cp2(1.0).invariants
    wp, wm = inv.weyl_plus[0], inv.weyl_minus[0]
    assert inv.s[0] == pytest.approx(24.0, abs=tol)
    assert tuple(wp) == pytest.approx((-2.0, -2.0, 4.0), abs=tol)
    assert np.max(np.abs(wm)) <= tol
    assert tuple(inv.k[0].tolist()) == pytest.approx((1.0, 1.0, 4.0), abs=tol)
    assert abs(inv.margin_a[0]) <= tol
    assert inv.margin_plus[0] == pytest.approx(0.0, abs=tol)
    assert inv.margin_minus[0] == pytest.approx(4.0, abs=tol)

    op = r_times_s3(1.0)
    inv = op.invariants
    assert inv.s[0] == pytest.approx(6.0, abs=tol)
    assert tuple(inv.k[0].tolist()) == pytest.approx((0.5, 0.5, 0.5), abs=tol)
    assert np.max(np.abs(inv.wplus[0])) <= tol and np.max(np.abs(inv.wminus[0])) <= tol
    assert np.max(np.abs(ricci(op) - np.diag([2.0, 2.0, 2.0, 0.0]))) <= tol

    announce("criterion 4: golden table values all exact to 1e-12")


@pytest.mark.acceptance(criterion=5, summary="isotropic-minimum sign agrees with the "
                                             "eigenvalue criterion, 200/200")
def test_criterion_5_isotropic_consistency():
    margins, searches = [], []
    index = 0
    while len(searches) < 200:
        if index % 2:
            op = shifted_random(37, index)
        else:
            op = random_bianchi(derive_seed(37, index, 0), 1.0)
        index += 1
        inv = op.invariants
        s, wp, wm = float(inv.s[0]), inv.weyl_plus[0], inv.weyl_minus[0]
        margin = min(s / 6.0 - wp[2], s / 6.0 - wm[2])
        if abs(margin) <= 1e-3 * (1.0 + np.max(np.abs(op.matrix))):
            continue
        margins.append(margin)
        searches.append(Search(op.matrix, "isotropic", "min",
                               OracleConfig(seed=derive_seed(37, index, 1))))
    results = extremize_batch(searches)
    agree = sum(np.sign(res.value) == np.sign(margin) for res, margin in zip(results, margins))
    # the isotropic identity min_iso = 2 min(s/6 - w3+, s/6 - w3-), relative to max|M|
    identity = [abs(res.value - 2.0 * margin) / (1.0 + np.max(np.abs(search.matrix)))
                for res, margin, search in zip(results, margins, searches)]
    announce(f"criterion 5: sign agreement {agree}/200; isotropic identity "
             f"|min_iso - 2*margin| / (1 + max|M|) worst {max(identity):.2e}")
    assert agree == 200
    assert max(identity) <= 1e-10

    borderline = extremize_batch([Search(op.matrix, "isotropic", "min", OracleConfig(seed=5))
                                  for op in (cp2(1.0), product_surfaces(1.0, 1.0))])
    for res, label in zip(borderline, ("cp2", "product")):
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
        defect = abs((np.trace(aplus) - np.trace(aminus)) - 2.0 * ref.bianchi_residual(m))
        worst_bt = max(worst_bt, defect)
    assert worst_bt <= 1e-12

    tensors = list(NAMED_MODELS)
    tensors += [random_bianchi(derive_seed(47, i), 1.0) for i in range(10)]
    qgen = RngStream(53).generator()
    worst = 0.0
    for op in tensors:
        inv = op.invariants
        wp, wm = inv.weyl_plus[0], inv.weyl_minus[0]
        for _ in range(100):
            q, _ = np.linalg.qr(qgen.standard_normal((4, 4)))
            if qgen.integers(2):
                q[:, 0] = -q[:, 0]
            rotated = from_matrix(ref.rotate(op.matrix, q))
            inv2 = rotated.invariants
            wp2, wm2 = inv2.weyl_plus[0], inv2.weyl_minus[0]
            if np.linalg.det(q) < 0:
                wp2, wm2 = wm2, wp2
            worst = max(
                worst,
                float(abs(inv2.s[0] - inv.s[0])),
                float(np.max(np.abs(wp2 - wp))),
                float(np.max(np.abs(wm2 - wm))),
                float(np.max(np.abs(inv2.k[0] - inv.k[0]))),
            )
    announce(f"criterion 6: worst block-trace defect {worst_bt:.2e}, "
             f"worst frame-invariance drift {worst:.2e}")
    assert worst <= 1e-9


@pytest.mark.acceptance(criterion=7, summary="verify --trials 500 --seed 7 from the CLI is "
                                             "byte-identical to the in-process run")
def test_criterion_7_determinism(tmp_path, verification):
    out = tmp_path / "verify.json"
    proc = subprocess.run(
        [sys.executable, "-m", "curv4", "verify", "--trials", str(TRIALS),
         "--seed", str(SEED), "--json", "--out", str(out)],
        capture_output=True, text=True, timeout=1200)
    assert proc.returncode == 0, proc.stderr
    output = out.read_bytes()
    assert output == io.dumps_document(io.verification_to_dict(verification)).encode()
    doc = json.loads(output)
    assert doc["passed"] is True and len(doc["records"]) == TRIALS
    announce(f"criterion 7: the CLI run ({len(output)} bytes) is byte-identical "
             "to the in-process run")
