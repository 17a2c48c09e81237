"""Pins for the benchmark's independent reference (``bench/reference.py``).

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference as ref  # noqa: E402


@pytest.mark.parametrize("spec, s, k", [
    ("sphere", 12.0, (1.0, 1.0, 1.0)),
    ("cp2", 24.0, (1.0, 1.0, 4.0)),
    ("product:1,1", 4.0, (0.0, 0.0, 1.0)),
    ("flat", 0.0, (0.0, 0.0, 0.0)),
])
def test_model_invariants(spec, s, k):
    inv = ref.invariants(ref.model_matrix(spec))
    assert inv["s"] == pytest.approx(s, abs=1e-12)
    assert inv["k"] == pytest.approx(k, abs=1e-12)
    assert inv["k"].sum() == pytest.approx(s / 4.0, abs=1e-12)


def test_cp2_weyl_spectra():
    inv = ref.invariants(ref.model_matrix("cp2"))
    halves = sorted([tuple(np.round(inv["weyl_plus"], 12)),
                     tuple(np.round(inv["weyl_minus"], 12))])
    assert halves == [(-2.0, -2.0, 4.0), (0.0, 0.0, 0.0)]


def test_star_splits_into_two_three_dimensional_eigenspaces():
    assert ref.SELF_DUAL.shape == ref.ANTI_SELF_DUAL.shape == (6, 3)
    np.testing.assert_allclose(ref.STAR @ ref.SELF_DUAL, ref.SELF_DUAL, atol=1e-15)
    np.testing.assert_allclose(ref.STAR @ ref.ANTI_SELF_DUAL, -ref.ANTI_SELF_DUAL, atol=1e-15)


def test_sphere_sectional_and_isotropic_curvature():
    m = ref.model_matrix("sphere")
    frame = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0].T
    assert ref.sectional(m, frame[0], frame[1]) == pytest.approx(1.0)
    assert ref.isotropic(m, frame) == pytest.approx(4.0)


def test_random_stream_is_bianchi_and_stacks():
    mats = ref.scan_matrices(seed=3, trials=4)
    assert mats.shape == (4, 6, 6)
    np.testing.assert_array_equal(mats, np.swapaxes(mats, 1, 2))
    assert np.max(np.abs(ref.bianchi_residual(mats))) < 1e-15
    stacked = ref.invariants(mats)["k"]
    single = np.array([ref.invariants(m)["k"] for m in mats])
    np.testing.assert_allclose(stacked, single, rtol=0, atol=1e-14)


def test_tolerance_scales_with_the_tensor():
    m = ref.model_matrix("cp2")
    assert ref.tolerance(1e6 * m) == pytest.approx(1e6 * ref.tolerance(m))
    inv, big = ref.invariants(m), ref.invariants(1e6 * m)
    assert np.max(np.abs(big["k"] - 1e6 * inv["k"])) <= ref.tolerance(1e6 * m)
