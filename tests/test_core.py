import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curv4 import core
from curv4.core import (STAR, from_components, from_matrix, invariants, lambda_basis,
                        lambda_blocks, operator_from_blocks, project_to_bianchi, ricci,
                        validated_stack, wedge)
from curv4.errors import ValidationError
from curv4.models import (cp2, product_surfaces, r_times_s3, random_bianchi,
                          random_bianchi_matrices, sphere)
from curv4.numerics import RngStream

from . import reference as ref

E = np.eye(4)


def random_symmetric6(seed, scale=1.0):
    g = RngStream(seed).generator().standard_normal((6, 6)) * scale
    return (g + g.T) / 2.0


def random_operator(seed, scale=1.0):
    return random_bianchi(seed, scale)


def traceless_ricci(op):
    return ricci(op) - op.invariants.s[0] / 4.0 * np.eye(4)


class TestTwoForms:
    def test_wedge_of_basis_pair(self):
        alpha = wedge(E[0], E[1])
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.array_equal(alpha, expected)

    def test_wedge_antisymmetry(self):
        u, v = RngStream(1).generator().standard_normal((2, 4))
        assert np.allclose(wedge(u, v), -wedge(v, u))

    def test_star_is_involution(self):
        assert np.array_equal(STAR @ STAR, np.eye(6))

    def test_star_signs(self):
        assert np.array_equal(wedge(E[0], E[1]) @ STAR, wedge(E[2], E[3]))
        assert np.array_equal(wedge(E[0], E[2]) @ STAR, -wedge(E[1], E[3]))
        assert np.array_equal(wedge(E[0], E[3]) @ STAR, wedge(E[1], E[2]))

    @staticmethod
    def self_pairing(alpha):
        """alpha ^ alpha as a multiple of the volume form; zero exactly for
        decomposable 2-forms."""
        return float(alpha @ (alpha @ STAR))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=8, max_size=8))
    def test_wedges_are_decomposable(self, vals):
        u, v = np.array(vals[:4]), np.array(vals[4:])
        alpha = wedge(u, v)
        assert abs(self.self_pairing(alpha)) <= 1e-10 * (1.0 + float(alpha @ alpha))

    def test_sum_of_orthogonal_wedges_is_not_decomposable(self):
        alpha = wedge(E[0], E[1]) + wedge(E[2], E[3])
        assert self.self_pairing(alpha) == 2.0

    def test_lambda_basis_diagonalizes_star(self):
        b = lambda_basis()
        assert np.max(np.abs(b.T @ b - np.eye(6))) < 1e-15
        d = b.T @ STAR @ b
        assert np.allclose(d, np.diag([1, 1, 1, -1, -1, -1]), atol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_lambda_blocks_match_basis_change(self, seed):
        m = random_symmetric6(seed)
        b = lambda_basis()
        full = b.T @ m @ b
        aplus, aminus, off = lambda_blocks(m)
        assert np.max(np.abs(aplus - full[:3, :3])) < 1e-14
        assert np.max(np.abs(aminus - full[3:, 3:])) < 1e-14
        assert np.max(np.abs(off - full[:3, 3:])) < 1e-14


class TestOperatorConstruction:
    def test_identity_is_valid(self):
        op = from_matrix(np.eye(6))
        assert op.bianchi == 0.0

    def test_single_coupling_is_rejected(self):
        m = np.zeros((6, 6))
        m[0, 5] = m[5, 0] = 1.0
        assert ref.bianchi_residual(m) == 1.0
        with pytest.raises(ValidationError, match="Bianchi"):
            from_matrix(m)

    def test_bianchi_bound_is_relative_to_the_entries(self):
        # residual 5e-10 is five times the largest other entry
        m = 1e-10 * np.eye(6)
        m[0, 5] = m[5, 0] = 5e-10
        for c in (1.0, 1e-3, 1e10):
            with pytest.raises(ValidationError, match="Bianchi"):
                from_matrix(c * m)
        assert from_matrix(np.zeros((6, 6))).bianchi == 0.0
        tiny = from_matrix(m, project_bianchi=True)
        assert abs(tiny.bianchi) <= 1e-9 * np.max(np.abs(tiny.matrix))
        stack = project_to_bianchi(np.stack([m, 1e-3 * m, np.zeros((6, 6))]))
        for row, a in zip(validated_stack(stack, project_bianchi=True), stack):
            assert np.array_equal(row, from_matrix(a, project_bianchi=True).matrix)

    @pytest.mark.parametrize("tolerance", [0.0, 1e-20])
    def test_projection_is_not_rejected_for_its_own_rounding(self, tolerance):
        # Projection leaves a residual of its roundings, a few ulp of max|M|.
        ops = [from_matrix(random_symmetric6(seed), project_bianchi=True, tolerance=tolerance)
               for seed in range(40)]
        assert sum(op.bianchi != 0.0 for op in ops) >= 10

    @pytest.mark.parametrize("scale", [1e-314, 1e-316, 1e-320, 5e-324])
    def test_tiny_scales_project_and_reload(self, scale):
        # Below about 5e-315, tolerance * max|M| underflows to 0; a projected
        # residual of one subnormal is still accepted, with or without projection.
        stack = random_bianchi_matrices(list(range(200)), scale)
        for row in stack:
            assert np.array_equal(from_matrix(row).matrix, row)
        for seed in range(20):
            from_matrix(random_symmetric6(seed, scale), project_bianchi=True)

    def test_projected_error_does_not_ask_for_the_projection(self, monkeypatch):
        monkeypatch.setattr(core, "_PROJECTION_ULPS", 0)
        with pytest.raises(ValidationError, match="Bianchi") as info:
            from_matrix(random_symmetric6(0), project_bianchi=True, tolerance=0.0)
        assert "project_bianchi" not in str(info.value)
        with pytest.raises(ValidationError, match=r"pass project_bianchi=True "
                                                  r"\(--project-bianchi on the command line\)"):
            from_matrix(random_symmetric6(0))

    def test_projection_of_single_coupling(self):
        m = np.zeros((6, 6))
        m[0, 5] = m[5, 0] = 1.0
        op = from_matrix(m, project_bianchi=True)
        assert op.matrix[0, 5] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert op.matrix[1, 4] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert op.matrix[2, 3] == pytest.approx(-1.0 / 3.0, abs=1e-15)
        assert abs(op.bianchi) <= 1e-12

    def test_asymmetric_matrix_diagnostic_names_entries(self):
        m = np.eye(6)
        m[2, 4] = 0.5
        with pytest.raises(ValidationError, match=r"\(2,4\)"):
            from_matrix(m)

    def test_matrix_is_immutable(self):
        op = from_matrix(np.eye(6))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 2.0

    @pytest.mark.parametrize("seed", range(5))
    def test_projection_kills_residual(self, seed):
        m = project_to_bianchi(random_symmetric6(seed))
        assert abs(ref.bianchi_residual(m)) <= 1e-12

    def test_projection_moves_only_coupled_entries(self):
        m = random_symmetric6(9)
        p = project_to_bianchi(m)
        moved = np.abs(p - m) > 0
        coupled = np.zeros((6, 6), dtype=bool)
        for i, j in ((0, 5), (1, 4), (2, 3)):
            coupled[i, j] = coupled[j, i] = True
        assert not np.any(moved & ~coupled)


class TestFromComponents:
    def test_single_component(self):
        op = from_components([(1, 2, 1, 2, 1.0)], project_bianchi=True)
        expected = np.zeros((6, 6))
        expected[0, 0] = 1.0
        assert np.array_equal(op.matrix, expected)

    def test_symmetry_conflict_rejected(self):
        with pytest.raises(ValidationError, match="conflict"):
            from_components([(1, 2, 1, 2, 1.0), (2, 1, 1, 2, 1.0)])

    def test_consistent_duplicates_accepted(self):
        op = from_components([(1, 2, 1, 2, 1.0), (2, 1, 1, 2, -1.0), (1, 2, 2, 1, -1.0)])
        assert op.matrix[0, 0] == 1.0

    def test_round_sphere_components(self):
        entries = [(i, j, i, j, 1.0) for i in range(1, 5) for j in range(i + 1, 5)]
        op = from_components(entries)
        assert np.array_equal(op.matrix, np.eye(6))

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError, match="range"):
            from_components([(0, 2, 1, 2, 1.0)])

    @pytest.mark.parametrize("index", [1.5, 2.0000001, float("nan"), "1", True])
    def test_non_integral_index_rejected(self, index):
        with pytest.raises(ValidationError, match="integer"):
            from_components([(index, 2, 1, 2, 1.0)])

    def test_integral_float_index_accepted(self):
        a = from_components([(1.0, np.int64(2), 1, 2, 1.0)], project_bianchi=True)
        assert np.array_equal(a.matrix, from_components([(1, 2, 1, 2, 1.0)],
                                                        project_bianchi=True).matrix)

    def test_repeated_index_rejected(self):
        with pytest.raises(ValidationError, match="repeated"):
            from_components([(1, 1, 1, 2, 1.0)])

    def test_pair_symmetry_equivalence(self):
        a = from_components([(1, 3, 2, 4, 0.25)], project_bianchi=True)
        b = from_components([(2, 4, 1, 3, 0.25)], project_bianchi=True)
        assert np.array_equal(a.matrix, b.matrix)


class TestScalarAndRicci:
    def test_unit_sphere(self):
        op = sphere(1.0)
        assert op.invariants.s[0] == 12.0
        assert np.array_equal(ricci(op), 3.0 * np.eye(4))

    def test_line_times_sphere(self):
        op = r_times_s3(1.0)
        assert op.invariants.s[0] == 6.0
        assert np.allclose(ricci(op), np.diag([2.0, 2.0, 2.0, 0.0]), atol=1e-15)

    def test_product_surfaces(self):
        assert product_surfaces(1.0, 1.0).invariants.s[0] == 4.0

    @pytest.mark.parametrize("seed", range(4))
    def test_ricci_trace_is_scalar(self, seed):
        op = random_operator(seed)
        assert np.trace(ricci(op)) == pytest.approx(op.invariants.s[0], rel=1e-12)


class TestDecomposition:
    def test_unit_sphere_is_pure_scalar(self):
        op = sphere(1.0)
        inv = op.invariants
        assert inv.s[0] == 12.0
        assert np.max(np.abs(inv.wplus[0])) == 0.0
        assert np.max(np.abs(inv.wminus[0])) == 0.0
        assert np.max(np.abs(traceless_ricci(op))) == 0.0

    def test_product_surfaces_weyl(self):
        inv = product_surfaces(1.0, 1.0).invariants
        third = 1.0 / 3.0
        for w in (inv.wplus[0], inv.wminus[0]):
            assert np.allclose(np.linalg.eigvalsh(w), [-third, -third, 2 * third], atol=1e-15)

    def test_cp2_weyl(self):
        op = cp2(1.0)
        inv = op.invariants
        assert np.allclose(np.linalg.eigvalsh(inv.wplus[0]), [-2.0, -2.0, 4.0], atol=1e-12)
        assert np.max(np.abs(inv.wminus[0])) <= 1e-12
        assert np.max(np.abs(traceless_ricci(op))) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_weyl_traces_vanish(self, seed):
        op = random_operator(seed)
        inv = op.invariants
        scale = 1.0 + np.max(np.abs(op.matrix))
        assert abs(np.trace(inv.wplus[0])) <= 1e-10 * scale
        assert abs(np.trace(inv.wminus[0])) <= 1e-10 * scale
        assert abs(np.trace(traceless_ricci(op))) <= 1e-10 * scale

    @pytest.mark.parametrize("name,op", [
        ("sphere", sphere(1.0)), ("cp2", cp2(1.0)), ("product", product_surfaces(1.0, 1.0)),
    ])
    def test_einstein_models_have_no_off_block(self, name, op):
        _, _, off = lambda_blocks(op.matrix)
        assert np.max(np.abs(off)) <= 1e-12

    def test_non_einstein_model_has_off_block(self):
        _, _, off = lambda_blocks(r_times_s3(1.0).matrix)
        assert np.max(np.abs(off)) > 0.1

    @pytest.mark.parametrize("seed", range(6))
    def test_block_trace_difference_is_twice_residual(self, seed):
        m = random_symmetric6(seed)
        aplus, aminus, _ = lambda_blocks(m)
        scale = 1.0 + np.max(np.abs(m))
        assert abs((np.trace(aplus) - np.trace(aminus)) - 2.0 * ref.bianchi_residual(m)) \
            <= 1e-12 * scale


class TestSectional:
    def test_unit_sphere_everywhere_one(self):
        op = sphere(1.0)
        for seed in range(5):
            f = RngStream(seed).generator().standard_normal((2, 4))
            assert ref.sectional(op.matrix, f[0], f[1]) == pytest.approx(1.0, abs=1e-12)

    def test_product_mixed_plane_is_flat(self):
        assert ref.sectional(product_surfaces(1.0, 1.0).matrix, E[0], E[2]) == 0.0

    def test_cp2_holomorphic_plane(self):
        assert ref.sectional(cp2(1.0).matrix, E[0], E[1]) == 4.0

    def test_basis_invariance_on_same_plane(self):
        op = random_operator(17)
        theta = 0.7342
        u = np.cos(theta) * E[0] + np.sin(theta) * E[1]
        v = -np.sin(theta) * E[0] + np.cos(theta) * E[1]
        a = ref.sectional(op.matrix, E[0], E[1])
        b = ref.sectional(op.matrix, u, v)
        assert abs(a - b) <= 1e-10


class TestBiorthogonal:
    def test_product_factor_plane(self):
        assert ref.biorthogonal(product_surfaces(1.0, 1.0).matrix, E[0], E[1]) == 1.0

    def test_product_mixed_plane_realizes_zero(self):
        assert ref.biorthogonal(product_surfaces(1.0, 1.0).matrix, E[0], E[2]) == 0.0

    def test_unit_sphere(self):
        assert ref.biorthogonal(sphere(1.0).matrix, E[1], E[3]) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_complement(self):
        op = random_operator(23)
        for seed in range(4):
            f = RngStream(seed).generator().standard_normal((2, 4))
            assert ref.biorthogonal(op.matrix, f[0], f[1]) == pytest.approx(
                ref.biorthogonal(op.matrix, *ref.complement(f[0], f[1])), abs=1e-12)

    def test_traceless_ricci_block_cancels(self):
        # adding any off-diagonal (traceless-Ricci) content leaves the
        # biorthogonal curvature of every plane unchanged
        op = random_operator(31)
        c = RngStream(77).generator().standard_normal((3, 3))
        b = lambda_basis()
        delta = np.zeros((6, 6))
        delta[:3, 3:] = c
        delta[3:, :3] = c.T
        perturbed = from_matrix(b @ delta @ b.T + op.matrix)
        for seed in range(6):
            f = RngStream(seed).generator().standard_normal((2, 4))
            assert abs(ref.biorthogonal(op.matrix, f[0], f[1])
                       - ref.biorthogonal(perturbed.matrix, f[0], f[1])) <= 1e-10


class TestBiorthoSpectrum:
    @pytest.mark.parametrize("op,expected", [
        (sphere(1.0), (1.0, 1.0, 1.0)),
        (product_surfaces(1.0, 1.0), (0.0, 0.0, 1.0)),
        (cp2(1.0), (1.0, 1.0, 4.0)),
        (r_times_s3(1.0), (0.5, 0.5, 0.5)),
    ])
    def test_model_spectra(self, op, expected):
        assert tuple(op.invariants.k[0].tolist()) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_sum_identity(self, seed):
        inv = random_operator(seed).invariants
        k, s = inv.k[0], inv.s[0]
        assert abs(k[0] + k[1] + k[2] - s / 4.0) <= 1e-12 * (1.0 + abs(s))

    def test_rows_are_ascending(self):
        # Each row of k is s/12 plus half the sum of two ascending Weyl spectra,
        # and rounded addition is monotone, so it stays ascending even where a
        # Weyl eigenvalue repeats (sphere, cp2, product).
        mats = [random_operator(seed).matrix for seed in range(200)]
        mats += [op.matrix for op in (sphere(1.0), cp2(1.0), product_surfaces(1.0, 1.0),
                                      product_surfaces(2.0, -3.0), r_times_s3(1.0))]
        inv = invariants(np.stack(mats))
        for rows in (inv.k, inv.weyl_plus, inv.weyl_minus):
            assert np.all(np.diff(rows, axis=1) >= 0.0)


class TestFrameInvariance:
    @pytest.mark.parametrize("seed", range(5))
    def test_conjugation_preserves_invariants(self, seed):
        op = random_operator(seed + 50)
        inv = op.invariants
        wp, wm = inv.weyl_plus[0], inv.weyl_minus[0]
        gen = RngStream(seed).generator()
        q, _ = np.linalg.qr(gen.standard_normal((4, 4)))
        if seed % 2:
            q[:, 0] = -q[:, 0]
        rotated = from_matrix(ref.rotate(op.matrix, q))
        inv2 = rotated.invariants
        wp2, wm2 = inv2.weyl_plus[0], inv2.weyl_minus[0]
        assert abs(inv2.s[0] - inv.s[0]) <= 1e-9
        if np.linalg.det(q) > 0:
            assert np.max(np.abs(wp2 - wp)) <= 1e-9
            assert np.max(np.abs(wm2 - wm)) <= 1e-9
        else:
            assert np.max(np.abs(wp2 - wm)) <= 1e-9
            assert np.max(np.abs(wm2 - wp)) <= 1e-9
        assert np.max(np.abs(inv2.k[0] - inv.k[0])) <= 1e-9


class TestOperatorFromBlocks:
    def test_round_trip_through_blocks(self):
        op = random_operator(61)
        aplus, aminus, off = lambda_blocks(op.matrix)
        rebuilt = operator_from_blocks(aplus, aminus, off)
        assert np.max(np.abs(rebuilt.matrix - op.matrix)) < 1e-13

    @pytest.mark.parametrize("block", [0, 1])
    def test_unmirrored_block_entry_is_rejected(self, block):
        # Symmetric blocks are required to 1e-12 relative, far inside the
        # 1e-9 of a matrix given directly.
        blocks = [np.eye(3), np.eye(3)]
        blocks[block][0, 1] = 1e-13
        operator_from_blocks(*blocks)
        blocks[block][0, 1] = 1e-11
        with pytest.raises(ValidationError, match="not symmetric"):
            operator_from_blocks(*blocks)
