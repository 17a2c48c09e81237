import numpy as np
import pytest

from curv4.core import ricci
from curv4.errors import ValidationError
from curv4.models import (MODELS, ModelSpec, cp2, flat, make_operator,
                          parse_model_spec, product_surfaces, r_times_s3,
                          random_bianchi, space_form, sphere)
from curv4.numerics import derive_seed

from . import reference as ref

E = np.eye(4)


def traceless_ricci(op):
    return ricci(op) - op.invariants.s[0] / 4.0 * np.eye(4)


class TestModelSpec:
    def test_parse_with_parameters(self):
        spec = parse_model_spec("product:1,2")
        assert spec.name == "product_surfaces"
        assert spec.parameters == (1.0, 2.0)

    def test_parse_defaults(self):
        assert parse_model_spec("cp2").parameters == (1.0,)
        assert parse_model_spec("flat").parameters == ()

    def test_unknown_model(self):
        with pytest.raises(ValidationError, match="unknown model"):
            parse_model_spec("torus")

    def test_bad_arity(self):
        with pytest.raises(ValidationError, match="parameter"):
            ModelSpec("sphere", (1.0, 2.0))

    def test_bad_parameter_text(self):
        with pytest.raises(ValidationError, match="bad model parameters"):
            parse_model_spec("sphere:abc")

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_every_model_instantiates(self, name):
        op = make_operator(ModelSpec(name, seed=3))
        assert op.matrix.shape == (6, 6)

    def test_error_messages(self):
        with pytest.raises(ValidationError) as unknown:
            parse_model_spec("torus")
        assert str(unknown.value) == ("unknown model 'torus'; known models: cp2, flat, "
                                      "product_surfaces, r_times_s3, random_bianchi, "
                                      "space_form, sphere")
        with pytest.raises(ValidationError) as arity:
            parse_model_spec("product:1")
        assert str(arity.value) == "model 'product_surfaces' takes 2 parameter(s), got 1"

    def test_labels_round_parameters(self):
        assert ModelSpec("sphere", (2.0,)).label() == "sphere:2.0"
        assert ModelSpec("flat").label() == "flat"


class TestNamedModels:
    def test_sphere_requires_positive_radius(self):
        with pytest.raises(ValidationError):
            sphere(0.0)
        with pytest.raises(ValidationError):
            cp2(-1.0)
        with pytest.raises(ValidationError):
            r_times_s3(-2.0)

    def test_sphere_scaling(self):
        op = sphere(2.0)
        assert op.invariants.s[0] == 3.0
        assert ref.sectional(op.matrix, E[0], E[3]) == 0.25

    def test_space_form_covers_hyperbolic(self):
        op = space_form(-1.0)
        assert op.invariants.s[0] == -12.0
        assert tuple(op.invariants.k[0].tolist()) == (-1.0, -1.0, -1.0)

    def test_flat_is_zero(self):
        assert np.array_equal(flat().matrix, np.zeros((6, 6)))
        assert flat().invariants.s[0] == 0.0

    def test_product_scaling(self):
        op = product_surfaces(2.0, 3.0)
        assert op.invariants.s[0] == 10.0
        assert ref.sectional(op.matrix, E[0], E[1]) == 2.0
        assert ref.sectional(op.matrix, E[2], E[3]) == 3.0

    def test_product_zero_is_flat(self):
        assert product_surfaces(0.0, 0.0).invariants.s[0] == 0.0

    @pytest.mark.parametrize("k1,k2", [(1.0, 1.0), (2.0, 3.0), (-2.0, 1.0), (-1.0, -1.0)])
    def test_product_lowest_biortho_value(self, k1, k2):
        k = product_surfaces(k1, k2).invariants.k[0]
        assert k[0] == pytest.approx(min(0.0, (k1 + k2) / 2.0), abs=1e-12)

    def test_cp2_sectional_range_endpoints(self):
        op = cp2(1.0)
        assert ref.sectional(op.matrix, E[0], E[1]) == 4.0  # holomorphic plane
        assert ref.sectional(op.matrix, E[0], E[2]) == 1.0  # totally real plane
        assert ref.sectional(op.matrix, E[2], E[3]) == 4.0

    def test_cp2_scaling(self):
        op = cp2(2.0)
        assert op.invariants.s[0] == 48.0
        assert ref.sectional(op.matrix, E[0], E[1]) == 8.0

    def test_r_times_s3_scaling(self):
        op = r_times_s3(2.0)
        assert op.invariants.s[0] == 1.5
        assert tuple(op.invariants.k[0].tolist()) == pytest.approx((0.125,) * 3, abs=1e-15)

    @pytest.mark.parametrize("op", [sphere(1.0), cp2(1.0), product_surfaces(2.0, 2.0)])
    def test_einstein_models(self, op):
        assert np.max(np.abs(traceless_ricci(op))) <= 1e-12

    def test_r_times_s3_is_not_einstein(self):
        assert np.max(np.abs(traceless_ricci(r_times_s3(1.0)))) > 0.5

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_models_satisfy_bianchi(self, name):
        op = make_operator(ModelSpec(name, seed=5))
        assert abs(op.bianchi) <= 1e-12

    def test_sphere_satisfies_lower_pinching_for_any_radius(self):
        for radius in (0.5, 1.0, 3.0):
            op = sphere(radius)
            inv = op.invariants
            assert inv.k[0, 0] >= inv.s[0] / 24.0


class TestRandomBianchi:
    def test_residual_is_projected_away(self):
        for seed in range(5):
            assert abs(random_bianchi(seed).bianchi) <= 1e-12

    def test_reproducible(self):
        a = random_bianchi(42, 2.0)
        b = random_bianchi(42, 2.0)
        assert np.array_equal(a.matrix, b.matrix)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValidationError):
            random_bianchi(0, 0.0)

    def test_ensemble_mean_scalar_is_near_zero(self):
        n = 1000
        mean = np.mean([random_bianchi(derive_seed(123, i)).invariants.s[0]
                        for i in range(n)])
        assert abs(mean) < 4.0 * np.sqrt(6.0 / n)
