"""Benchmark curvature tensors and random curvature ensembles.

Model names, parameter arities and defaults are part of the CLI contract:

    sphere:RADIUS              round 4-sphere, M = I/R^2
    space_form:K               constant curvature K (flat/hyperbolic included)
    product_surfaces:K1,K2     product of two surfaces of curvatures K1, K2
    cp2:SCALE                  complex projective plane, holomorphic K = 4*SCALE
    r_times_s3:RADIUS          line times round 3-sphere (flat direction e4)
    flat                       zero curvature
    random_bianchi:SCALE       Gaussian symmetric 6x6, residual projected away

``product`` is accepted as shorthand for ``product_surfaces``.  The table
:data:`MODELS` maps each name to its builder and default parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import CurvatureOperator, from_matrix, validated_stack
from .errors import ValidationError
from .numerics import standard_normal_rows

_ALIASES = {"product": "product_surfaces"}


@dataclass(frozen=True)
class ModelSpec:
    """A named model geometry with parameters (and a seed for random ones)."""

    name: str
    parameters: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        name = _ALIASES.get(self.name, self.name)
        if name not in MODELS:
            known = ", ".join(sorted(MODELS))
            raise ValidationError(f"unknown model {self.name!r}; known models: {known}")
        defaults = MODELS[name].defaults
        params = self.parameters
        if params is None:
            params = defaults
        params = tuple(float(p) for p in params)
        if len(params) != len(defaults):
            raise ValidationError(
                f"model {name!r} takes {len(defaults)} parameter(s), got {len(params)}"
            )
        # A builder given inf would divide it away (1/R^2 = 0) or fill its
        # matrix with nan; reject it before any builder sees it.
        for p in params:
            if not math.isfinite(p):
                raise ValidationError(f"model {name!r} parameters must be finite, got {p!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "parameters", params)

    def label(self) -> str:
        if self.parameters:
            return self.name + ":" + ",".join(repr(p) for p in self.parameters)
        return self.name


def parse_model_spec(text: str, seed: int = 0) -> ModelSpec:
    """Parse ``name`` or ``name:p1,p2,...`` into a :class:`ModelSpec`."""
    name, _, tail = text.partition(":")
    params = None
    if tail:
        try:
            params = tuple(float(tok) for tok in tail.split(","))
        except ValueError as exc:
            raise ValidationError(f"bad model parameters in {text!r}: {exc}") from None
    return ModelSpec(name=name.strip(), parameters=params, seed=seed)


def _require_positive(value: float, what: str) -> float:
    if not value > 0.0:
        raise ValidationError(f"{what} must be positive, got {value!r}")
    return value


def _inverse_square(radius: float, model: str) -> float:
    """1/R^2 for a positive radius R of ``model``; a radius so small that
    1/R^2 overflows float64 is an input error naming the model."""
    _require_positive(radius, "radius")
    square = radius**2
    if not square or math.isinf(1.0 / square):
        raise ValidationError(f"model {model!r} overflows float64: 1/radius^2 at radius "
                              f"{radius!r}")
    return 1.0 / square


def sphere(radius: float = 1.0) -> CurvatureOperator:
    """Round sphere of the given radius: every sectional curvature is 1/R^2."""
    return from_matrix(_inverse_square(radius, "sphere") * np.eye(6))


def space_form(k: float) -> CurvatureOperator:
    """Constant sectional curvature k (positive, zero or negative)."""
    return from_matrix(k * np.eye(6))


def flat() -> CurvatureOperator:
    return from_matrix(np.zeros((6, 6)))


def product_surfaces(k1: float, k2: float) -> CurvatureOperator:
    """Product of two surfaces of Gauss curvatures k1 (plane e1,e2) and k2 (e3,e4)."""
    mat = np.zeros((6, 6))
    mat[0, 0] = k1
    mat[5, 5] = k2
    return from_matrix(mat)


# Standard complex structure used by the cp2 model: e1 -> e2, e3 -> e4.
_J = np.zeros((4, 4))
_J[1, 0] = _J[3, 2] = 1.0
_J[0, 1] = _J[2, 3] = -1.0
_J.flags.writeable = False


def cp2(scale: float = 1.0) -> CurvatureOperator:
    """Complex projective plane; at scale 1: s = 24, sectional range [1, 4].

    Components follow the constant-holomorphic-curvature formula
    R_ijkl = scale * (d_ik d_jl - d_il d_jk + J_ik J_jl - J_il J_jk + 2 J_ij J_kl).
    """
    _require_positive(scale, "scale")
    delta = np.eye(4)

    def component(i: int, j: int, k: int, l: int) -> float:
        return (delta[i, k] * delta[j, l] - delta[i, l] * delta[j, k]
                + _J[i, k] * _J[j, l] - _J[i, l] * _J[j, k]
                + 2.0 * _J[i, j] * _J[k, l])

    from .core import PAIRS

    unit = np.zeros((6, 6))
    for a, (i, j) in enumerate(PAIRS):
        for b, (k, l) in enumerate(PAIRS):
            unit[a, b] = component(i, j, k, l)
    with np.errstate(over="ignore"):
        mat = scale * unit
    if not np.isfinite(mat).all():
        raise ValidationError(f"model 'cp2' overflows float64: 4*scale at scale {scale!r}")
    return from_matrix(mat)


def r_times_s3(radius: float = 1.0) -> CurvatureOperator:
    """Line times round 3-sphere; the flat direction is e4."""
    mat = np.zeros((6, 6))
    for idx in (0, 1, 3):  # e12, e13, e23: planes inside the sphere factor
        mat[idx, idx] = _inverse_square(radius, "r_times_s3")
    return from_matrix(mat)


def random_bianchi_matrices(seeds: Sequence[int], scale: float = 1.0) -> np.ndarray:
    """The matrices of :func:`random_bianchi` for every plain int seed, drawn
    and validated in one pass: row i of the read-only (N, 6, 6) stack is
    ``random_bianchi(seeds[i], scale).matrix``."""
    _require_positive(scale, "scale")
    with np.errstate(over="ignore"):  # validated_stack rejects overflowed draws
        g = standard_normal_rows(seeds, (6, 6)) * scale
    sym = np.triu(g) + np.swapaxes(np.triu(g, 1), -1, -2)
    del g  # the raw draw need not be held through validated_stack's peak
    return validated_stack(sym, project_bianchi=True)


def random_bianchi(seed: int, scale: float = 1.0) -> CurvatureOperator:
    """Symmetric Gaussian 6x6 (entries i.i.d. with std ``scale``) drawn from the
    Philox stream keyed by ``seed``, residual projected."""
    return CurvatureOperator(matrix=random_bianchi_matrices([seed], scale)[0])


class Model(NamedTuple):
    """A registry entry: the builder and its default parameters (the arity is
    their count); a seeded builder takes the spec's seed first."""

    build: Callable[..., CurvatureOperator]
    defaults: tuple[float, ...]
    seeded: bool = False


MODELS = {
    "sphere": Model(sphere, (1.0,)),
    "space_form": Model(space_form, (1.0,)),
    "product_surfaces": Model(product_surfaces, (1.0, 1.0)),
    "cp2": Model(cp2, (1.0,)),
    "r_times_s3": Model(r_times_s3, (1.0,)),
    "flat": Model(flat, ()),
    "random_bianchi": Model(random_bianchi, (1.0,), seeded=True),
}


def make_operator(spec: ModelSpec) -> CurvatureOperator:
    """Instantiate the operator described by a model spec."""
    model = MODELS[spec.name]
    seed = (spec.seed,) if model.seeded else ()
    return model.build(*seed, *spec.parameters)
