"""Pointwise curvature analysis for dimension-4 Riemannian geometry.

Build and validate algebraic curvature tensors, split them into scalar,
Ricci and self-dual/anti-self-dual Weyl parts, evaluate the biorthogonal
curvature spectrum in closed form, cross-check it against a brute-force
search over 2-planes, and diagnose curvature-pinching hypotheses.
"""

__version__ = "0.1.0"

from .analyzer import (AnalyzeConfig, PinchingReport, analyze, classification_hints,
                       implication_audit)
from .core import (CurvatureOperator, Invariants, from_components, from_matrix, invariants,
                   ricci)
from .errors import ConsistencyError, Curv4Error, ValidationError
from .models import (ModelSpec, cp2, flat, make_operator, parse_model_spec,
                     product_surfaces, r_times_s3, random_bianchi, random_bianchi_matrices,
                     space_form, sphere)
from .numerics import RngStream, derive_seed, derive_seeds
from .oracle import ExtremumResult, OracleConfig, Search, extremize_batch
from .verify import run_scan, run_verification

__all__ = [
    "AnalyzeConfig", "ConsistencyError", "Curv4Error", "CurvatureOperator",
    "ExtremumResult", "Invariants", "ModelSpec", "OracleConfig",
    "PinchingReport", "RngStream", "Search", "ValidationError", "__version__",
    "analyze", "classification_hints", "cp2", "derive_seed", "derive_seeds",
    "extremize_batch", "flat", "from_components", "from_matrix", "implication_audit",
    "invariants", "make_operator", "parse_model_spec", "product_surfaces", "r_times_s3",
    "random_bianchi", "random_bianchi_matrices", "ricci", "run_scan", "run_verification",
    "space_form", "sphere",
]
