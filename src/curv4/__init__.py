"""Pointwise curvature analysis for dimension-4 Riemannian geometry.

Build and validate algebraic curvature tensors, split them into scalar,
Ricci and self-dual/anti-self-dual Weyl parts, evaluate the biorthogonal
curvature spectrum in closed form, cross-check it against a brute-force
search over 2-planes, and diagnose curvature-pinching hypotheses.
"""

__version__ = "0.1.0"

from .analyzer import (AnalyzeConfig, PinchingReport, analyze, check_nnic,
                       check_pinching, classification_hints, implication_audit)
from .core import (BiorthoSpectrum, CurvatureDecomposition, CurvatureOperator,
                   Invariants, Plane, bianchi_residual, biortho_spectrum,
                   biorthogonal, complement, decompose, from_components, from_matrix,
                   invariants, ricci, rotate_operator, scalar_curvature, sectional)
from .errors import ConsistencyError, Curv4Error, DegenerateInputError, ValidationError
from .models import (ModelSpec, cp2, flat, make_operator, parse_model_spec,
                     product_surfaces, r_times_s3, random_bianchi, space_form, sphere)
from .numerics import RngStream, derive_seed, eig_sym, gram_schmidt
from .oracle import (ExtremumResult, OracleConfig, Search, extremize, extremize_batch,
                     extremize_pair, isotropic_curvature, min_isotropic)
from .verify import run_scan, run_trial, run_verification

__all__ = [
    "AnalyzeConfig", "BiorthoSpectrum", "ConsistencyError", "Curv4Error",
    "CurvatureDecomposition", "CurvatureOperator", "DegenerateInputError",
    "ExtremumResult", "Invariants", "ModelSpec", "OracleConfig", "PinchingReport",
    "Plane", "RngStream", "Search", "ValidationError", "__version__", "analyze",
    "bianchi_residual", "biortho_spectrum", "biorthogonal", "check_nnic",
    "check_pinching", "classification_hints", "complement", "cp2", "decompose",
    "derive_seed", "eig_sym", "extremize", "extremize_batch", "extremize_pair", "flat",
    "from_components", "from_matrix", "gram_schmidt", "implication_audit", "invariants",
    "isotropic_curvature", "make_operator", "min_isotropic", "parse_model_spec",
    "product_surfaces", "r_times_s3", "random_bianchi", "ricci", "rotate_operator",
    "run_scan", "run_trial", "run_verification", "scalar_curvature", "sectional",
    "space_form", "sphere",
]
