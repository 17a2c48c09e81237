"""Pinching diagnostics: hypothesis margins, the curvature-condition chain
connecting them to nonnegative isotropic curvature, and full reports.

Two pinching hypotheses are evaluated on every operator (with s the scalar
curvature, k1 <= k2 <= k3 the biorthogonal spectrum, w3+/- the largest Weyl
eigenvalues):

    A (lower):  k1 >= s/24
    B (upper):  k3 <= s/6

Whenever s > 0 and either hypothesis holds, both Weyl halves must satisfy
w3 <= s/6, which is the eigenvalue criterion for nonnegative isotropic
curvature (NNIC).  ``implication_audit`` walks that derivation inequality by
inequality; a violation means the arithmetic of the decomposition is broken,
never that the input was merely unusual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (BiorthoSpectrum, CurvatureDecomposition, CurvatureOperator,
                   biortho_spectrum, decompose, norm_max, operator_invariants,
                   tolerance_band)
from .numerics import eig_sym
from .oracle import ExtremumResult, OracleConfig, Search, extremize_batch

FOOTER = ("Pointwise analysis of a single algebraic curvature tensor; "
          "hypotheses required to hold at every point of a manifold are "
          "not certified by this report.")

_HINT_EPS_FACTOR = 1e-8

HINT_CONSTANT = "constant positive curvature: round-sphere family (Weyl and traceless Ricci vanish)"
HINT_PRODUCT = "product-of-surfaces signature: the two lower biorthogonal curvatures vanish"
HINT_CP2 = ("CP2-like borderline: Einstein, one Weyl half vanishes, "
            "lowest biorthogonal curvature sits exactly at s/24")
HINT_LINE_SPHERE = "line-times-3-sphere pattern: Weyl vanishes, Ricci has rank 3"
HINT_FLAT = "flat: all curvature quantities vanish"


@dataclass(frozen=True)
class HypothesisCheck:
    holds: bool
    margin: float


@dataclass(frozen=True)
class PinchingChecks:
    hypothesis_a: HypothesisCheck
    hypothesis_b: HypothesisCheck
    scalar_positive: bool


@dataclass(frozen=True)
class NnicCheck:
    holds: bool
    margin_plus: float
    margin_minus: float


@dataclass(frozen=True)
class ChainStep:
    label: str
    lhs: float
    relation: str  # "<=", ">=" or "=="
    rhs: float
    satisfied: bool
    slack: float


@dataclass(frozen=True)
class ChainRecord:
    applicable: bool
    reason: str
    steps: tuple[ChainStep, ...] = ()

    @property
    def all_satisfied(self) -> bool:
        return self.applicable and all(step.satisfied for step in self.steps)


@dataclass(frozen=True)
class ConjectureCheck:
    """Strict sectional bound K_min > s/24, estimated from the oracle minimum."""

    margin: float
    holds: bool
    boundary: bool


@dataclass(frozen=True)
class AnalyzeConfig:
    run_oracle: bool = False
    oracle: OracleConfig = field(default_factory=OracleConfig)
    source: str = ""
    tolerance: float = 1e-9
    project_bianchi: bool = False


@dataclass(frozen=True)
class PinchingReport:
    s: float
    bianchi_residual: float
    weyl_plus: tuple[float, float, float]
    weyl_minus: tuple[float, float, float]
    spectrum: BiorthoSpectrum
    hypothesis_a: HypothesisCheck
    hypothesis_b: HypothesisCheck
    nnic: NnicCheck
    scalar_positive: bool
    chain: ChainRecord
    hints: tuple[str, ...]
    config: AnalyzeConfig
    sectional_extrema: tuple[ExtremumResult, ExtremumResult] | None = None
    conjecture: ConjectureCheck | None = None
    iso_min: ExtremumResult | None = None
    footer: str = FOOTER


# ---------------------------------------------------------------------------
# individual checks


def check_pinching(r: CurvatureOperator,
                   dec: CurvatureDecomposition | None = None) -> PinchingChecks:
    """Evaluate both pinching hypotheses and the scalar-positivity gate."""
    inv = operator_invariants(r, dec)
    return PinchingChecks(
        hypothesis_a=HypothesisCheck(holds=bool(inv.hypothesis_a[0]),
                                     margin=float(inv.margin_a[0])),
        hypothesis_b=HypothesisCheck(holds=bool(inv.hypothesis_b[0]),
                                     margin=float(inv.margin_b[0])),
        scalar_positive=bool(inv.scalar_positive[0]),
    )


def check_nnic(r: CurvatureOperator,
               dec: CurvatureDecomposition | None = None) -> NnicCheck:
    """Eigenvalue criterion for nonnegative isotropic curvature: w3+/- <= s/6."""
    inv = operator_invariants(r, dec)
    return NnicCheck(holds=bool(inv.nnic[0]), margin_plus=float(inv.margin_plus[0]),
                     margin_minus=float(inv.margin_minus[0]))


def _step(label: str, lhs: float, relation: str, rhs: float, band: float) -> ChainStep:
    if relation == "<=":
        slack = rhs - lhs
    elif relation == ">=":
        slack = lhs - rhs
    else:
        slack = -abs(lhs - rhs)
    return ChainStep(label=label, lhs=float(lhs), relation=relation, rhs=float(rhs),
                     satisfied=bool(slack >= -band), slack=float(slack))


def implication_audit(r: CurvatureOperator,
                      dec: CurvatureDecomposition | None = None) -> ChainRecord:
    """Evaluate every inequality leading from the pinching hypotheses to NNIC.

    Applicable only when s > 0 and at least one hypothesis holds; otherwise a
    not-applicable record is returned (that is not a failure).
    """
    inv = operator_invariants(r, dec)
    hyp_a, hyp_b = bool(inv.hypothesis_a[0]), bool(inv.hypothesis_b[0])
    if not inv.scalar_positive[0]:
        return ChainRecord(applicable=False, reason="requires s > 0")
    if not (hyp_a or hyp_b):
        return ChainRecord(applicable=False, reason="neither pinching hypothesis holds")

    s = float(inv.s[0])
    wp, wm = inv.weyl_plus[0], inv.weyl_minus[0]
    band = float(inv.band[0])
    steps: list[ChainStep] = []
    if hyp_a:
        steps.append(_step("w1+ + w1- >= -s/12", wp[0] + wm[0], ">=", -s / 12.0, band))
        for tag, w in (("+", wp), ("-", wm)):
            steps.append(_step(f"w1{tag} >= w1+ + w1-", w[0], ">=", wp[0] + wm[0], band))
            steps.append(_step(f"w3{tag} == -w1{tag} - w2{tag}", w[2], "==", -w[0] - w[1], band))
            steps.append(_step(f"w3{tag} <= -2*w1{tag}", w[2], "<=", -2.0 * w[0], band))
            steps.append(_step(f"-2*w1{tag} <= s/6", -2.0 * w[0], "<=", s / 6.0, band))
    if hyp_b:
        steps.append(_step("w3+ + w3- <= s/6", wp[2] + wm[2], "<=", s / 6.0, band))
        steps.append(_step("w3+ >= 0", wp[2], ">=", 0.0, band))
        steps.append(_step("w3- >= 0", wm[2], ">=", 0.0, band))
        steps.append(_step("w3+ <= w3+ + w3-", wp[2], "<=", wp[2] + wm[2], band))
        steps.append(_step("w3- <= w3+ + w3-", wm[2], "<=", wp[2] + wm[2], band))
    steps.append(_step("w3+ <= s/6", wp[2], "<=", s / 6.0, band))
    steps.append(_step("w3- <= s/6", wm[2], "<=", s / 6.0, band))
    return ChainRecord(applicable=True, reason="", steps=tuple(steps))


def classification_hints(dec: CurvatureDecomposition, spectrum: BiorthoSpectrum,
                         scale: float | None = None) -> tuple[str, ...]:
    """Advisory pattern matches against the benchmark geometries.

    ``scale`` should be the operator's max-norm; when omitted a proxy is
    derived from the decomposition.  Thresholds are coarse by design; the
    hints are never load-bearing.
    """
    if scale is None:
        scale = max(abs(dec.s) / 2.0, norm_max(dec.ricci),
                    norm_max(dec.wplus), norm_max(dec.wminus))
    eps = _HINT_EPS_FACTOR * (1.0 + scale)
    weyl_plus_zero = norm_max(dec.wplus) <= eps
    weyl_minus_zero = norm_max(dec.wminus) <= eps
    weyl_zero = weyl_plus_zero and weyl_minus_zero
    einstein = norm_max(dec.traceless_ricci) <= eps

    hints: list[str] = []
    if weyl_zero and einstein and dec.s > eps:
        hints.append(HINT_CONSTANT)
    if abs(spectrum.k1) <= eps and abs(spectrum.k2) <= eps:
        hints.append(HINT_PRODUCT)
    if (weyl_plus_zero != weyl_minus_zero) and einstein and dec.s > eps \
            and abs(spectrum.k1 - dec.s / 24.0) <= eps:
        hints.append(HINT_CP2)
    if weyl_zero and not einstein:
        ric_eigs = eig_sym(dec.ricci)
        small = int(np.sum(np.abs(ric_eigs) <= eps))
        if small == 1:
            hints.append(HINT_LINE_SPHERE)
    if weyl_zero and einstein and abs(dec.s) <= eps:
        hints.append(HINT_FLAT)
    return tuple(hints)


# ---------------------------------------------------------------------------
# report assembly


def analyze(r: CurvatureOperator, cfg: AnalyzeConfig | None = None) -> PinchingReport:
    """Assemble the full diagnostic report for one curvature operator."""
    if cfg is None:
        cfg = AnalyzeConfig()
    dec = decompose(r)
    spectrum = biortho_spectrum(r, dec=dec)
    wp, wm = dec.weyl_spectra()
    checks = check_pinching(r, dec=dec)
    nnic = check_nnic(r, dec=dec)
    chain = implication_audit(r, dec=dec)
    hints = classification_hints(dec, spectrum, scale=norm_max(r))

    sectional_extrema = None
    conjecture = None
    iso = None
    if cfg.run_oracle:
        # One batch: both sectional searches and the isotropic one share the
        # coarse frames and a single refine loop.
        sect_min, sect_max, iso = extremize_batch([
            Search(r.matrix, "sectional", "min", cfg.oracle),
            Search(r.matrix, "sectional", "max", cfg.oracle),
            Search(r.matrix, "isotropic", "min", cfg.oracle),
        ])
        sectional_extrema = (sect_min, sect_max)
        band = tolerance_band(dec.s, norm_max(r))
        margin = sect_min.value - dec.s / 24.0
        conjecture = ConjectureCheck(margin=margin, holds=bool(margin > band),
                                     boundary=bool(abs(margin) <= band))

    return PinchingReport(
        s=dec.s,
        bianchi_residual=r.bianchi,
        weyl_plus=tuple(float(x) for x in wp),
        weyl_minus=tuple(float(x) for x in wm),
        spectrum=spectrum,
        hypothesis_a=checks.hypothesis_a,
        hypothesis_b=checks.hypothesis_b,
        nnic=nnic,
        scalar_positive=checks.scalar_positive,
        chain=chain,
        hints=hints,
        config=cfg,
        sectional_extrema=sectional_extrema,
        conjecture=conjecture,
        iso_min=iso,
    )
