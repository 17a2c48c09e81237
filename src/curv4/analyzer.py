"""Pinching diagnostics: hypothesis margins, the curvature-condition chain
connecting them to nonnegative isotropic curvature, and full reports.

Two pinching hypotheses are evaluated on every operator (with s the scalar
curvature, k1 <= k2 <= k3 the biorthogonal spectrum, w3+/- the largest Weyl
eigenvalues):

    A (lower):  k1 >= s/24
    B (upper):  k3 <= s/6

Whenever s > 0 and either hypothesis holds, both Weyl halves must satisfy
w3 <= s/6, which is the eigenvalue criterion for nonnegative isotropic
curvature (NNIC).  Both hypotheses and NNIC, with their margins, are columns
of the operator's invariants pass (:func:`curv4.core.invariants`), and the
report of :func:`analyze` carries that one row as it is.  The advisory
``classification_hints`` read the same row; only their Einstein and rank
tests add the Ricci tensor, through :func:`curv4.core.ricci`.
``implication_audit`` walks the derivation on that row, inequality by
inequality; a violation means the arithmetic of the decomposition is broken,
never that the input was merely unusual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_TOLERANCE, CurvatureOperator, Invariants, norm_max, ricci
from .errors import ValidationError
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
    tolerance: float = DEFAULT_TOLERANCE
    project_bianchi: bool = False


@dataclass(frozen=True)
class PinchingReport:
    """A full report.  ``invariants`` is the operator's one-row invariants
    pass: s, the Weyl spectra, the biorthogonal spectrum, and the pinching
    and NNIC margins and verdicts are read from row 0."""

    invariants: Invariants = field(repr=False)
    bianchi_residual: float
    chain: ChainRecord
    hints: tuple[str, ...]
    config: AnalyzeConfig
    sectional_extrema: tuple[ExtremumResult, ExtremumResult] | None = None
    conjecture: ConjectureCheck | None = None
    iso_min: ExtremumResult | None = None
    footer: str = FOOTER


# ---------------------------------------------------------------------------
# the implication chain


def _step(label: str, lhs: float, relation: str, rhs: float, band: float) -> ChainStep:
    if relation == "<=":
        slack = rhs - lhs
    elif relation == ">=":
        slack = lhs - rhs
    else:
        slack = -abs(lhs - rhs)
    return ChainStep(label=label, lhs=float(lhs), relation=relation, rhs=float(rhs),
                     satisfied=bool(slack >= -band), slack=float(slack))


def implication_audit(inv: Invariants) -> ChainRecord:
    """Evaluate every inequality leading from the pinching hypotheses to NNIC
    on a one-row invariants pass (``op.invariants`` or ``Invariants.row(i)``).

    Applicable only when s > 0 and at least one hypothesis holds; otherwise a
    not-applicable record is returned (that is not a failure).
    """
    if len(inv.s) != 1:
        raise ValidationError(f"implication_audit takes a one-row invariants pass, "
                              f"got {len(inv.s)} rows")
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


def classification_hints(r: CurvatureOperator) -> tuple[str, ...]:
    """Advisory pattern matches against the benchmark geometries.

    s, the Weyl halves and k1, k2 are read from the operator's invariants
    row; "Einstein" and the rank test use the traceless Ricci tensor
    Ric - s/4 I.  Thresholds are coarse by design and proportional to the
    operator's max-norm (0 for the flat tensor), so they follow the tensor's
    scale; the hints are never load-bearing.
    """
    inv = r.invariants
    s = float(inv.s[0])
    k1, k2, _ = inv.k[0].tolist()
    eps = _HINT_EPS_FACTOR * norm_max(r)
    weyl_plus_zero = norm_max(inv.wplus[0]) <= eps
    weyl_minus_zero = norm_max(inv.wminus[0]) <= eps
    weyl_zero = weyl_plus_zero and weyl_minus_zero
    # A Ricci tensor that overflows is not Einstein, and the rank test rejects it.
    with np.errstate(over="ignore", invalid="ignore"):
        ric = ricci(r)
        einstein = norm_max(ric - (s / 4.0) * np.eye(4)) <= eps

    hints: list[str] = []
    if weyl_zero and einstein and s > eps:
        hints.append(HINT_CONSTANT)
    if abs(k1) <= eps and abs(k2) <= eps:
        hints.append(HINT_PRODUCT)
    # margin_a is k1 - s/24 in the same float64 arithmetic.
    if (weyl_plus_zero != weyl_minus_zero) and einstein and s > eps \
            and abs(inv.margin_a[0]) <= eps:
        hints.append(HINT_CP2)
    if weyl_zero and not einstein:
        if not np.all(np.isfinite(ric)):
            raise ValidationError("matrix is too large: its Ricci tensor overflows float64")
        small = int(np.sum(np.abs(np.linalg.eigvalsh(ric)) <= eps))
        if small == 1:
            hints.append(HINT_LINE_SPHERE)
    if weyl_zero and einstein and abs(s) <= eps:
        hints.append(HINT_FLAT)
    return tuple(hints)


# ---------------------------------------------------------------------------
# report assembly


def analyze(r: CurvatureOperator, cfg: AnalyzeConfig | None = None) -> PinchingReport:
    """Assemble the full diagnostic report for one curvature operator."""
    if cfg is None:
        cfg = AnalyzeConfig()
    inv = r.invariants
    chain = implication_audit(inv)
    hints = classification_hints(r)

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
        band = inv.band[0]
        margin = sect_min.value - float(inv.s[0]) / 24.0
        conjecture = ConjectureCheck(margin=margin, holds=bool(margin > band),
                                     boundary=bool(abs(margin) <= band))

    return PinchingReport(
        invariants=inv,
        bianchi_residual=r.bianchi,
        chain=chain,
        hints=hints,
        config=cfg,
        sectional_extrema=sectional_extrema,
        conjecture=conjecture,
        iso_min=iso,
    )
