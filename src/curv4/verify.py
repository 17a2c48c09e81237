"""Randomized verification runs: oracle-vs-closed-form equivalence, the
trace identity, and the pinching-to-NNIC chain, over seeded ensembles.

Each trial owns derived subseeds for its tensor and its oracle searches, so
every result is a pure function of (seed, trial index).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analyzer import check_nnic, check_pinching, implication_audit
from .core import (CurvatureOperator, Invariants, biortho_spectrum, decompose,
                   invariants, norm_max, tolerance_band)
from .errors import ValidationError
from .models import ModelSpec, make_operator, random_bianchi
from .numerics import RngStream, derive_seed
from .oracle import MODES, OracleConfig, Search, extremize_batch

#: Oracle-vs-closed-form agreement: absolute plus relative part.
ORACLE_ATOL = 1e-6
ORACLE_RTOL = 1e-6

#: Slack allowed before an oracle bound is declared unsound.
SOUNDNESS_SLACK = 1e-9


@dataclass(frozen=True)
class TrialResult:
    index: int
    s: float
    k1: float
    k2: float
    k3: float
    oracle_min: float
    oracle_max: float
    identity_ok: bool
    oracle_min_ok: bool
    oracle_max_ok: bool
    sound_ok: bool
    chain_applicable: bool
    nnic_ok: bool
    chain_ok: bool
    failures: tuple[str, ...]


@dataclass(frozen=True)
class VerificationReport:
    trials: int
    seed: int
    scale: float
    oracle: OracleConfig
    records: tuple[TrialResult, ...]
    passed: bool

    @property
    def failure_count(self) -> int:
        return sum(1 for rec in self.records if rec.failures)


def trial_operator(seed: int, index: int, scale: float = 1.0) -> CurvatureOperator:
    """The random curvature tensor examined by trial ``index`` of a run."""
    return random_bianchi(RngStream(derive_seed(seed, index, 0)), scale=scale)


def trial_oracle_config(base: OracleConfig, seed: int, index: int) -> OracleConfig:
    return OracleConfig(samples=base.samples, refine_iters=base.refine_iters,
                        restarts=base.restarts, step_init=base.step_init,
                        step_decay=base.step_decay, seed=derive_seed(seed, index, 1))


def _close(value: float, target: float) -> bool:
    return abs(value - target) <= ORACLE_ATOL + ORACLE_RTOL * abs(target)


def _trial_record(index: int, op: CurvatureOperator, lo, hi) -> TrialResult:
    """Every verification check on one trial's tensor, given its oracle extrema."""
    dec = decompose(op)
    spectrum = biortho_spectrum(op, dec=dec)
    s = dec.s
    failures: list[str] = []

    band = tolerance_band(s, norm_max(op))
    identity_ok = bool(abs(spectrum.k1 + spectrum.k2 + spectrum.k3 - s / 4.0) <= band)
    if not identity_ok:
        failures.append("trace identity k1+k2+k3 = s/4 violated")

    oracle_min_ok = _close(lo.value, spectrum.k1)
    oracle_max_ok = _close(hi.value, spectrum.k3)
    if not oracle_min_ok:
        failures.append(f"oracle min {lo.value!r} != k1 {spectrum.k1!r}")
    if not oracle_max_ok:
        failures.append(f"oracle max {hi.value!r} != k3 {spectrum.k3!r}")
    sound_ok = (lo.value >= spectrum.k1 - SOUNDNESS_SLACK
                and hi.value <= spectrum.k3 + SOUNDNESS_SLACK)
    if not sound_ok:
        failures.append("oracle extremum escapes the closed-form range")

    checks = check_pinching(op, dec=dec)
    applicable = checks.scalar_positive and (checks.hypothesis_a.holds
                                             or checks.hypothesis_b.holds)
    nnic_ok = True
    chain_ok = True
    if applicable:
        nnic_ok = check_nnic(op, dec=dec).holds
        if not nnic_ok:
            failures.append("pinching hypothesis held but NNIC criterion failed")
        chain_ok = implication_audit(op, dec=dec).all_satisfied
        if not chain_ok:
            failures.append("implication chain inequality violated")

    return TrialResult(
        index=index, s=s, k1=spectrum.k1, k2=spectrum.k2, k3=spectrum.k3,
        oracle_min=lo.value, oracle_max=hi.value,
        identity_ok=identity_ok, oracle_min_ok=oracle_min_ok,
        oracle_max_ok=oracle_max_ok, sound_ok=sound_ok,
        chain_applicable=applicable, nnic_ok=nnic_ok, chain_ok=chain_ok,
        failures=tuple(failures),
    )


def _run_trials(seed: int, indices, oracle: OracleConfig, scale: float) -> list[TrialResult]:
    """Trials ``indices`` of a run, with all their oracle searches in one batch."""
    ops = [trial_operator(seed, i, scale) for i in indices]
    searches = [Search(op.matrix, "biorthogonal", mode, trial_oracle_config(oracle, seed, i))
                for i, op in zip(indices, ops) for mode in MODES]
    extrema = extremize_batch(searches)
    return [_trial_record(i, op, extrema[2 * n], extrema[2 * n + 1])
            for n, (i, op) in enumerate(zip(indices, ops))]


def run_trial(seed: int, index: int, oracle: OracleConfig, scale: float = 1.0) -> TrialResult:
    """Run every verification check on one seeded random tensor."""
    return _run_trials(seed, [index], oracle, scale)[0]


def run_verification(trials: int, seed: int,
                     oracle: OracleConfig | None = None,
                     scale: float = 1.0, workers: int = 1) -> VerificationReport:
    """Run ``trials`` independent verification trials.

    The oracle searches of all trials run as one batch, which leaves every
    record as it would be from :func:`run_trial` alone: each trial's
    randomness is a pure function of (seed, trial index).  ``workers`` is
    accepted for compatibility and has no effect.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if oracle is None:
        oracle = OracleConfig()
    records = tuple(_run_trials(seed, range(trials), oracle, scale))
    passed = all(not rec.failures for rec in records)
    return VerificationReport(trials=trials, seed=seed, scale=scale,
                              oracle=oracle, records=records, passed=passed)


# ---------------------------------------------------------------------------
# ensemble scan


@dataclass(frozen=True)
class ScanRow:
    index: int
    s: float
    k1: float
    k2: float
    k3: float
    w3_plus: float
    w3_minus: float
    hypothesis_a: bool
    hypothesis_b: bool
    nnic: bool


@dataclass(frozen=True)
class ScanReport:
    model: str
    trials: int
    seed: int
    rows: tuple[ScanRow, ...] = field(repr=False)

    def summary(self) -> dict:
        n = len(self.rows)
        return {
            "trials": n,
            "frac_hypothesis_A": sum(r.hypothesis_a for r in self.rows) / n,
            "frac_hypothesis_B": sum(r.hypothesis_b for r in self.rows) / n,
            "frac_nnic": sum(r.nnic for r in self.rows) / n,
        }


def _scan_rows(inv: Invariants, indices) -> list[ScanRow]:
    """Rows of a scan, read off an invariants pass (row i of ``inv`` per index)."""
    columns = zip(indices, inv.s.tolist(), inv.k.tolist(),
                  inv.weyl_plus[:, 2].tolist(), inv.weyl_minus[:, 2].tolist(),
                  inv.hypothesis_a.tolist(), inv.hypothesis_b.tolist(), inv.nnic.tolist())
    return [ScanRow(index=index, s=s, k1=k[0], k2=k[1], k3=k[2],
                    w3_plus=w3p, w3_minus=w3m,
                    hypothesis_a=hyp_a, hypothesis_b=hyp_b, nnic=nnic)
            for index, s, k, w3p, w3m, hyp_a, hyp_b, nnic in columns]


def scan_row(op: CurvatureOperator, index: int) -> ScanRow:
    return _scan_rows(invariants(op.matrix[None]), [index])[0]


def run_scan(spec: ModelSpec, trials: int, seed: int, workers: int = 1) -> ScanReport:
    """Per-tensor invariants over an ensemble drawn from a model family.

    ``random_bianchi`` draws a fresh tensor per trial from derived subseeds;
    deterministic models repeat the same tensor on every row.  All rows come
    from one invariants pass.  ``workers`` is accepted for compatibility and
    has no effect.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if spec.name == "random_bianchi":
        matrices = np.stack([trial_operator(seed, i, spec.parameters[0]).matrix
                             for i in range(trials)])
    else:
        matrices = np.broadcast_to(make_operator(spec).matrix, (trials, 6, 6))
    rows = _scan_rows(invariants(matrices), range(trials))
    return ScanReport(model=spec.label(), trials=trials, seed=seed, rows=tuple(rows))
