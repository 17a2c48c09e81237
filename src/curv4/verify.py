"""Randomized verification runs: oracle-vs-closed-form equivalence, the
trace identity, and the pinching-to-NNIC chain, over seeded ensembles.

Each trial owns derived subseeds for its tensor and its oracle searches, so
every result is a pure function of (seed, trial index).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .analyzer import implication_audit
from .core import Invariants, invariants
from .errors import ValidationError
from .models import ModelSpec, make_operator, random_bianchi_matrices
from .numerics import derive_seeds
from .oracle import MODES, SAMPLE_CHUNK, OracleConfig, Search, extremize_batch

#: Oracle-vs-closed-form agreement: absolute plus relative part.
ORACLE_ATOL = 1e-6
ORACLE_RTOL = 1e-6

#: Slack allowed before an oracle bound is declared unsound.
SOUNDNESS_SLACK = 1e-9

#: Trials whose oracle searches run as one batch; bounds a run's peak memory.
TRIAL_BLOCK = 100

#: Coarse samples per search when no budget is given: one chunk.  verify runs
#: only biorthogonal searches, whose objective has no spurious local minimum,
#: and ``tools/misses.py`` counts no search that misses k1 or k3 at this
#: budget.  ``analyze`` keeps :class:`OracleConfig`'s 20 000, since its
#: sectional and isotropic searches do have spurious minima.
DEFAULT_SAMPLES = SAMPLE_CHUNK

#: Most rows a scan takes: its invariants pass holds a (trials, 6, 6) float64
#: stack, whose size in bytes numpy must be able to address.
_MAX_SCAN_TRIALS = int(np.iinfo(np.intp).max) // (6 * 6 * 8)


@dataclass(frozen=True)
class TrialResult:
    """One trial's checks; its fields are the keys of its verify record."""

    trial: int
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
    oracle: OracleConfig
    records: tuple[TrialResult, ...]
    passed: bool

    def summary(self) -> dict:
        recs = self.records
        return {
            "trials": self.trials,
            "failures": sum(1 for r in recs if r.failures),
            "oracle_pass": sum(r.oracle_min_ok and r.oracle_max_ok and r.sound_ok for r in recs),
            "identity_pass": sum(r.identity_ok for r in recs),
            "chain_applicable": sum(r.chain_applicable for r in recs),
            "chain_pass": sum(r.nnic_ok and r.chain_ok for r in recs if r.chain_applicable),
        }


def trial_matrices(seed: int, indices, scale: float = 1.0) -> np.ndarray:
    """The matrices of the random curvature tensors examined by trials
    ``indices`` of a run, drawn as one (N, 6, 6) stack."""
    return random_bianchi_matrices(derive_seeds(seed, indices, 0).tolist(), scale)


def _close(value: float, target: float) -> bool:
    return abs(value - target) <= ORACLE_ATOL + ORACLE_RTOL * abs(target)


def _trial_record(trial: int, inv: Invariants, lo, hi) -> TrialResult:
    """Every verification check on one trial's tensor, given its one-row
    invariants pass and its oracle extrema."""
    k1, k2, k3 = inv.k[0].tolist()
    s = float(inv.s[0])
    failures: list[str] = []

    identity_ok = bool(abs(k1 + k2 + k3 - s / 4.0) <= inv.band[0])
    if not identity_ok:
        failures.append("trace identity k1+k2+k3 = s/4 violated")

    oracle_min_ok = _close(lo.value, k1)
    oracle_max_ok = _close(hi.value, k3)
    if not oracle_min_ok:
        failures.append(f"oracle min {lo.value!r} != k1 {k1!r}")
    if not oracle_max_ok:
        failures.append(f"oracle max {hi.value!r} != k3 {k3!r}")
    sound_ok = (lo.value >= k1 - SOUNDNESS_SLACK and hi.value <= k3 + SOUNDNESS_SLACK)
    if not sound_ok:
        failures.append("oracle extremum escapes the closed-form range")

    chain = implication_audit(inv)
    nnic_ok = True
    chain_ok = True
    if chain.applicable:
        nnic_ok = bool(inv.nnic[0])
        if not nnic_ok:
            failures.append("pinching hypothesis held but NNIC criterion failed")
        chain_ok = chain.all_satisfied
        if not chain_ok:
            failures.append("implication chain inequality violated")

    return TrialResult(
        trial=trial, s=s, k1=k1, k2=k2, k3=k3,
        oracle_min=lo.value, oracle_max=hi.value,
        identity_ok=identity_ok, oracle_min_ok=oracle_min_ok,
        oracle_max_ok=oracle_max_ok, sound_ok=sound_ok,
        chain_applicable=chain.applicable, nnic_ok=nnic_ok, chain_ok=chain_ok,
        failures=tuple(failures),
    )


def _run_trials(seed: int, indices, oracle: OracleConfig) -> list[TrialResult]:
    """Trials ``indices`` of a run: one invariants pass and one batch of
    oracle searches for all of them."""
    matrices = trial_matrices(seed, indices)
    inv = invariants(matrices)
    configs = [replace(oracle, seed=s) for s in derive_seeds(seed, indices, 1).tolist()]
    searches = [Search(m, "biorthogonal", mode, cfg)
                for m, cfg in zip(matrices, configs) for mode in MODES]
    extrema = extremize_batch(searches)
    return [_trial_record(i, inv.row(n), extrema[2 * n], extrema[2 * n + 1])
            for n, i in enumerate(indices)]


def run_verification(trials: int, seed: int,
                     oracle: OracleConfig | None = None) -> VerificationReport:
    """Run ``trials`` independent verification trials.

    ``oracle`` defaults to :data:`DEFAULT_SAMPLES` samples per search and
    :class:`OracleConfig`'s other defaults.  Each block of
    :data:`TRIAL_BLOCK` trials takes one invariants pass and runs its oracle
    searches as one batch, which leaves every record as it would be if its
    trial ran alone: each trial's randomness is a pure function of (seed,
    trial index).
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if oracle is None:
        oracle = OracleConfig(samples=DEFAULT_SAMPLES)
    records: list[TrialResult] = []
    for start in range(0, trials, TRIAL_BLOCK):
        records += _run_trials(seed, range(start, min(start + TRIAL_BLOCK, trials)), oracle)
    passed = all(not rec.failures for rec in records)
    return VerificationReport(trials=trials, seed=seed, oracle=oracle,
                              records=tuple(records), passed=passed)


# ---------------------------------------------------------------------------
# ensemble scan


@dataclass(frozen=True)
class ScanReport:
    """A scan's one invariants pass; row i of each column is trial i."""

    model: str
    trials: int
    seed: int
    invariants: Invariants = field(repr=False)

    def summary(self) -> dict:
        inv = self.invariants
        n = len(inv.s)
        return {
            "trials": n,
            "frac_hypothesis_A": int(np.count_nonzero(inv.hypothesis_a)) / n,
            "frac_hypothesis_B": int(np.count_nonzero(inv.hypothesis_b)) / n,
            "frac_nnic": int(np.count_nonzero(inv.nnic)) / n,
        }


def run_scan(spec: ModelSpec, trials: int, seed: int) -> ScanReport:
    """Per-tensor invariants over an ensemble drawn from a model family.

    ``random_bianchi`` draws a fresh tensor per trial from derived subseeds,
    all in one batch; deterministic models repeat the same tensor on every
    row.  All rows come from one invariants pass, which the report keeps.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if trials > _MAX_SCAN_TRIALS:
        raise ValidationError(f"trials must be at most {_MAX_SCAN_TRIALS}, the most rows "
                              f"a scan can address, got {trials}")
    if spec.name == "random_bianchi":
        matrices = trial_matrices(seed, range(trials), spec.parameters[0])
    else:
        matrices = np.broadcast_to(make_operator(spec).matrix, (trials, 6, 6))
    return ScanReport(model=spec.label(), trials=trials, seed=seed,
                      invariants=invariants(matrices))
