"""The batched oracle driver: a search's result does not depend on the batch
it runs in, so every view over the driver matches its searches run alone."""

import numpy as np
import pytest

from curv4.analyzer import AnalyzeConfig, analyze
from curv4.core import Plane
from curv4.errors import ValidationError
from curv4.models import cp2, random_bianchi
from curv4.numerics import RngStream
from curv4.oracle import (OracleConfig, Search, extremize_batch, extremize_pair,
                          min_isotropic)
from curv4.verify import run_trial, run_verification

SMALL = OracleConfig(samples=3000, refine_iters=60, restarts=2, seed=5)


def same_result(a, b) -> bool:
    if isinstance(a.witness, Plane):
        witness_eq = (np.array_equal(a.witness.u, b.witness.u)
                      and np.array_equal(a.witness.v, b.witness.v))
    else:
        witness_eq = np.array_equal(a.witness, b.witness)
    return (a.value == b.value and witness_eq
            and a.samples_used == b.samples_used and a.converged == b.converged)


def assert_matches_alone(searches):
    batch = extremize_batch(searches)
    assert len(batch) == len(searches)
    for search, result in zip(searches, batch):
        assert same_result(result, extremize_batch([search])[0]), search


def test_verification_records_equal_single_trials():
    report = run_verification(trials=6, seed=3)
    assert report.records == tuple(run_trial(3, i, OracleConfig()) for i in range(6))


def test_analyze_oracle_equals_standalone_searches():
    op = random_bianchi(RngStream(17))
    cfg = OracleConfig(seed=4)
    report = analyze(op, AnalyzeConfig(run_oracle=True, oracle=cfg))
    lo, hi = extremize_pair(op, "sectional", cfg)
    assert same_result(report.sectional_extrema[0], lo)
    assert same_result(report.sectional_extrema[1], hi)
    assert same_result(report.iso_min, min_isotropic(op, cfg))


def test_mixed_batch_equals_searches_alone():
    a, b = random_bianchi(RngStream(1)), random_bianchi(RngStream(2))
    other = OracleConfig(samples=2500, refine_iters=35, restarts=4,
                         step_init=0.5, step_decay=0.8, seed=5)
    assert_matches_alone([
        Search(a.matrix, "biorthogonal", "min", SMALL),
        Search(b.matrix, "isotropic", "min", SMALL),
        Search(a.matrix, "sectional", "max", OracleConfig(samples=2000, seed=9)),
        Search(b.matrix, "biorthogonal", "max", other),   # same seed, other budget
        Search(cp2(1.0).matrix, "sectional", "min", other),
        Search(a.matrix, "biorthogonal", "min", SMALL),   # a duplicate
    ])


def test_unrefined_searches_in_a_batch():
    op = random_bianchi(RngStream(8))
    searches = [
        Search(op.matrix, "biorthogonal", "min", OracleConfig(samples=900, restarts=0, seed=2)),
        Search(op.matrix, "isotropic", "min", OracleConfig(samples=900, refine_iters=0, seed=2)),
        Search(op.matrix, "sectional", "max", SMALL),
    ]
    assert_matches_alone(searches)
    unrefined = extremize_batch(searches)[:2]
    assert all(res.samples_used == 900 and not res.converged for res in unrefined)
    assert isinstance(unrefined[1].witness, np.ndarray)
    assert not unrefined[1].witness.flags.writeable


def test_search_is_validated():
    m = np.eye(6)
    with pytest.raises(ValidationError):
        Search(m, "ricci", "min")
    with pytest.raises(ValidationError):
        Search(m, "isotropic", "sup")
