"""The batched oracle driver: a search's result does not depend on the batch
it runs in, so every caller of the driver matches its searches run alone."""

import numpy as np
import pytest

from curv4.analyzer import AnalyzeConfig, analyze
from curv4.errors import ValidationError
from curv4.models import cp2, random_bianchi
from curv4.oracle import MODES, OracleConfig, Search, extremize_batch
from curv4.verify import (DEFAULT_SAMPLES, TRIAL_BLOCK, _run_trials, run_verification,
                          trial_matrices)

SMALL = OracleConfig(samples=3000, refine_iters=60, restarts=2, seed=5)


def same_result(a, b) -> bool:
    return (a.value == b.value and np.array_equal(a.witness, b.witness)
            and a.samples_used == b.samples_used and a.converged == b.converged)


def assert_matches_alone(searches):
    batch = extremize_batch(searches)
    assert len(batch) == len(searches)
    for search, result in zip(searches, batch):
        assert same_result(result, extremize_batch([search])[0]), search


def test_verification_records_equal_single_trials():
    report = run_verification(trials=6, seed=3)
    cfg = OracleConfig(samples=DEFAULT_SAMPLES)
    assert report.records == tuple(_run_trials(3, [i], cfg)[0] for i in range(6))


def test_verification_across_a_trial_block_boundary():
    tiny = OracleConfig(samples=64, refine_iters=3, restarts=1)
    report = run_verification(trials=TRIAL_BLOCK + 2, seed=11, oracle=tiny)
    assert report.records == tuple(_run_trials(11, [i], tiny)[0] for i in range(TRIAL_BLOCK + 2))


def test_analyze_oracle_equals_standalone_searches():
    op = random_bianchi(17)
    cfg = OracleConfig(seed=4)
    report = analyze(op, AnalyzeConfig(run_oracle=True, oracle=cfg))
    got = (*report.sectional_extrema, report.iso_min)
    searches = [Search(op.matrix, "sectional", "min", cfg),
                Search(op.matrix, "sectional", "max", cfg),
                Search(op.matrix, "isotropic", "min", cfg)]
    for result, search in zip(got, searches):
        assert same_result(result, extremize_batch([search])[0]), search


def test_mixed_batch_equals_searches_alone():
    a, b = random_bianchi(1), random_bianchi(2)
    other = OracleConfig(samples=2500, refine_iters=35, restarts=4, seed=5)
    assert_matches_alone([
        Search(a.matrix, "biorthogonal", "min", SMALL),
        Search(b.matrix, "isotropic", "min", SMALL),
        Search(a.matrix, "sectional", "max", OracleConfig(samples=2000, seed=9)),
        Search(b.matrix, "biorthogonal", "max", other),   # same seed, other budget
        Search(cp2(1.0).matrix, "sectional", "min", other),
        Search(a.matrix, "biorthogonal", "min", SMALL),   # a duplicate
    ])


def test_one_polish_pass_equals_searches_alone():
    # One biorthogonal polish pass over more than 48 frames; searches with
    # 1, 2 and 3 candidate frames; min and max on one operator; one matrix
    # under several seeds; and sectional and isotropic searches beside them.
    matrices = trial_matrices(23, range(9))
    searches = [Search(m, "biorthogonal", mode, OracleConfig(samples=2048, seed=i))
                for i, m in enumerate(matrices) for mode in MODES]
    searches += [Search(matrices[0], "biorthogonal", "min", OracleConfig(samples=n, seed=40 + n))
                 for n in (1, 2)]
    searches += [Search(matrices[1], "biorthogonal", "max", OracleConfig(samples=2048, seed=seed))
                 for seed in (50, 51)]
    searches += [Search(matrices[2], "sectional", "min", OracleConfig(samples=2, seed=2)),
                 Search(matrices[2], "isotropic", "min", OracleConfig(samples=2048, seed=2)),
                 Search(matrices[3], "isotropic", "max", OracleConfig(samples=1, seed=60))]
    frames = sum(min(s.cfg.samples, s.cfg.restarts) for s in searches
                 if s.objective == "biorthogonal")
    assert frames > 48
    assert_matches_alone(searches)


def test_unrefined_searches_in_a_batch():
    op = random_bianchi(8)
    searches = [
        Search(op.matrix, "biorthogonal", "min", OracleConfig(samples=900, restarts=0, seed=2)),
        Search(op.matrix, "isotropic", "min", OracleConfig(samples=900, refine_iters=0, seed=2)),
        Search(op.matrix, "sectional", "max", SMALL),
    ]
    assert_matches_alone(searches)
    unrefined = extremize_batch(searches)[:2]
    assert all(res.samples_used == 900 and not res.converged for res in unrefined)
    for res in unrefined:
        assert type(res.witness) is np.ndarray and res.witness.shape == (4, 4)
        assert not res.witness.flags.writeable


def test_search_is_validated():
    m = np.eye(6)
    with pytest.raises(ValidationError):
        Search(m, "ricci", "min")
    with pytest.raises(ValidationError):
        Search(m, "isotropic", "sup")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_search_rejects_a_non_finite_matrix(bad):
    """The validator's own error, not numpy's failed eigensolve."""
    with pytest.raises(ValidationError, match="^matrix has non-finite entries$"):
        extremize_batch([Search(np.full((6, 6), bad), "sectional", "min")])
