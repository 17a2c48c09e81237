"""Count the oracle's biorthogonal misses per coarse budget.

Run from anywhere, with the checkout's own ``src`` on the import path:

    python3 tools/misses.py [--seeds 1 7919] [--commands 200]
                            [--budgets 256 1024 2048 20000]

Command i of seed S is the benchmark's ``verify --seed S*1000003+i``: 100
trials, each with one biorthogonal min and one max search, run through
``verify.run_verification``.  A search misses when its value ends more than
1e-9 max(1, |k|) from its closed form, k1 for the min and k3 for the max.
The default 200 commands make 40 000 searches per (budget, seed) cell.

One table row is printed per cell: the searches, the misses, the worst gap
over max(1, |k|), and the cell's wall time.  The script exits with status 1
if any cell has a miss.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from curv4.oracle import OracleConfig  # noqa: E402
from curv4.verify import run_verification  # noqa: E402

#: A search further than this times max(1, |k|) from its closed form misses.
MISS_RTOL = 1e-9
#: Trials per command, verify's default ``--trials``.
TRIALS = 100


def command_gaps(seed: int, samples: int) -> np.ndarray:
    """The relative gap of each search of ``verify --seed SEED --samples
    SAMPLES``, min and max interleaved."""
    report = run_verification(TRIALS, seed, OracleConfig(samples=samples))
    got = np.array([(r.oracle_min, r.oracle_max) for r in report.records])
    want = np.array([(r.k1, r.k3) for r in report.records])
    return (np.abs(got - want) / np.maximum(1.0, np.abs(want))).ravel()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7919])
    parser.add_argument("--commands", type=int, default=200,
                        help="commands per seed, 100 trials each")
    parser.add_argument("--budgets", type=int, nargs="+", default=[256, 1024, 2048, 20000])
    args = parser.parse_args(argv)

    print("| samples | seed | searches | misses | worst gap / max(1, abs(k)) | seconds |")
    print("|---|---|---|---|---|---|", flush=True)
    missed = 0
    for samples in args.budgets:
        for seed in args.seeds:
            start = time.perf_counter()
            gaps = np.concatenate([command_gaps(seed * 1_000_003 + i, samples)
                                   for i in range(args.commands)])
            misses = int(np.count_nonzero(gaps > MISS_RTOL))
            missed += misses
            print(f"| {samples} | {seed} | {len(gaps)} | {misses} | {gaps.max():.1e} "
                  f"| {time.perf_counter() - start:.0f} |", flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
