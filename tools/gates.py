"""Byte gates: the sha256 of the output of twenty-eight fixed curv4 commands.

Run from anywhere, with the checkout's own ``src`` on the import path:

    python3 tools/gates.py

Each command runs in-process through ``curv4.cli.main`` with stdout and
stderr captured.  One line is printed per command: the first 16 hex digits
of the sha256 of its stdout followed by its stderr, its exit code, the
command, its in-process wall time, the minor page faults the process took
while it ran (the change in ``resource.getrusage``'s ``ru_minflt``, which
counts faults of every thread of the process), and the voluntary context
switches it made (the change in ``ru_nvcsw``: mostly a thread giving up the
GIL to another, or waiting on one).  Every output is a pure function of its seeds, and the
script holds the hash each output is expected to have: a line whose hash
differs ends in ``MISMATCH (expected ...)`` and the script exits with status
1.  A change that moves an output on purpose updates its hash in
:data:`GATES`.  After the last gate the script prints the process's peak
resident set size over the whole run (``ru_maxrss``).  The times, fault and
switch counts and peak RSS are not checked and are only a rough guide: the first
command also pays for building the CLI parser and for the first touch of
the memory the process goes on to reuse, and the peak is that of the
largest command, with every earlier command's leftovers.

The oracle runs on up to two workers, the calling thread and a helper
thread, no more than the CPUs available to the process, so the oracle gates
(``verify`` and ``analyze --run-oracle``) then run once more with the
process pinned to one CPU, where no helper is started and the calling thread
runs all oracle work.
Those lines end in ``pinned to CPU n``, and are checked against the same
expected hashes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from curv4.cli import main  # noqa: E402

#: Each command and the sha256 prefix its output is expected to have.  A
#: change that moves an output on purpose updates the hash here.
GATES = {
    "scan --seed 1": "7cd70645187c650f",
    "scan --trials 20000 --seed 1": "50ab7f62cc46bc3e",
    # A fixed model: one matrix broadcast to every row.
    "scan --model cp2 --trials 5 --seed 1": "2fd4b0df43d2fe03",
    # Run entropy of two words: the largest seed.
    "scan --trials 5 --seed 18446744073709551615": "0decc9ae0bef13cb",
    # Rows whose float sum overflows.
    "scan --model random_bianchi:2e307 --trials 20 --seed 1": "3456eee830645e18",
    # Tiny rows: every float's repr has a negative exponent.
    "scan --model random_bianchi:1e-150 --trials 50 --seed 2": "bcea2b5c8261eb6f",
    "verify --trials 500 --seed 7 --json": "4a73a8d63c4d6e43",
    # A 50-trial second block, whose polish is cut into two parts of 25 trials.
    "verify --trials 150 --seed 5 --json": "eb691ff94e2136e8",
    "verify --seed 1 --json": "ebd9d1bfe8979201",
    "verify --seed 1 --text": "1954a4ff8f25a66b",
    # verify at analyze's 20 000-sample budget.
    "verify --seed 1 --samples 20000 --json": "cb8be45d71a37e61",
    "analyze --model cp2 --run-oracle --json": "d48300e46e19918d",
    "analyze --model random_bianchi:1 --seed 3 --run-oracle --json": "551604d5147cc1ee",
    "analyze --model random_bianchi:1 --seed 3 --text": "6a1c026160554385",
    # The text report's sectional-extrema, minimum-check and isotropic lines.
    "analyze --model random_bianchi:1 --seed 3 --run-oracle --text": "97b6f9d11546cab8",
    # s < 0, so the chain is not applicable.
    "analyze --model space_form:-1 --json": "2049a549c3b6f26d",
    # Both hypotheses fail, and NNIC holds on margins of -1.1e-16, inside the band.
    "analyze --model product --text": "25b45d344d56955e",
    # An applicable chain as text: 16 steps under both hypotheses.
    "analyze --model cp2 --text": "6afbfe728924365d",
    # Budgets that end a coarse pass on a partial chunk.
    "analyze --model random_bianchi:1 --seed 3 --run-oracle --samples 2049 --json":
        "9fb8def25518f09e",
    "verify --trials 3 --seed 2 --samples 4097 --json": "9f70ffc1925e439c",
    # The coarse phase alone: each search reports its best sample.
    "verify --seed 1 --refine 0 --json": "52cb37d1e37e0f0b",
    "analyze --model random_bianchi:1 --seed 3 --run-oracle --refine 0 --json":
        "c49b060438d558bc",
    # Near the float64 limit: the oracle searches at a power-of-two scale.
    "analyze --model random_bianchi:1e307 --run-oracle --json": "2eebd318fee31a4d",
    # More restarts than one selection block: pools walked past their first block.
    "verify --trials 20 --seed 3 --restarts 20 --json": "1c0868a2d710fb95",
    # Failing trials: the text view's "trial N: FAIL" lines, exit 2.
    "verify --trials 20 --seed 3 --refine 0 --text": "17f8bf84ec33285f",
    # The flat tensor: every coarse value ties.
    "analyze --model flat --run-oracle --json": "4df33ba9194d20f3",
    # Draws the validator rejects, on stderr with exit 1: non-finite entries,
    # and finite entries whose symmetrization overflows.
    "scan --model random_bianchi:1e308 --trials 5 --seed 1": "cbfa41e98be302b1",
    "scan --model random_bianchi:6e307 --trials 50 --seed 1": "a84d519561aa6245",
}


def _usage() -> tuple[int, int]:
    """The process's minor page faults and voluntary context switches so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_minflt, usage.ru_nvcsw


def gate(command: str) -> tuple[str, int, float, int, int]:
    """The sha256 prefix of ``curv4 COMMAND``'s stdout followed by its
    stderr, its exit code, its wall time in seconds, and the minor page faults
    and voluntary context switches taken while it ran."""
    out, err = io.StringIO(), io.StringIO()
    before = _usage()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    wall = time.perf_counter() - start
    faults, switches = (now - then for now, then in zip(_usage(), before))
    digest = hashlib.sha256((out.getvalue() + err.getvalue()).encode()).hexdigest()[:16]
    return digest, code, wall, faults, switches


def is_oracle_gate(command: str) -> bool:
    return command.startswith("verify") or "--run-oracle" in command.split()


def check(command: str, note: str = "") -> bool:
    """Run one gate, print its line, and return whether its hash is the
    expected one."""
    digest, code, wall, faults, switches = gate(command)
    expected = GATES[command]
    flag = "" if digest == expected else f"  MISMATCH (expected {expected})"
    print(f"{digest}  {code}  {command}  {wall:.3f}s  {faults} faults  {switches} switches"
          f"{note}{flag}", flush=True)
    return not flag


def peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MiB: ``ru_maxrss``,
    which Linux gives in KiB and macOS in bytes."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (2**20 if sys.platform == "darwin" else 2**10)


def run() -> int:
    mismatches = sum(not check(command) for command in GATES)
    if hasattr(os, "sched_setaffinity"):
        saved = os.sched_getaffinity(0)
        cpu = min(saved)
        os.sched_setaffinity(0, {cpu})
        try:
            mismatches += sum(not check(command, f"  pinned to CPU {cpu}")
                              for command in filter(is_oracle_gate, GATES))
        finally:
            os.sched_setaffinity(0, saved)
    else:
        print("note: os.sched_setaffinity is not available here; the oracle gates "
              "were not re-run on one CPU", flush=True)
    print(f"peak RSS {peak_rss_mb():.1f} MiB", flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(run())
