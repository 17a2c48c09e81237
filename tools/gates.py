"""Byte gates: the sha256 of the output of twelve fixed curv4 commands.

Run from anywhere, with the checkout's own ``src`` on the import path:

    python3 tools/gates.py

Each command runs in-process through ``curv4.cli.main`` with stdout
captured.  One line is printed per command: the first 16 hex digits of the
sha256 of its stdout, its exit code, the command, and its in-process wall
time.  Every output is a pure function of its seeds, so running this script
on two commits shows which gates a change moves; the times are only a rough
guide, since the first command also pays for building the CLI parser.

The oracle's coarse chunks run on up to two of the CPUs available to the
process, so the oracle gates (``verify`` and ``analyze --run-oracle``) then
run once more with the process pinned to one CPU, which runs every chunk on
the calling thread.  Those lines end in ``pinned to CPU n``, and in ``MISMATCH`` when
the hash differs from the unpinned run; the script then exits with status 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from curv4.cli import main  # noqa: E402

GATES = (
    "scan --seed 1",
    "scan --trials 20000 --seed 1",
    # A fixed model: one matrix broadcast to every row.
    "scan --model cp2 --trials 5 --seed 1",
    # Rows whose float sum overflows, written through json.
    "scan --model random_bianchi:2e307 --trials 20 --seed 1",
    "verify --trials 500 --seed 7 --json",
    "verify --seed 1 --json",
    "verify --seed 1 --text",
    "analyze --model cp2 --run-oracle --json",
    "analyze --model random_bianchi:1 --seed 3 --run-oracle --json",
    "analyze --model random_bianchi:1 --seed 3 --text",
    # Budgets that end a coarse pass on a partial chunk.
    "analyze --model random_bianchi:1 --seed 3 --run-oracle --samples 2049 --json",
    "verify --trials 3 --seed 2 --samples 4097 --json",
)


def gate(command: str) -> tuple[str, int, float]:
    """The sha256 prefix of ``curv4 COMMAND``'s stdout, its exit code, and
    its wall time in seconds."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    wall = time.perf_counter() - start
    return hashlib.sha256(out.getvalue().encode()).hexdigest()[:16], code, wall


def is_oracle_gate(command: str) -> bool:
    return command.startswith("verify") or "--run-oracle" in command.split()


def run() -> int:
    digests = {}
    for command in GATES:
        digest, code, wall = gate(command)
        digests[command] = digest
        print(f"{digest}  {code}  {command}  {wall:.3f}s", flush=True)
    if not hasattr(os, "sched_setaffinity"):
        print("note: os.sched_setaffinity is not available here; the oracle gates "
              "were not re-run on one CPU", flush=True)
        return 0
    mismatches = 0
    saved = os.sched_getaffinity(0)
    cpu = min(saved)
    os.sched_setaffinity(0, {cpu})
    try:
        for command in filter(is_oracle_gate, GATES):
            digest, code, wall = gate(command)
            flag = "" if digest == digests[command] else "  MISMATCH"
            mismatches += bool(flag)
            print(f"{digest}  {code}  {command}  {wall:.3f}s  pinned to CPU {cpu}{flag}",
                  flush=True)
    finally:
        os.sched_setaffinity(0, saved)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(run())
