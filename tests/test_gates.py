"""The byte gates of ``tools/gates.py``: every one of its commands prints the
output whose sha256 prefix the script's ``GATES`` table holds, and so does
every quick oracle gate when the coarse phase runs on the calling thread."""

import importlib.util
from pathlib import Path

import pytest

from curv4 import oracle

_SPEC = importlib.util.spec_from_file_location(
    "gates", Path(__file__).resolve().parents[1] / "tools" / "gates.py")
gates = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gates)

#: The oracle gates that take over a second each on a 2-vCPU host; the
#: others take under 0.3 s.
_SLOW = {"verify --trials 500 --seed 7 --json", "verify --seed 1 --samples 20000 --json"}


@pytest.mark.parametrize("command", list(gates.GATES))
def test_output_matches_its_gate(command):
    assert gates.gate(command)[0] == gates.GATES[command]


@pytest.mark.parametrize("command", [c for c in gates.GATES
                                     if gates.is_oracle_gate(c) and c not in _SLOW])
def test_oracle_gate_matches_on_one_worker(monkeypatch, command):
    """The one-CPU path, with no helper thread; ``test_output_matches_its_gate``
    runs the same command on the CPUs this process has."""
    monkeypatch.setattr(oracle, "_cpu_count", lambda: 1)
    assert gates.gate(command)[0] == gates.GATES[command]
