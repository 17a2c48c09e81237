"""The byte gates of ``tools/gates.py``: every one of its commands prints the
output whose sha256 prefix the script's ``GATES`` table holds."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "gates", Path(__file__).resolve().parents[1] / "tools" / "gates.py")
gates = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gates)


@pytest.mark.parametrize("command", list(gates.GATES))
def test_output_matches_its_gate(command):
    assert gates.gate(command)[0] == gates.GATES[command]
