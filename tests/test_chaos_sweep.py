"""The chaos smoke runner over every registered sweep.

``tools/chaos_sweep.py`` storms a named sweep with seeded first-attempt
faults on a process pool and requires the recovered result to equal a
clean run; traced, it also checks every attempt event against the
injected schedule. Running it here keeps each registered sweep's fault
recovery in the tier-1 suite, not only in the benchmark smoke pass.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.scenarios import sweep_names

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "chaos_sweep.py"


@pytest.fixture(scope="module")
def chaos_sweep():
    spec = importlib.util.spec_from_file_location("chaos_sweep", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sweep_names())
def test_storm_recovers_bit_identical(chaos_sweep, name, tmp_path, capsys):
    trace = tmp_path / "chaos.jsonl"
    assert chaos_sweep.main(["--sweep", name, "--trace-out", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "chaos: OK" in out and "chaos: trace OK" in out
    assert "injecting nothing" not in out
