"""Golden-file regression tests for the CLI.

``python -m repro simulate --engine batch --scenario <name>`` must emit
byte-identical output for a fixed seed: the trace generators, the
sustainability dataset, the engine and the report formatting are all
deterministic, so any diff against the goldens means observable behaviour
changed.  Regenerate a golden deliberately with::

    PYTHONPATH=src python -m repro simulate ... > tests/golden/<file>.txt
"""

from pathlib import Path

import pytest

from repro.analysis import sweep
from repro.cli import main

from .equivalence import oracle_simulate

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_COMMANDS = {
    "simulate_diurnal.txt": [
        "simulate", "--engine", "batch", "--scenario", "diurnal",
        "--policies", "baseline", "ecovisor-like",
        "--jobs-per-hour", "30", "--hours", "6", "--seed", "11",
    ],
    "simulate_heavy_tail.txt": [
        "simulate", "--engine", "batch", "--scenario", "heavy-tail",
        "--policies", "baseline", "waterwise",
        "--jobs-per-hour", "20", "--hours", "6", "--seed", "11",
    ],
    "simulate_ml_training.txt": [
        "simulate", "--engine", "batch", "--scenario", "ml-training",
        "--policies", "baseline", "least-load", "carbon-greedy-opt",
        "--jobs-per-hour", "8", "--hours", "6", "--seed", "11",
    ],
    # Chaos smoke run: a region-outage timeline through the batch engine —
    # covers the --chaos auto-threading (the scenario carries its own spec),
    # the chaos header line and the fault-injected totals.
    "simulate_region_outage.txt": [
        "simulate", "--engine", "batch", "--scenario", "region-outage",
        "--policies", "baseline", "least-load",
        "--jobs-per-hour", "40", "--hours", "6", "--seed", "11",
    ],
    "scenarios.txt": ["scenarios"],
}

#: Goldens that simulate without a chaos timeline (the oracle has none).
ORACLE_GOLDENS = (
    "simulate_diurnal.txt", "simulate_heavy_tail.txt", "simulate_ml_training.txt",
)


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_COMMANDS))
def test_cli_output_is_byte_stable(golden_name, capsys):
    assert main(GOLDEN_COMMANDS[golden_name]) == 0
    output = capsys.readouterr().out
    expected = (GOLDEN_DIR / golden_name).read_text(encoding="utf-8")
    assert output == expected


def test_golden_runs_are_repeatable(capsys):
    """Two in-process runs of the same command emit identical bytes."""
    argv = GOLDEN_COMMANDS["simulate_diurnal.txt"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_scenario_engines_agree_on_reported_totals(capsys, monkeypatch):
    """The CLI's batch output equals the object-world oracle's, byte for byte."""
    argv = [
        "simulate", "--engine", "batch", "--scenario", "region-skew",
        "--policies", "baseline", "--jobs-per-hour", "20", "--hours", "4", "--seed", "5",
    ]
    assert main(argv) == 0
    engine_output = capsys.readouterr().out
    calls: list[str] = []
    monkeypatch.setattr(sweep, "simulate", oracle_simulate(calls))
    assert main(argv) == 0
    assert calls == ["baseline"]
    assert capsys.readouterr().out == engine_output


@pytest.mark.parametrize("golden_name", sorted(ORACLE_GOLDENS))
def test_oracle_reproduces_golden(golden_name, capsys, monkeypatch):
    """Every chaos-free golden is also what the object-world oracle prints."""
    calls: list[str] = []
    monkeypatch.setattr(sweep, "simulate", oracle_simulate(calls))
    assert main(GOLDEN_COMMANDS[golden_name]) == 0
    assert calls, "the oracle must actually simulate"
    expected = (GOLDEN_DIR / golden_name).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
