"""The paper figures do not depend on which simulator computes them.

Every experiment simulates through :func:`repro.analysis.sweep.simulate`,
i.e. through the engine (:class:`~repro.cluster.streaming.StreamingSimulator`).
Re-routing ``simulate`` through the object-world oracle must print the same
tables, and nothing in ``src/`` may reach the oracle in the test tree.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.analysis import experiments, studies, sweep
from repro.analysis.sweep import ExperimentScale
from tests.oracles.simulator import Simulator

from ..equivalence import oracle_simulate

TINY = ExperimentScale(rate_per_hour=30.0, duration_days=0.1, seed=42)

FIGURES = [
    experiments.fig5_waterwise_google,
    experiments.fig7_ecovisor,
    studies.table2_service_time,
]


@pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.__name__)
def test_figure_tables_match_the_oracle(figure, monkeypatch):
    def refuse(self):
        raise AssertionError(f"{figure.__name__} reached the test oracle from src/")

    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "run", refuse)
        engine_table = figure(scale=TINY).table()

    calls: list[str] = []
    monkeypatch.setattr(sweep, "simulate", oracle_simulate(calls))
    oracle_table = figure(scale=TINY).table()
    assert calls, "the oracle run must actually simulate"
    assert engine_table == oracle_table


def test_src_never_imports_the_test_tree():
    package = Path(repro.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.relative_to(package)}: {name}"
                for name in names
                if name == "tests" or name.startswith("tests.")
            ]
    assert offenders == []
