"""The native solver core must work in a SciPy-free environment.

``auto`` documents a fallback to the native core when SciPy is missing — that
fallback is only real if importing :mod:`repro.milp` and solving through the
native/structured paths never touches SciPy.  This test runs a fresh
interpreter with a meta-path hook that blocks every ``scipy`` import and
exercises an LP, a MILP and a placement form end to end, then a short
WaterWise simulation whose capacity-bound rounds all solve as min-cost flows.
"""

import pathlib
import subprocess
import sys

_BLOCK_SCIPY = r"""
import sys

class _BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked in this test ({name})")
        return None

sys.meta_path.insert(0, _BlockScipy())
"""

_SCRIPT = _BLOCK_SCIPY + r"""
import numpy as np

from repro.milp import Problem, Variable, VarType, solve
from repro.core.config import WaterWiseConfig
from repro.core.objective import build_placement_form
from repro.milp.solver import solve_standard_form
from repro.milp.status import SolveStatus

# LP through the auto dispatch (scipy missing -> native fallback).
prob = Problem("lp")
x = Variable("x", low=0.0, up=4.0)
y = Variable("y", low=0.0)
prob.set_objective(-2 * x - 3 * y)
prob.add_constraint(x + y <= 5)
result = solve(prob, solver="auto")
assert result.status is SolveStatus.OPTIMAL, result.status
assert result.solver == "native", result.solver
assert abs(result.objective - (-3 * 5)) < 1e-9, result.objective  # x=0, y=5

# MILP through the native branch & bound.
milp = Problem("milp")
a = Variable("a", var_type=VarType.INTEGER, low=0, up=3)
b = Variable("b", var_type=VarType.INTEGER, low=0, up=3)
milp.set_objective(-1.7 * a - 1.1 * b)
milp.add_constraint(1.9 * a + 0.9 * b <= 4.0)
result = solve(milp, solver="auto")
assert result.status is SolveStatus.OPTIMAL, result.status

# A placement form through the structured path (saturated -> the min-cost
# flow relaxation, which never needs scipy).
rng = np.random.default_rng(0)
m, n = 9, 3
form = build_placement_form(
    rng.uniform(0, 2, (m, n)), rng.uniform(0, 0.4, (m, n)), np.full(m, 0.5),
    np.ones(m), np.full(n, 4.0), WaterWiseConfig(),
)
status, xvec, objective, _i, _nodes, solver, _t = solve_standard_form(form, solver="auto")
assert status is SolveStatus.OPTIMAL, status
assert solver == "structured", solver
assert np.isfinite(objective)
print("OK")
"""


_WATERWISE_SCRIPT = _BLOCK_SCIPY + r"""
from repro.cluster.capacity import servers_for_target_utilization
from repro.cluster.multi import MultiPolicyRunner
from repro.schedulers import make_scheduler
from repro.sustainability.datasets import ElectricityMapsLikeProvider
from repro.traces.scenarios import scenario_source

source = scenario_source("diurnal", seed=3, rate_per_hour=1400.0, duration_days=0.1)
dataset = ElectricityMapsLikeProvider(horizon_hours=72, seed=3)
scheduler = make_scheduler("waterwise")
result = MultiPolicyRunner(
    source, [("waterwise", scheduler)], dataset=dataset, delay_tolerance=0.25,
    servers_per_region=servers_for_target_utilization(source, dataset.region_keys),
).run()["waterwise"]
stats = result.solver_stats
assert stats["structured_lp"] > 0, stats
assert stats["structured_bb"] == 0, stats
assert scheduler.controller.rounds_fallback == 0
assert "scipy" not in sys.modules or sys.modules["scipy"] is None
print("OK")
"""


def _run_without_scipy(script: str) -> None:
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, f"stdout={proc.stdout}\nstderr={proc.stderr}"
    assert proc.stdout.strip().endswith("OK")


def test_native_core_runs_without_scipy():
    _run_without_scipy(_SCRIPT)


def test_waterwise_capacity_bound_rounds_need_no_scipy():
    _run_without_scipy(_WATERWISE_SCRIPT)
