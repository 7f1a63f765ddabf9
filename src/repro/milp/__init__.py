"""MILP substrate: a PuLP-like modeling layer with pluggable exact solvers.

WaterWise formulates job placement as a Mixed Integer Linear Program (the
paper uses PuLP + GLPK).  This subpackage provides the same capability from
scratch:

* :mod:`repro.milp.expression` / :mod:`repro.milp.constraint` /
  :mod:`repro.milp.problem` — the modeling layer (variables, affine
  expressions, constraints, problems).
* :mod:`repro.milp.sparse` — CSR constraint data carried by every form.
* :mod:`repro.milp.presolve` — fixed-variable elimination, bound tightening
  and redundant-row removal ahead of the native solvers.
* :mod:`repro.milp.simplex` — the dense two-phase tableau simplex, kept as
  the slow reference implementation.
* :mod:`repro.milp.revised_simplex` — the production LP engine: a
  bounded-variable revised simplex with warm-start bases.
* :mod:`repro.milp.branch_and_bound` — best-first branch & bound with
  per-node warm starts on top of the revised simplex (or any injected LP
  solver).
* :mod:`repro.milp.structure` — the structure-aware path that recognizes
  WaterWise placement forms and solves them as capacitated assignment
  problems (a min-cost flow over the regions when capacity binds).
* :mod:`repro.milp.session` — :class:`~repro.milp.session.SolverSession`,
  the warm-start basis store threaded across scheduling rounds.
* :mod:`repro.milp.scipy_backend` — the same problems solved through SciPy's
  HiGHS bindings (``scipy.optimize.linprog`` / ``scipy.optimize.milp``).
* :mod:`repro.milp.solver` — the user-facing :func:`solve` dispatch.

All solver families are exact; they are cross-checked against each other in
the test suite so scheduling results do not depend on the backend choice.
"""

from repro.milp.constraint import Constraint, ConstraintSense
from repro.milp.expression import LinExpr, Variable, VarType, lin_sum
from repro.milp.problem import ObjectiveSense, Problem
from repro.milp.session import SolverSession, SolverStats
from repro.milp.solver import available_solvers, solve
from repro.milp.status import SolveResult, SolveStatus

__all__ = [
    "Constraint",
    "ConstraintSense",
    "LinExpr",
    "ObjectiveSense",
    "Problem",
    "SolveResult",
    "SolveStatus",
    "SolverSession",
    "SolverStats",
    "VarType",
    "Variable",
    "available_solvers",
    "lin_sum",
    "solve",
]
