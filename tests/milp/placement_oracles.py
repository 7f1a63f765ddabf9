"""Reference solvers for the collapsed placement problem (test oracles only).

:func:`repro.milp.structure.solve_placement` solves the capacity-bound
rounds' LP relaxation as a min-cost flow.  These oracles check it from
outside: HiGHS on the same relaxation (needs SciPy), and exhaustive
enumeration of every integer assignment for tiny instances.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np

from repro.milp.structure import _reduced_form


def effective_cost(struct) -> tuple[np.ndarray, np.ndarray]:
    """``(eff_cost, allowed)`` of a placement structure, as the solver folds them."""
    if struct.soft:
        allowed = np.ones((struct.m_jobs, struct.n_regions), dtype=bool)
        violation = np.maximum(0.0, struct.latency_ratio - struct.tolerance[:, None])
        return struct.cost + struct.penalty_weight * violation, allowed
    allowed = struct.latency_ratio <= struct.tolerance[:, None] + 1e-9
    return np.where(allowed, struct.cost, np.inf), allowed


def relaxation_form(eff_cost, servers, capacity):
    """The collapsed placement MILP over ``eff_cost`` (``inf`` = forbidden)."""
    m, n = eff_cost.shape
    shape = SimpleNamespace(
        m_jobs=m, n_regions=n, servers=np.asarray(servers, dtype=float),
        capacity=np.asarray(capacity, dtype=float),
    )
    return _reduced_form(shape, eff_cost, np.isfinite(eff_cost))


def highs_relaxation(eff_cost, servers, capacity) -> tuple[bool, float]:
    """HiGHS on the LP relaxation: ``(feasible, objective)``."""
    from scipy import optimize

    from repro.milp.scipy_backend import _as_scipy_csr

    reduced = relaxation_form(eff_cost, servers, capacity)
    result = optimize.linprog(
        reduced.c,
        A_ub=_as_scipy_csr(reduced.a_ub),
        b_ub=reduced.b_ub,
        A_eq=_as_scipy_csr(reduced.a_eq),
        b_eq=reduced.b_eq,
        bounds=np.stack([reduced.lower, reduced.upper], axis=1),
        method="highs",
    )
    if result.status == 2:
        return False, float("nan")
    assert result.status == 0, result.message
    return True, float(result.fun)


def highs_milp(eff_cost, servers, capacity) -> tuple[bool, float]:
    """HiGHS's MILP on the collapsed form: ``(feasible, objective)``."""
    from repro.milp.scipy_backend import solve_form_scipy
    from repro.milp.status import SolveStatus

    status, _x, objective, _nodes, _seconds = solve_form_scipy(
        relaxation_form(eff_cost, servers, capacity)
    )
    if status is SolveStatus.INFEASIBLE:
        return False, float("nan")
    assert status is SolveStatus.OPTIMAL, status
    return True, float(objective)


def brute_force(eff_cost, servers, capacity) -> tuple[bool, float]:
    """Best integer assignment by enumeration (≤ 8 jobs × ≤ 4 regions)."""
    m, n = eff_cost.shape
    assert m <= 8 and n <= 4, "enumeration is for tiny instances only"
    servers = np.asarray(servers, dtype=float)
    every = np.array(list(itertools.product(range(n), repeat=m)), dtype=np.int64)
    costs = eff_cost[np.arange(m), every].sum(axis=1)
    loads = np.stack([(servers * (every == r)).sum(axis=1) for r in range(n)], axis=1)
    ok = np.isfinite(costs) & (loads <= np.asarray(capacity) + 1e-9).all(axis=1)
    if not ok.any():
        return False, float("nan")
    return True, float(costs[ok].min())


def flow_objective(eff_cost, servers, flow) -> float:
    """Objective of a server-unit flow (``flow[j]``: region → units)."""
    total = 0.0
    for j, placed in enumerate(flow):
        if servers[j] == 0.0:
            (region,) = placed
            total += eff_cost[j, region]
            continue
        total += sum(eff_cost[j, r] * units / servers[j] for r, units in placed.items())
    return total


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))
