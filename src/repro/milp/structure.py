"""Structure-aware solve path for WaterWise placement forms.

:func:`build_placement_problem` / :func:`build_placement_form` emit MILPs with
a rigid shape — assignment equalities, capacity rows, delay rows, optionally
per-placement penalty columns.  :func:`detect_placement` recognizes that shape
from the raw arrays alone (no side channel from the modeling layer) and
recovers the scheduling matrices; :func:`solve_placement` then exploits two
structural facts the generic solvers cannot see:

* **Delay rows couple to the assignment rows.**  Exactly one placement binary
  per job is 1, so a hard delay row forbids precisely the placements whose
  latency ratio exceeds the tolerance — and in soft mode the optimal penalty
  for a placement is ``σ · max(0, ratio − TOL)``, a constant that folds into
  the objective coefficient.  Either way the MILP collapses to a pure
  capacitated assignment (transportation) problem.
* **The collapsed problem is a transportation problem over N regions.**
  When every job's cheapest allowed region leaves capacity slack, the per-job
  argmin *is* the optimum — no solve at all.  Otherwise the LP relaxation is
  solved exactly as a min-cost flow in server units (job ``j`` supplies
  ``servers_j``, region ``r`` absorbs at most ``capacity_r``), with no LP
  solver and no SciPy.  The flow is integral because supplies and capacities
  are; a job split across regions (possible only with ``servers_j > 1``) is a
  fractional relaxation and falls back to branch & bound on the *collapsed*
  form.

The flow starts from the per-job argmin, a pseudo-flow whose reduced costs
are all ≥ 0, and pushes each overloaded region's excess, in region order,
along shortest paths to regions with slack.  The paths run over the N region
nodes: arc ``a → b`` costs ``min over jobs j in a of (c_jb − c_ja) / s_j``.
Each arc keeps a lazily-invalidated heap of its jobs, and a job that moves is
pushed only into its new region's heaps.  Moving a job back is a negative
arc, so paths come from Bellman-Ford; the residual graph never has a negative
cycle.  An excess that can reach no region with slack proves the relaxation,
and so the MILP, infeasible.

Tie rule among optimal solutions (the solver is deterministic, so decisions
are a pure function of the round's arrays):

* among equal-cost moves on an arc, the lowest job index moves first;
* among equally short paths to regions with slack, the lowest region index
  is the target;
* the per-job argmin breaks ties on the lowest region index.

Every answer is exact: the collapsed problem has the same integer feasible
set and objective values as the original MILP, so optima transfer verbatim.
"""

from __future__ import annotations

import dataclasses
import heapq
import time

import numpy as np

from repro.milp.problem import StandardForm
from repro.milp.session import SolverSession
from repro.milp.sparse import CsrMatrix
from repro.milp.status import SolveStatus

__all__ = ["PlacementStructure", "detect_placement", "solve_placement"]

_FEAS_TOL = 1e-9
#: Slack in the shortest-path relaxation, relative to the largest unit move
#: cost, so float round-off on a zero-cost cycle cannot pass as a shorter path.
_PATH_TOL = 1e-12
#: Fractional rounds whose collapsed form has more variables than this go to
#: HiGHS's MILP (when SciPy is importable) instead of the native B&B.
_HIGHS_BB_VARIABLES = 48


@dataclasses.dataclass(frozen=True)
class PlacementStructure:
    """The scheduling matrices recovered from a placement ``StandardForm``."""

    m_jobs: int
    n_regions: int
    soft: bool
    penalty_weight: float
    cost: np.ndarray  # (M, N)
    latency_ratio: np.ndarray  # (M, N)
    tolerance: np.ndarray  # (M,)
    servers: np.ndarray  # (M,)
    capacity: np.ndarray  # (N,)


def attach_structure(form: StandardForm, struct: PlacementStructure) -> StandardForm:
    """Cache a known structure on a form (used by ``build_placement_form``,
    which assembles the arrays *from* these matrices and therefore knows the
    structure by construction — re-deriving it would be pure overhead in the
    per-round hot path)."""
    object.__setattr__(form, "_placement_structure", struct)
    return form


def detect_placement(form: StandardForm) -> PlacementStructure | None:
    """Recognize the placement-MILP layout; ``None`` for anything else.

    The checks mirror :func:`repro.core.objective.build_placement_form` field
    for field, so a form that passes is *bit-identical* to one built there and
    the recovered matrices are exact.  Forms that were built by
    ``build_placement_form`` carry the structure directly (see
    :func:`attach_structure`) and skip the scan.
    """
    cached = form.__dict__.get("_placement_structure")
    if cached is not None:
        return cached
    if form.maximize or form.c0 != 0.0:
        return None
    if not isinstance(form.a_ub, np.ndarray) or not isinstance(form.a_eq, np.ndarray):
        return None  # the scan reads dense blocks (collapsed forms are CSR)
    m_jobs = form.a_eq.shape[0]
    if m_jobs == 0:
        return None
    n_regions = form.a_ub.shape[0] - m_jobs
    if n_regions <= 0:
        return None
    n_x = m_jobs * n_regions
    n_vars = form.num_variables
    if n_vars == n_x:
        soft = False
    elif n_vars == 2 * n_x:
        soft = True
    else:
        return None

    integrality = form.integrality
    if not integrality[:n_x].all() or integrality[n_x:].any():
        return None
    if (form.lower != 0.0).any():
        return None
    if (form.upper[:n_x] != 1.0).any() or not np.isinf(form.upper[n_x:]).all():
        return None
    if (form.b_eq != 1.0).any():
        return None

    # Assignment block: row m selects columns [m·N, (m+1)·N) with coefficient 1.
    eq_x = form.a_eq[:, :n_x].reshape(m_jobs, m_jobs, n_regions)
    diag = np.einsum("mmn->mn", eq_x)
    if (diag != 1.0).any() or np.count_nonzero(form.a_eq) != n_x:
        return None

    # Capacity block: column (m, n) has coefficient servers_m in capacity row n.
    cap_x = form.a_ub[:n_regions, :n_x].reshape(n_regions, m_jobs, n_regions)
    servers_mn = np.einsum("nmn->mn", cap_x)
    servers = servers_mn[:, 0]
    if (servers_mn != servers[:, None]).any() or (servers < 0.0).any():
        return None
    remainder = cap_x.copy()
    remainder[np.arange(n_regions), :, np.arange(n_regions)] = 0.0
    if remainder.any() or form.a_ub[:n_regions, n_x:].any():
        return None

    # Delay block: row N+m touches columns (m, ·) only, with ratios ≥ 0.
    delay_x = form.a_ub[n_regions:, :n_x].reshape(m_jobs, m_jobs, n_regions)
    latency = np.einsum("mmn->mn", delay_x).copy()
    if (latency < 0.0).any():
        return None
    remainder = delay_x.copy()
    remainder[np.arange(m_jobs), np.arange(m_jobs), :] = 0.0
    if remainder.any():
        return None

    penalty_weight = 0.0
    if soft:
        pen = form.a_ub[n_regions:, n_x:].reshape(m_jobs, m_jobs, n_regions)
        pen_diag = np.einsum("mmn->mn", pen)
        if (pen_diag != -1.0).any():
            return None
        remainder = pen.copy()
        remainder[np.arange(m_jobs), np.arange(m_jobs), :] = 0.0
        if remainder.any():
            return None
        penalty_weight = float(form.c[n_x])
        if penalty_weight < 0.0 or (form.c[n_x:] != penalty_weight).any():
            return None

    return PlacementStructure(
        m_jobs=m_jobs,
        n_regions=n_regions,
        soft=soft,
        penalty_weight=penalty_weight,
        cost=form.c[:n_x].reshape(m_jobs, n_regions).copy(),
        latency_ratio=latency,
        tolerance=form.b_ub[n_regions:].copy(),
        servers=servers.copy(),
        capacity=form.b_ub[:n_regions].copy(),
    )


def _assemble_solution(
    form: StandardForm, struct: PlacementStructure, chosen: np.ndarray
) -> tuple[np.ndarray, float]:
    """Full original-space solution vector (+ objective) for an assignment."""
    m, n = struct.m_jobs, struct.n_regions
    n_x = m * n
    x = np.zeros(form.num_variables)
    flat = np.arange(m) * n + chosen
    x[flat] = 1.0
    if struct.soft:
        violation = np.maximum(
            0.0, struct.latency_ratio[np.arange(m), chosen] - struct.tolerance
        )
        x[n_x + flat] = violation
    return x, float(form.c @ x)


def solve_placement(
    form: StandardForm,
    struct: PlacementStructure,
    session: SolverSession | None = None,
    node_limit: int = 10_000,
    time_limit: float | None = None,
) -> tuple[SolveStatus, np.ndarray, float, int, int, float]:
    """Solve a recognized placement form exactly.

    Returns ``(status, x, objective, iterations, nodes, solve_time)`` with
    ``x`` in the original variable space (placement binaries and, in soft
    mode, the penalty columns).
    """
    start = time.perf_counter()
    m, n = struct.m_jobs, struct.n_regions
    nan_x = np.full(form.num_variables, np.nan)
    stats = session.stats if session is not None else None
    if stats is not None:
        stats.solves += 1

    if struct.soft:
        allowed = np.ones((m, n), dtype=bool)
        eff_cost = struct.cost + struct.penalty_weight * np.maximum(
            0.0, struct.latency_ratio - struct.tolerance[:, None]
        )
    else:
        allowed = struct.latency_ratio <= struct.tolerance[:, None] + _FEAS_TOL
        if not allowed.any(axis=1).all():
            # Some job has no latency-feasible region: the MILP is infeasible
            # (the assignment equality cannot be met).
            if stats is not None:
                stats.structured_trivial += 1
                stats.solve_time_s += time.perf_counter() - start
            return SolveStatus.INFEASIBLE, nan_x, np.nan, 0, 0, time.perf_counter() - start
        eff_cost = np.where(allowed, struct.cost, np.inf)

    # -- trivial path: per-job argmin fits within capacity everywhere --------
    chosen = np.argmin(eff_cost, axis=1)
    loads = np.bincount(chosen, weights=struct.servers, minlength=n)
    if (loads <= struct.capacity + _FEAS_TOL).all():
        x, objective = _assemble_solution(form, struct, chosen)
        if stats is not None:
            stats.structured_trivial += 1
            stats.solve_time_s += time.perf_counter() - start
        return SolveStatus.OPTIMAL, x, objective, 0, 0, time.perf_counter() - start

    # -- capacity binds: min-cost flow repair of the argmin ------------------
    if stats is not None:
        stats.structured_lp += 1
    flow, augmentations = _transport_flow(eff_cost, struct.servers, struct.capacity, chosen, loads)
    if flow is None:
        if stats is not None:
            stats.solve_time_s += time.perf_counter() - start
        return (
            SolveStatus.INFEASIBLE, nan_x, np.nan, augmentations, 0,
            time.perf_counter() - start,
        )
    if all(len(placed) == 1 for placed in flow):
        chosen = np.fromiter((next(iter(placed)) for placed in flow), dtype=np.int64, count=m)
        x, objective = _assemble_solution(form, struct, chosen)
        if stats is not None:
            stats.solve_time_s += time.perf_counter() - start
        return SolveStatus.OPTIMAL, x, objective, augmentations, 0, \
            time.perf_counter() - start

    # -- fractional relaxation (a multi-server job split across regions):
    #    branch & bound on the collapsed form — native for small forms, HiGHS
    #    (when importable) for large ones.  The flow already spent part of the
    #    round's wall-clock budget, so only the remainder is handed on.
    reduced = _reduced_form(struct, eff_cost, allowed)
    remaining = None
    if time_limit is not None:
        remaining = max(0.0, time_limit - (time.perf_counter() - start))
    if reduced.num_variables > _HIGHS_BB_VARIABLES and _scipy_available():
        from repro.milp.scipy_backend import solve_form_scipy

        status, x_red, _objective, bb_nodes, _seconds = solve_form_scipy(
            reduced, time_limit=remaining
        )
        bb_iterations = bb_nodes
    else:
        from repro.milp.branch_and_bound import solve_milp_arrays

        bb = solve_milp_arrays(
            reduced, node_limit=node_limit, time_limit=remaining, session=session,
        )
        status, x_red, bb_nodes, bb_iterations = bb.status, bb.x, bb.nodes, bb.iterations
    bb_iterations += augmentations
    if stats is not None:
        stats.structured_bb += 1
        stats.bb_nodes += bb_nodes
        stats.solve_time_s += time.perf_counter() - start
    if not status.is_success and not np.all(np.isfinite(x_red)):
        return status, nan_x, np.nan, bb_iterations, bb_nodes, \
            time.perf_counter() - start
    # On a limit status branch & bound still returns its incumbent — map it
    # back (the limit status is preserved; callers decide what to do with it).
    placements = x_red.reshape(m, n)
    chosen = np.argmax(placements, axis=1)
    x, objective = _assemble_solution(form, struct, chosen)
    return status, x, objective, bb_iterations, bb_nodes, time.perf_counter() - start


def _scipy_available() -> bool:
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        return False
    return True


def _transport_flow(
    eff_cost: np.ndarray,
    servers: np.ndarray,
    capacity: np.ndarray,
    chosen: np.ndarray,
    loads: np.ndarray,
) -> tuple[list[dict[int, float]] | None, int]:
    """Exact LP relaxation of the collapsed placement problem as a min-cost flow.

    Starts from the per-job argmin ``chosen`` (region loads ``loads``) and
    pushes every overloaded region's excess, in region order, along shortest
    paths of the residual region graph to the nearest region with slack (see
    the module docstring for the graph and the tie rule).  Returns
    ``(flow, augmentations)``: ``flow[j]`` maps region → server units of job
    ``j``, and is ``None`` when an excess can reach no region with slack —
    the relaxation, hence the MILP, is infeasible.
    """
    m, n = eff_cost.shape
    servers_list = servers.tolist()
    cost_rows = eff_cost.tolist()
    flow = [{region: amount} for region, amount in zip(chosen.tolist(), servers_list)]

    # heaps[a][b]: (unit cost of moving j from a to b, j) for the jobs with
    # flow in a.  Entries go stale when j leaves a and are dropped lazily.
    # Zero-server jobs use no capacity, so they never move.
    movable = servers > 0.0
    unit = (eff_cost - eff_cost[np.arange(m), chosen][:, None]) / np.where(
        movable, servers, 1.0
    )[:, None]
    heaps: list[list[list[tuple[float, int]]]] = [[[] for _ in range(n)] for _ in range(n)]
    for a in range(n):
        jobs = np.flatnonzero(movable & (chosen == a))
        if not len(jobs):
            continue
        keys = unit[jobs]
        # A stable sort keeps equal keys in job order, and a sorted list is a
        # heap.  Forbidden targets (infinite keys) sort last and are cut.
        order = np.argsort(keys, axis=0, kind="stable")
        for b in range(n):
            if b != a:
                sorted_keys = keys[order[:, b], b]
                finite = int(np.isfinite(sorted_keys).sum())
                heaps[a][b] = list(zip(
                    sorted_keys[:finite].tolist(), jobs[order[:finite, b]].tolist()
                ))

    inf = float("inf")
    finite_unit = unit[np.isfinite(unit)]
    path_tol = _PATH_TOL * (1.0 + (float(np.abs(finite_unit).max()) if finite_unit.size else 0.0))
    # arc[a][b]: cost of the cheapest move a → b (inf: none), kept current
    # for the rows the last augmentation touched.
    arc = [[inf] * n for _ in range(n)]

    def refresh(a: int) -> None:
        row = arc[a]
        for b, heap in enumerate(heaps[a]):
            while heap and a not in flow[heap[0][1]]:
                heapq.heappop(heap)
            row[b] = heap[0][0] if heap else inf

    for a in range(n):
        refresh(a)
    excess = (loads - capacity).tolist()
    augmentations = 0
    for source in range(n):
        while excess[source] > _FEAS_TOL:
            # Bellman-Ford: moving a job back to a cheaper region is a
            # negative arc, but the residual graph has no negative cycle.
            dist = [inf] * n
            dist[source] = 0.0
            pred = [-1] * n
            for _ in range(n - 1):
                changed = False
                for a in range(n):
                    here = dist[a]
                    if here == inf:
                        continue
                    row = arc[a]
                    for b in range(n):
                        d = here + row[b]
                        if d + path_tol < dist[b]:
                            dist[b] = d
                            pred[b] = a
                            changed = True
                if not changed:
                    break
            target, best = -1, inf
            for t in range(n):
                if excess[t] < -_FEAS_TOL and dist[t] < best:
                    target, best = t, dist[t]
            if target < 0:
                return None, augmentations

            path = []
            node = target
            while node != source:
                if len(path) == n:  # unreachable without a negative cycle
                    raise RuntimeError("negative cycle in the residual region graph")
                a = pred[node]
                path.append((a, node, heaps[a][node][0][1]))
                node = a
            delta = min(excess[source], -excess[target], *(flow[j][a] for a, _b, j in path))
            for a, b, j in path:
                placed = flow[j]
                left = placed[a] - delta
                if left > _FEAS_TOL:
                    placed[a] = left
                else:
                    del placed[a]
                if b in placed:
                    placed[b] += delta
                    continue
                placed[b] = delta
                row, size, out = cost_rows[j], servers_list[j], arc[b]
                for x in range(n):
                    if x != b and row[x] != inf:
                        key = (row[x] - row[b]) / size
                        heapq.heappush(heaps[b][x], (key, j))
                        if key < out[x]:
                            out[x] = key
            for a, _b, _j in path:
                refresh(a)
            excess[source] -= delta
            excess[target] += delta
            augmentations += 1
    return flow, augmentations


def _reduced_form(
    struct: PlacementStructure, eff_cost: np.ndarray, allowed: np.ndarray
) -> StandardForm:
    """The collapsed capacitated-assignment MILP over the placement binaries.

    The constraint blocks are built directly in CSR (the dense blocks would
    be ``(M+N) × M·N`` mostly-zero arrays); disallowed placements are fixed
    through ``upper = 0`` (not an infinite objective coefficient) so the
    arrays stay finite for every backend.
    """
    m, n = struct.m_jobs, struct.n_regions
    n_x = m * n
    c = np.where(allowed, eff_cost, 0.0).ravel()

    cols = np.arange(n_x)
    a_eq = CsrMatrix.from_coo(
        (m, n_x), np.repeat(np.arange(m), n), cols, np.ones(n_x)
    )
    a_ub = CsrMatrix.from_coo(
        (n, n_x), np.tile(np.arange(n), m), cols, np.repeat(struct.servers, n)
    )

    return StandardForm(
        variables=(),
        c=c,
        c0=0.0,
        a_ub=a_ub,
        b_ub=struct.capacity.astype(float),
        a_eq=a_eq,
        b_eq=np.ones(m),
        lower=np.zeros(n_x),
        upper=allowed.astype(float).ravel(),
        integrality=np.ones(n_x, dtype=bool),
        maximize=False,
    )
