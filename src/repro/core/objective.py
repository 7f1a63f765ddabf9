"""Construction of the WaterWise placement MILP (Eq. 7–13).

Given a batch of M jobs, N candidate regions and the current sustainability
state, :func:`build_placement_problem` produces a
:class:`repro.milp.problem.Problem` with:

* binary placement variables ``x[m, n]``,
* the normalized carbon + water objective with the history-learner reference
  term (Eq. 8) and, in soft mode, the penalty terms (Eq. 12),
* the assignment constraint (Eq. 9), the per-region capacity constraint
  (Eq. 10), and the delay-tolerance constraint — hard (Eq. 11) or softened
  through per-(m, n) penalty variables (Eq. 13).

The per-job delay allowance is reduced by the time the job has already spent
waiting in previous rounds, so a job that was deferred keeps a consistent
end-to-end tolerance.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Sequence

import numpy as np

from repro.cluster.interface import SchedulingContext
from repro.core.config import WaterWiseConfig
from repro.milp import Problem, VarType, Variable, lin_sum
from repro.milp.problem import StandardForm
from repro.milp.sparse import CsrMatrix, SparseConstraints
from repro.milp.structure import PlacementStructure, attach_structure
from repro.traces.job import Job

__all__ = [
    "PlacementModel",
    "build_placement_problem",
    "placement_cost",
    "build_placement_form",
]

#: Footprint maxima below this are treated as "no signal" to avoid divide-by-zero.
_EPSILON = 1e-12


@dataclasses.dataclass
class PlacementModel:
    """The built MILP plus the bookkeeping needed to read the solution back."""

    problem: Problem
    jobs: tuple[Job, ...]
    region_keys: tuple[str, ...]
    x_names: np.ndarray  # (M, N) array of variable names
    penalty_names: np.ndarray | None  # (M, N) array or None in hard mode
    cost: np.ndarray  # (M, N) per-placement objective coefficients
    soft: bool

    def assignment_from_values(self, values: dict[str, float]) -> dict[int, str]:
        """Extract job → region assignments from a solved variable dictionary."""
        assignments: dict[int, str] = {}
        for m, job in enumerate(self.jobs):
            chosen = None
            best_value = 0.5  # binary variables: anything above 0.5 counts as selected
            for n, region in enumerate(self.region_keys):
                value = values.get(str(self.x_names[m, n]), 0.0)
                if value > best_value:
                    best_value = value
                    chosen = region
            if chosen is None:
                raise ValueError(f"no region selected for job {job.job_id} in MILP solution")
            assignments[job.job_id] = chosen
        return assignments


def _normalized(matrix: np.ndarray) -> np.ndarray:
    """Normalize each row by its maximum (the paper's per-job normalization)."""
    maxima = matrix.max(axis=1, keepdims=True)
    maxima = np.where(maxima > _EPSILON, maxima, 1.0)
    return matrix / maxima


def placement_cost(
    carbon: np.ndarray,
    water: np.ndarray,
    config: WaterWiseConfig,
    co2_ref: np.ndarray | None = None,
    h2o_ref: np.ndarray | None = None,
    extra_cost: np.ndarray | None = None,
) -> np.ndarray:
    """Per-placement objective coefficients (Eq. 7–8) from the M×N matrices.

    The single implementation of the cost formula, shared by the object-world
    :func:`build_placement_problem` and the engine's vectorized
    WaterWise fast path (:mod:`repro.core.fastpath`) so both produce
    bit-identical MILP objectives.
    """
    n_regions = carbon.shape[1]
    carbon_norm = _normalized(carbon)
    water_norm = _normalized(water)

    if co2_ref is None:
        co2_ref = np.zeros(n_regions)
    if h2o_ref is None:
        h2o_ref = np.zeros(n_regions)
    co2_ref = np.asarray(co2_ref, dtype=float)
    h2o_ref = np.asarray(h2o_ref, dtype=float)
    if co2_ref.shape != (n_regions,) or h2o_ref.shape != (n_regions,):
        raise ValueError("reference terms must have one entry per region")

    reference = config.lambda_ref * (
        config.lambda_co2 * co2_ref + config.lambda_h2o * h2o_ref
    )
    cost = (
        config.lambda_co2 * carbon_norm
        + config.lambda_h2o * water_norm
        + reference[None, :]
    )
    if extra_cost is not None:
        extra_cost = np.asarray(extra_cost, dtype=float)
        if extra_cost.shape != cost.shape:
            raise ValueError(
                f"extra_cost must have shape {cost.shape}, got {extra_cost.shape}"
            )
        cost = cost + extra_cost
    return cost


def build_placement_form(
    cost: np.ndarray,
    latency_ratio: np.ndarray,
    tolerance: np.ndarray,
    servers_required: np.ndarray,
    capacity: np.ndarray,
    config: WaterWiseConfig,
    soft: bool = False,
) -> StandardForm:
    """Array-world :func:`build_placement_problem`: the MILP as a ``StandardForm``.

    Produces exactly the arrays ``build_placement_problem(...).problem
    .to_standard_form()`` would — same variable order (``x`` placement
    binaries m-major/n-minor, then the soft penalty variables), same
    constraint order (assignment equalities, then capacity, then delay
    inequalities) and bit-identical coefficients — without constructing any
    ``Variable``/``Constraint`` objects.  Feeding both through
    :func:`repro.milp.solver.solve_standard_form` therefore yields the same
    solver behaviour; the differential harness locks this down.

    The work is O(M·N): the constraint blocks, which would be dense
    ``(M+N) × M·N`` arrays, are left to :meth:`StandardForm.from_blocks` and
    built as CSR only if a backend other than the structured path reads them
    (see :func:`_placement_blocks`).
    """
    m_jobs, n_regions = cost.shape
    n_x = m_jobs * n_regions
    n_vars = 2 * n_x if soft else n_x

    c = np.zeros(n_vars)
    c[:n_x] = cost.ravel()
    if soft:
        c[n_x:] = config.penalty_weight

    lower = np.zeros(n_vars)
    upper = np.ones(n_vars)
    integrality = np.zeros(n_vars, dtype=bool)
    integrality[:n_x] = True
    if soft:
        upper[n_x:] = np.inf

    struct = PlacementStructure(
        m_jobs=m_jobs,
        n_regions=n_regions,
        soft=soft,
        penalty_weight=float(config.penalty_weight) if soft else 0.0,
        cost=np.asarray(cost, dtype=float),
        latency_ratio=np.asarray(latency_ratio, dtype=float),
        tolerance=np.asarray(tolerance, dtype=float),
        servers=np.asarray(servers_required, dtype=float),
        capacity=np.asarray(capacity, dtype=float),
    )
    form = StandardForm.from_blocks(
        functools.partial(_placement_blocks, struct),
        c=c,
        # Eq. 10 (capacity) then Eq. 11/13 (delay) rows; Eq. 9 assignment rows.
        b_ub=np.concatenate([struct.capacity, struct.tolerance]),
        b_eq=np.ones(m_jobs),
        lower=lower,
        upper=upper,
        integrality=integrality,
    )
    # This function *is* the placement layout the structure-aware solver path
    # recognizes; attaching the matrices directly spares the per-round scan.
    return attach_structure(form, struct)


def _placement_blocks(struct: PlacementStructure) -> SparseConstraints:
    """CSR constraint blocks of a placement form, in the object model's row order.

    Eq. 9 assignment rows (``a_eq``), then Eq. 10 capacity rows and Eq. 11/13
    delay rows (``a_ub``).  Entries are kept in row-major order and zero
    coefficients (a job's home-region latency) are dropped, so the result is
    what ``SparseConstraints.from_arrays`` makes of the dense blocks.
    """
    m_jobs, n_regions = struct.m_jobs, struct.n_regions
    n_x = m_jobs * n_regions
    n_vars = 2 * n_x if struct.soft else n_x
    cols = np.arange(n_x)
    jobs_of = np.repeat(np.arange(m_jobs), n_regions)

    a_eq = CsrMatrix.from_coo((m_jobs, n_vars), jobs_of, cols, np.ones(n_x))

    rows = [np.tile(np.arange(n_regions), m_jobs), n_regions + jobs_of]
    ub_cols = [cols, cols]
    data = [np.repeat(struct.servers, n_regions), struct.latency_ratio.ravel()]
    if struct.soft:
        rows.append(n_regions + jobs_of)
        ub_cols.append(n_x + cols)
        data.append(np.full(n_x, -1.0))
    rows, ub_cols, data = (np.concatenate(part) for part in (rows, ub_cols, data))
    nonzero = data != 0.0
    a_ub = CsrMatrix.from_coo(
        (n_regions + m_jobs, n_vars), rows[nonzero], ub_cols[nonzero], data[nonzero]
    )
    return SparseConstraints(a_ub=a_ub, a_eq=a_eq)


def build_placement_problem(
    jobs: Sequence[Job],
    context: SchedulingContext,
    config: WaterWiseConfig,
    co2_ref: np.ndarray | None = None,
    h2o_ref: np.ndarray | None = None,
    soft: bool = False,
    extra_cost: np.ndarray | None = None,
) -> PlacementModel:
    """Build the placement MILP for one scheduling round.

    Parameters
    ----------
    jobs:
        Batch of jobs to place (already filtered by the slack manager when
        demand exceeds capacity).
    context:
        Scheduling context for the round.
    config:
        WaterWise configuration (weights, penalty weight).
    co2_ref / h2o_ref:
        Per-region history-learner reference terms; zeros when omitted.
    soft:
        Whether to build the soft-constraint variant (Eq. 12/13).
    extra_cost:
        Optional pre-weighted (M × N) additive objective term.  This is the
        hook used by extensions such as the cost-aware scheduler the paper's
        discussion section sketches; it must already be normalized/weighted by
        the caller.
    """
    if not jobs:
        raise ValueError("cannot build a placement problem for an empty batch")
    region_keys = tuple(context.region_keys)
    n_regions = len(region_keys)
    if n_regions == 0:
        raise ValueError("cannot build a placement problem without regions")
    jobs = tuple(jobs)
    m_jobs = len(jobs)

    carbon, water = context.footprints.footprint_matrices(jobs, region_keys, context.now)
    cost = placement_cost(
        carbon, water, config, co2_ref=co2_ref, h2o_ref=h2o_ref, extra_cost=extra_cost
    )

    # Transfer-latency ratio L_mn / t_mn and the per-job remaining tolerance.
    transfer = np.array(
        [[context.transfer_time(job, region) for region in region_keys] for job in jobs]
    )
    exec_times = np.array([job.execution_time for job in jobs])
    latency_ratio = transfer / exec_times[:, None]
    waited_ratio = np.array([context.wait_time(job) for job in jobs]) / exec_times
    tolerance = np.maximum(0.0, context.delay_tolerance - waited_ratio)

    problem = Problem(name="waterwise-placement")
    x_names = np.empty((m_jobs, n_regions), dtype=object)
    x_vars: list[list[Variable]] = []
    for m, job in enumerate(jobs):
        row = []
        for n, region in enumerate(region_keys):
            name = f"x_{job.job_id}_{region}"
            var = Variable(name, var_type=VarType.BINARY)
            problem.add_variable(var)
            x_names[m, n] = name
            row.append(var)
        x_vars.append(row)

    penalty_names: np.ndarray | None = None
    penalty_vars: list[list[Variable]] | None = None
    if soft:
        penalty_names = np.empty((m_jobs, n_regions), dtype=object)
        penalty_vars = []
        for m, job in enumerate(jobs):
            row = []
            for n, region in enumerate(region_keys):
                name = f"p_{job.job_id}_{region}"
                var = Variable(name, low=0.0)
                problem.add_variable(var)
                penalty_names[m, n] = name
                row.append(var)
            penalty_vars.append(row)

    # Objective: Eq. 8 (hard) or Eq. 12 (soft).
    objective_terms = [
        float(cost[m, n]) * x_vars[m][n] for m in range(m_jobs) for n in range(n_regions)
    ]
    if soft and penalty_vars is not None:
        objective_terms.extend(
            config.penalty_weight * penalty_vars[m][n]
            for m in range(m_jobs)
            for n in range(n_regions)
        )
    problem.set_objective(lin_sum(objective_terms))

    # Eq. 9: each job is placed in exactly one region.
    for m, job in enumerate(jobs):
        problem.add_constraint(lin_sum(x_vars[m]) == 1, name=f"assign_{job.job_id}")

    # Eq. 10: regional capacity.
    for n, region in enumerate(region_keys):
        capacity = int(context.capacity.get(region, 0))
        problem.add_constraint(
            lin_sum(job.servers_required * x_vars[m][n] for m, job in enumerate(jobs))
            <= capacity,
            name=f"capacity_{region}",
        )

    # Eq. 11 (hard) / Eq. 13 (soft): delay tolerance on the transfer latency.
    for m, job in enumerate(jobs):
        lhs_terms = [float(latency_ratio[m, n]) * x_vars[m][n] for n in range(n_regions)]
        if soft and penalty_vars is not None:
            lhs_terms.extend(-1.0 * penalty_vars[m][n] for n in range(n_regions))
        problem.add_constraint(
            lin_sum(lhs_terms) <= float(tolerance[m]), name=f"delay_{job.job_id}"
        )

    return PlacementModel(
        problem=problem,
        jobs=jobs,
        region_keys=region_keys,
        x_names=x_names,
        penalty_names=penalty_names,
        cost=cost,
        soft=soft,
    )
