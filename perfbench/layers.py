"""Per-layer metrics of a traced run, and the check that they add up to its wall.

Layer rows are self times of spans on the accounted lanes: the measuring
process's main thread for the in-process workloads, the two worker
processes for ``stress-fabric`` and the server process for
``gateway-tcp``.  Over ``lanes`` lanes of ``trace.wall_s`` each, the rows,
``fabric.worker_idle_s`` and ``other_s`` sum to ``trace.lane_wall_s``.
"""

from __future__ import annotations

import spans

#: Metric -> span whose self time it reports.  Every span recorded on an
#: accounted lane must appear here, or the rows could not add up.
SELF_ROWS = {
    "traces.chunk_s": "traces.chunk",
    "engine.advance_self_s": "engine.advance",
    "engine.finalize_s": "engine.finalize",
    "kernel.process_until_s": "kernel.process_until",
    "decision.fast_path_self_s": "decision.fast_path",
    "decision.footprint_matrices_s": "decision.footprint_matrices",
    "decision.decide_arrays_self_s": "decision.decide_arrays",
    "decision.slack_admit_s": "decision.slack_admit",
    "milp.solve_s": "milp.solve",
    "collect.integrate_batch_s": "collect.integrate_batch",
    "collect.job_stats_add_s": "collect.job_stats_add",
    "collect.footprint_add_s": "collect.footprint_add",
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.load_s": "checkpoint.load",
    "fabric.run_shard_s": "fabric.run_shard",
    "gateway.admit_s": "gateway.admit",
}

ROOT = "wall"

#: Every per-layer metric with its unit, in report order.
UNITS = {
    "trace.wall_s": "s",
    "trace.lanes": "count",
    "trace.lane_wall_s": "s",
    "trace.overhead_pct": "%",
    "other_s": "s",
    **{name: "s" for name in SELF_ROWS},
    "traces.chunks": "count",
    "engine.rounds": "count",
    "kernel.windows": "count",
    "kernel.clean_events": "count",
    "kernel.conveyor_events": "count",
    "kernel.replayed_events": "count",
    "kernel.vector_fraction": "ratio",
    "decision.rounds": "count",
    "decision.slack_rounds": "count",
    "decision.slack_lookups": "count",
    "decision.soft_rounds": "count",
    "milp.solves": "count",
    "milp.structured_trivial": "count",
    "milp.structured_lp": "count",
    "milp.structured_bb": "count",
    "milp.warm_starts": "count",
    "checkpoint.saves": "count",
    "checkpoint.bytes": "count",
    "fabric.leases": "count",
    "fabric.duplicate_leases": "count",
    "fabric.expired_leases": "count",
    "fabric.useful_lease_ratio": "ratio",
    "fabric.worker_idle_s": "s",
    "fabric.absorb_s": "s",
    "gateway.submit_s": "s",
    "gateway.wire_s": "s",
    "gateway.batches": "count",
    "gateway.ticks": "count",
    "loadgen.late_ms": "ms",
    "quality.waterwise_carbon_saving_pct": "%",
    "quality.waterwise_water_saving_pct": "%",
    "quality.waterwise_violation_pct": "%",
    "quality.baseline_violation_pct": "%",
}

_KERNEL_FIELDS = ("windows", "clean_events", "conveyor_events", "replayed_events",
                  "compiled_events")
_SOLVER_FIELDS = ("structured_trivial", "structured_lp", "structured_bb", "warm_starts")


def kernel_totals(kernel_stats) -> dict[str, float]:
    """Sum ``KernelStats.as_dict`` payloads; ``vector_fraction`` as KernelStats defines it."""
    totals = {field: 0 for field in _KERNEL_FIELDS}
    for payload in kernel_stats:
        if payload:
            for field in _KERNEL_FIELDS:
                totals[field] += payload[field]
    events = sum(totals[field] for field in _KERNEL_FIELDS[1:])
    totals["vector_fraction"] = totals["clean_events"] / events if events else 0.0
    return totals


def solver_totals(solver_stats) -> dict[str, float]:
    totals = {field: 0 for field in _SOLVER_FIELDS}
    for payload in solver_stats:
        if payload:
            for field in _SOLVER_FIELDS:
                totals[field] += payload[field]
    return totals


def layer_metrics(snapshot: dict, lanes: int, reps: int, results: list,
                  rounds: int, overhead_pct: float, problems: list[str],
                  idle_from_shards: bool = False) -> dict[str, float]:
    """Per-repetition layer metrics from a merged span snapshot of ``reps`` traced reps.

    ``results`` are the traced repetitions' ``StreamResult``-like objects
    (anything with ``kernel_stats``/``solver_stats``); ``rounds`` the
    scheduling rounds they ran.  With ``idle_from_shards`` the lanes are
    fabric workers and their idle time is lane wall minus ``run_shard``
    time.  Appends to ``problems`` when the rows cannot add up.
    """
    table = spans.span_table(snapshot)
    counters = snapshot["counters"]

    def stat(lane: str, name: str) -> tuple[int, float, float]:
        return table.get((lane, name), (0, 0.0, 0.0))

    _count, wall, root_self = stat(spans.MAIN, ROOT)
    lane_wall = lanes * wall
    known = set(SELF_ROWS.values()) | {ROOT}
    for lane, name in table:
        if lane == spans.MAIN and name not in known:
            problems.append(f"span {name!r} on an accounted lane has no layer row")
    rows = {metric: stat(spans.MAIN, name)[2] for metric, name in SELF_ROWS.items()}
    idle = lane_wall - stat(spans.MAIN, "fabric.run_shard")[1] if idle_from_shards else 0.0
    other = lane_wall - sum(rows.values()) - idle
    tolerance = 1e-6 * max(1.0, lane_wall)
    # On one lane every layer span nests inside the root, so the time no
    # layer claimed must be exactly the root's own self time.
    if not idle_from_shards and abs(other - root_self) > tolerance:
        problems.append(f"rows leave {other:.6f} s but the root keeps {root_self:.6f} s")
    if other < -tolerance:
        problems.append(f"layer self times exceed the lane wall by {-other:.6f} s")

    kernel = kernel_totals(getattr(result, "kernel_stats", None) for result in results)
    solver = solver_totals(getattr(result, "solver_stats", None) for result in results)
    leases = counters.get("fabric.leases", 0)
    totals = {
        "trace.wall_s": wall,
        "trace.lane_wall_s": lane_wall,
        "other_s": other,
        **rows,
        "traces.chunks": counters.get("traces.chunk.items", 0),
        "engine.rounds": rounds,
        "kernel.windows": kernel["windows"],
        "kernel.clean_events": kernel["clean_events"],
        "kernel.conveyor_events": kernel["conveyor_events"],
        "kernel.replayed_events": kernel["replayed_events"],
        "decision.rounds": stat(spans.MAIN, "decision.fast_path")[0],
        "decision.slack_rounds": stat(spans.MAIN, "decision.slack_admit")[0],
        "decision.slack_lookups": counters.get("decision.slack_lookups", 0),
        "decision.soft_rounds": counters.get("decision.soft_rounds", 0),
        "milp.solves": stat(spans.MAIN, "milp.solve")[0],
        "milp.structured_trivial": solver["structured_trivial"],
        "milp.structured_lp": solver["structured_lp"],
        "milp.structured_bb": solver["structured_bb"],
        "milp.warm_starts": solver["warm_starts"],
        "checkpoint.saves": stat(spans.MAIN, "checkpoint.save")[0],
        "checkpoint.bytes": counters.get("checkpoint.bytes", 0),
        "fabric.leases": leases,
        "fabric.duplicate_leases": counters.get("fabric.duplicate_leases", 0),
        "fabric.expired_leases": counters.get("fabric.expired_leases", 0),
        "fabric.worker_idle_s": idle,
        "fabric.absorb_s": stat(spans.AUX, "fabric.absorb")[1],
        "gateway.submit_s": stat(spans.ASYNC, "gateway.submit")[1],
    }
    # Totals cover every traced repetition; report them per repetition.
    metrics = {name: value / reps for name, value in totals.items()}
    metrics["trace.lanes"] = lanes
    metrics["trace.overhead_pct"] = overhead_pct
    metrics["kernel.vector_fraction"] = kernel["vector_fraction"]
    metrics["fabric.useful_lease_ratio"] = (
        counters.get("fabric.accepted", 0) / leases if leases else 0.0
    )
    return metrics
