"""Solver-core microbenchmark: presolve, warm starts, wall time per round.

Two measurements feed ``BENCH_solver.json``:

* **waterwise_auto** — a full WaterWise batch run over the standard
  Alibaba-style trace, reporting the decision controller's
  :class:`~repro.milp.session.SolverSession` counters: how many rounds the
  structured path answered trivially / with the LP relaxation / with branch &
  bound, warm-start hit rates and iteration counts, and the solver wall time
  per scheduling round.
* **native_core** — the presolve + revised-simplex core alone on a fixed,
  seeded sample of placement forms (slack and saturated), reporting the
  presolve row/column reduction ratios and the cold-vs-warm iteration gap.

The JSON is compared against the checked-in baseline
(``benchmarks/BENCH_solver_baseline.json``) with a *soft* threshold: a
regression prints a loud warning (and fails the run only under ``--strict``),
so noisy CI runners cannot flake the build while the trajectory stays
visible.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_solver.py                  # 4000 jobs
    PYTHONPATH=src python benchmarks/bench_solver.py --jobs 2000      # CI smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro.cluster import StreamingSimulator
from repro.core.config import WaterWiseConfig
from repro.core.objective import build_placement_form
from repro.milp.session import SolverSession
from repro.milp.solver import solve_standard_form
from repro.schedulers import make_scheduler
from repro.sustainability import ElectricityMapsLikeProvider
from repro.traces.alibaba import AlibabaTraceGenerator
from repro.traces.stream import TraceView

#: Soft regression threshold: warn when a headline metric is this much worse
#: than the checked-in baseline.
REGRESSION_FACTOR = 1.5

_HEADLINE_HIGHER_IS_WORSE = (
    "wall_time_per_round_s",
    "presolve_row_ratio",
)


def run_waterwise(jobs: int, seed: int, servers: int) -> dict:
    """Full batch run; returns the session stats plus round timing."""
    trace = AlibabaTraceGenerator(
        rate_per_hour=jobs / 24.0, duration_days=1.0, seed=seed
    ).generate()
    dataset = ElectricityMapsLikeProvider(horizon_hours=72, seed=seed)
    simulator = StreamingSimulator(
        TraceView(trace), make_scheduler("waterwise"), dataset=dataset,
        servers_per_region=servers, collect="full",
    )
    started = time.perf_counter()
    result = simulator.run()
    wall = time.perf_counter() - started
    stats = dict(result.solver_stats or {})
    stats["engine_wall_s"] = wall
    stats["jobs"] = len(trace)
    stats["rounds"] = len(result.decision_times_s)
    stats["decision_time_total_s"] = float(np.sum(result.decision_times_s))
    return stats


def run_native_core(seed: int, rounds: int = 60) -> dict:
    """Presolve + revised simplex on seeded placement forms (no dispatch)."""
    rng = np.random.default_rng(seed)
    session = SolverSession()
    config = WaterWiseConfig()
    for i in range(rounds):
        m = int(rng.integers(4, 24))
        n = int(rng.integers(3, 6))
        cost = rng.uniform(0.0, 2.0, (m, n))
        latency = rng.uniform(0.0, 1.2, (m, n))
        tolerance = rng.uniform(0.2, 1.0, m)
        servers = rng.integers(1, 4, m).astype(float)
        tight = i % 3 == 2
        capacity = (
            np.full(n, max(1.0, 0.5 * float(servers.sum()) / n))
            if tight
            else np.full(n, float(servers.sum()) + 4.0)
        )
        form = build_placement_form(
            cost, latency, tolerance, servers, capacity, config, soft=bool(i % 2)
        )
        solve_standard_form(form, solver="native", session=session)
    return session.stats.as_dict()


def headline(waterwise: dict, native: dict) -> dict:
    rounds = max(1, int(waterwise.get("rounds", 1)))
    solves = max(1, int(waterwise.get("solves", 1)))
    return {
        "wall_time_per_round_s": waterwise.get("solve_time_s", 0.0) / rounds,
        "structured_hit_rate": (
            waterwise.get("structured_trivial", 0) + waterwise.get("structured_lp", 0)
        ) / solves,
        "iterations_saved_per_warm_start": native.get(
            "iterations_saved_per_warm_start", 0.0
        ),
        "presolve_row_ratio": native.get("presolve_row_ratio", 1.0),
        "presolve_col_ratio": native.get("presolve_col_ratio", 1.0),
    }


def compare_to_baseline(head: dict, baseline_path: pathlib.Path) -> list[str]:
    """Soft-threshold comparison; returns the list of regression messages."""
    if not baseline_path.exists():
        return []
    baseline = json.loads(baseline_path.read_text()).get("headline", {})
    problems = []
    for key in _HEADLINE_HIGHER_IS_WORSE:
        base = baseline.get(key)
        now = head.get(key)
        if base is None or now is None or base <= 0.0:
            continue
        if now > base * REGRESSION_FACTOR:
            problems.append(
                f"{key}: {now:.6f} vs baseline {base:.6f} "
                f"(> {REGRESSION_FACTOR:.1f}x threshold)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4000, help="approximate trace size")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--servers", type=int, default=200, help="servers per region")
    parser.add_argument(
        "--output", default="BENCH_solver.json", help="where to write the report"
    )
    parser.add_argument(
        "--baseline",
        default=str(pathlib.Path(__file__).parent / "BENCH_solver_baseline.json"),
        help="checked-in baseline for the soft regression check",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on a soft-threshold regression (default: warn only)",
    )
    args = parser.parse_args(argv)

    waterwise = run_waterwise(args.jobs, args.seed, args.servers)
    native = run_native_core(args.seed)
    head = headline(waterwise, native)
    report = {
        "jobs": args.jobs,
        "seed": args.seed,
        "headline": head,
        "waterwise_auto": waterwise,
        "native_core": native,
    }
    output = pathlib.Path(args.output)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    for key, value in head.items():
        print(f"  {key:<34} {value:.6f}")

    problems = compare_to_baseline(head, pathlib.Path(args.baseline))
    for message in problems:
        print(f"  !! regression: {message}")
    if problems and not args.strict:
        print("  (soft threshold: reported but not failing; use --strict to enforce)")
    return 1 if (problems and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
