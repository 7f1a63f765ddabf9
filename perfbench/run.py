"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs the same workload with span wrappers around ``repro``'s
public entry points (see ``spans.py``) and reports the per-layer metrics,
the tracing overhead and the rows' sum check instead.  Lines starting with
``#`` describe the run (environment, sample counts, checks); the last line
is the JSON result.  Workloads and their reasons are listed in
``BENCHMARK.json``; ``README.md`` next to this file explains each metric.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import benchstats  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("paper-sweep", "stress-fabric", "outage-stream", "gateway-tcp")

#: The tail latency is printed on the ``# decision_latency`` line but is not
#: an end-to-end metric: on a shared 2-core VM its spread over 10 runs of
#: ``gateway-tcp`` reached 0.40 of its median, past the largest bound allowed.
END_TO_END = {
    "jobs_policies_per_s": "1/s",
    "max_sustained_jobs_per_s": "1/s",
    "decision_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Fresh processes timed for ``setup_s``; their median is reported.
SETUP_PROBES = 3


def info(label: str, payload) -> None:
    print(f"# {label} {json.dumps(payload, sort_keys=True)}", flush=True)


def environment(kernel_stats) -> dict:
    import numpy

    scipy_spec = importlib.util.find_spec("scipy")
    scipy_version = None
    if scipy_spec is not None:
        import scipy

        scipy_version = scipy.__version__
    tiers = sorted({
        (payload["kernel"], bool(payload["compiled_active"]))
        for payload in kernel_stats if payload
    })
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_tiers": [{"kernel": k, "compiled_active": c} for k, c in tiers],
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def probe_setup_s(workload: str, seed: int) -> float:
    """Wall seconds of a fresh interpreter doing the workload's set-up, engine included."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        check=True, stdout=subprocess.DEVNULL, env=child_env(),
    )
    return time.perf_counter() - started


def throughput(reps, parts: int) -> tuple[float, float]:
    """``(job x policy pairs, jobs)`` per wall second over one pass of every stream.

    Each stream's wall is the median over its repetitions.
    """
    walls = [statistics.median(rep.wall_s for rep in reps if rep.part == part)
             for part in range(parts)]
    first = [next(rep for rep in reps if rep.part == part) for part in range(parts)]
    pairs = sum(rep.jobs * rep.policies for rep in first)
    jobs = sum(rep.jobs for rep in first)
    return pairs / sum(walls), jobs / sum(walls)


def quality(results: dict) -> dict[str, float]:
    import workloads

    out = {name: 0.0 for name in layers.UNITS if name.startswith("quality.")}
    if "waterwise" in results and "baseline" in results:
        carbon, water, violation = workloads.waterwise_quality(results)
        out["quality.waterwise_carbon_saving_pct"] = carbon
        out["quality.waterwise_water_saving_pct"] = water
        out["quality.waterwise_violation_pct"] = violation
    if "baseline" in results:
        out["quality.baseline_violation_pct"] = 100.0 * results["baseline"].violation_fraction
    return out


# -- simulation workloads ----------------------------------------------------------------


def simulation_untraced(args, workdir: str):
    import workloads

    setup = [probe_setup_s(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    workload = workloads.SIMULATIONS[args.workload](args.seed, workdir)
    workload.prepare()
    reps = []
    started = time.perf_counter()
    while len(reps) < workload.parts or time.perf_counter() - started < args.seconds:
        reps.append(workload.rep(part=len(reps) % workload.parts))

    decisions = [s for rep in reps for s in rep.decision_s]
    p50, tail, tail_p, samples = workloads.decision_latency_ms(decisions)
    pairs_per_s, jobs_per_s = throughput(reps, workload.parts)
    metrics = {
        "jobs_policies_per_s": pairs_per_s,
        "max_sustained_jobs_per_s": jobs_per_s,
        "decision_p50_ms": p50,
        # This process, and for the fabric its worker processes; the set-up
        # probes and the fabric's reference run are separate processes.
        "peak_rss_mb": max([workloads.process_peak_rss_mb()]
                           + [rep.worker_rss_mb for rep in reps]),
        "setup_s": statistics.median(setup),
    }
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    problems = [problem for rep in reps for problem in rep.problems]
    info("environment", environment(
        result.kernel_stats for rep in reps for result in rep.results.values()
    ))
    info("workload", {
        "name": args.workload, "seed": args.seed, "jobs": workload.jobs,
        "streams": workload.parts, "policies": len(workload.policies), "reps": len(reps),
        "rep_wall_s": [round(rep.wall_s, 4) for rep in reps],
        "setup_probes_s": [round(s, 4) for s in setup],
    })
    info("decision_latency", {
        "unit": ("per advance(chunk) of the engine" if args.workload == "outage-stream"
                 else "per scheduling round of waterwise"),
        "samples": samples,
        "decision_p50_ms": p50, "tail_percentile": tail_p, "tail_ms": tail,
    })
    info("failed_pct", {"value": benchstats.failed_pct(attempted, failed),
                        "failed": failed, "attempted": attempted})
    info("quality", quality(reps[-1].results))
    return metrics, attempted, failed, problems


def simulation_traced(args, workdir: str):
    import workloads

    workload = workloads.SIMULATIONS[args.workload](args.seed, workdir)
    workload.prepare()
    fabric = args.workload == "stress-fabric"
    tracer = spans.Tracer()
    untraced, traced, worker_snapshots = [], [], []
    started = time.perf_counter()
    # Untraced and traced repetitions of the same stream run in pairs.
    while len(traced) < workload.parts or time.perf_counter() - started < args.seconds:
        part = len(traced) % workload.parts
        untraced.append(workload.rep(part=part))
        span_dir = os.path.join(workdir, f"spans-{len(traced)}")
        os.makedirs(span_dir)
        installation = spans.install(tracer, span_dir if fabric else None)
        try:
            traced.append(workload.rep(tracer, part=part))
        finally:
            installation.remove()
        worker_snapshots.extend(workloads.read_worker_spans(span_dir))

    problems = [problem for rep in untraced + traced for problem in rep.problems]
    snapshot = spans.merge_snapshots([tracer.snapshot(), *worker_snapshots])
    results = [result for rep in traced for result in rep.results.values()]
    overhead = 100.0 * (statistics.median(
        t.wall_s / u.wall_s for t, u in zip(traced, untraced)
    ) - 1.0)
    metrics = layers.layer_metrics(
        snapshot,
        lanes=workloads.FABRIC_WORKERS if fabric else 1,
        reps=len(traced),
        results=results,
        rounds=sum(len(result.round_times_s) for result in results),
        overhead_pct=overhead,
        problems=problems,
        idle_from_shards=fabric,
    )
    metrics.update(gateway_zeros())
    metrics.update(quality(traced[-1].results))
    attempted = sum(rep.attempted for rep in untraced + traced)
    failed = sum(rep.failed for rep in untraced + traced)
    info("environment", environment(result.kernel_stats for result in results))
    info("trace", {
        "name": args.workload, "seed": args.seed, "traced_reps": len(traced),
        "untraced_reps": len(untraced),
        "traced_wall_s": [round(rep.wall_s, 4) for rep in traced],
        "untraced_wall_s": [round(rep.wall_s, 4) for rep in untraced],
    })
    return metrics, attempted, failed, problems


def gateway_zeros() -> dict[str, float]:
    return {name: 0.0 for name in ("gateway.wire_s", "gateway.batches", "gateway.ticks",
                                   "loadgen.late_ms")}


# -- gateway workload --------------------------------------------------------------------


def gateway_untraced(args):
    import gatewayconfig as config
    import loadgen

    setup = [loadgen.probe_setup_s(args.seed) for _ in range(SETUP_PROBES)]
    session, ready, report = loadgen.serve_and_drive(
        args.seed, loadgen.capacity_plan, args.seconds, trace=False
    )
    reference = session.phases[0]
    latencies = sorted(reference.latencies_ms())
    tail_p, tail, beyond = benchstats.tail_percentile(latencies)
    saturation = session.saturation
    metrics = {
        # One policy, so jobs x policies per second is jobs per second.
        "jobs_policies_per_s": saturation.throughput_jobs_per_s() if saturation else 0.0,
        "max_sustained_jobs_per_s": session.max_sustained_jobs_per_s(),
        "decision_p50_ms": benchstats.nearest_rank(latencies, 50.0),
        "peak_rss_mb": report.get("peak_rss_mb", 0.0),
        "setup_s": statistics.median(setup),
    }
    attempted = session.jobs()
    failed = session.failed_jobs()
    problems = loadgen.server_problems(report, attempted)
    if saturation is None or not session.healthy():
        problems.append("the server stopped answering before the bisection ended")
    info("environment", environment([report.get("kernel_stats")]))
    info("workload", {
        "name": args.workload, "seed": args.seed, "batch_jobs": config.BATCH_JOBS,
        "clock_rate": config.CLOCK_RATE, "servers_per_region": ready["servers_per_region"],
        "latency_limit_ms": config.LATENCY_LIMIT_MS,
        "setup_probes_s": [round(s, 4) for s in setup],
    })
    for phase in session.phases:
        info("phase", loadgen.describe(phase))
    if saturation is not None:
        info("saturation", {
            "window": config.SATURATION_WINDOW, "batches": len(saturation.batches),
            "warmup_excluded": saturation.warmup,
            "answered_jobs_per_s": saturation.throughput_jobs_per_s(),
            "failed_jobs": saturation.failed_jobs(),
        })
    info("decision_latency", {
        "unit": "batch reply from its due send time, reference rate",
        "samples": len(latencies), "warmup_excluded": reference.warmup,
        "decision_p50_ms": metrics["decision_p50_ms"], "tail_percentile": tail_p,
        "tail_ms": tail, "beyond_tail": beyond,
    })
    info("failed_pct", {"value": benchstats.failed_pct(attempted, failed),
                        "failed": failed, "attempted": attempted})
    return metrics, attempted, failed, problems


def gateway_traced(args):
    import loadgen

    runs = [loadgen.serve_and_drive(args.seed, loadgen.reference_plan, args.seconds / 2.0,
                                    trace=trace)
            for trace in (False, True)]
    (plain, _ready, plain_report), (traced, _ready, report) = runs
    attempted = plain.jobs() + traced.jobs()
    failed = plain.failed_jobs() + traced.failed_jobs()
    problems = loadgen.server_problems(plain_report, plain.jobs())
    problems += loadgen.server_problems(report, traced.jobs())
    p50 = [benchstats.nearest_rank(sorted(session.phases[0].latencies_ms()), 50.0)
           for session in (plain, traced)]
    reference = traced.phases[0]
    result = loadgen.ServerResult(report)
    metrics = layers.layer_metrics(
        report.get("spans", {"spans": [], "counters": {}}),
        lanes=1, reps=1, results=[result], rounds=report.get("rounds", 0),
        overhead_pct=100.0 * (p50[1] / p50[0] - 1.0), problems=problems,
    )
    stats = report.get("stats", {})
    metrics.update({
        "gateway.wire_s": reference.round_trip_total_s() - metrics["gateway.submit_s"],
        "gateway.batches": stats.get("batches", 0),
        "gateway.ticks": stats.get("ticks", 0),
        "loadgen.late_ms": statistics.fmean(reference.late_ms()),
    })
    metrics.update(quality({}))
    info("environment", environment([report.get("kernel_stats")]))
    info("trace", {"name": args.workload, "seed": args.seed,
                   "untraced_p50_ms": p50[0], "traced_p50_ms": p50[1],
                   "overhead_basis": "p50 latency at the reference rate"})
    return metrics, attempted, failed, problems


# -- entry point ---------------------------------------------------------------------------


def setup_probe(args, workdir: str) -> int:
    import workloads

    workloads.SIMULATIONS[args.workload](args.seed, workdir).build()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_probe:
            return setup_probe(args, workdir)
        if args.workload == "gateway-tcp":
            run = gateway_traced if args.trace else gateway_untraced
            metrics, attempted, failed, problems = run(args)
        else:
            run = simulation_traced if args.trace else simulation_untraced
            metrics, attempted, failed, problems = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    units = layers.UNITS if args.trace else END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        problems.append(f"metrics not measured: {sorted(missing)}")
    for problem in problems:
        info("problem", problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
