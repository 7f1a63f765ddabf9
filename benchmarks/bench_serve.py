"""Admission-service benchmark: sustained throughput + decision latency.

Replays a diurnal trace sized to ``--jobs`` through the live admission
gateway — the identical ``admit()`` path a wall-clock service uses — in
fast-forward (``pace=0``), and reports sustained jobs/sec plus the
p50/p95/p99 per-decision latency the gateway's counters measured.  A second
case drives the TCP front end (``AdmissionServer``) with an in-process
client to measure the full JSON-over-socket round trip.

Each case runs in a fresh **subprocess** so one case's allocator state never
shades another's numbers.  Two hard gates back the acceptance criteria
regardless of baseline:

* the replayed digest must equal a one-shot engine run's on the same
  trace (decision identity is re-proved inside the measured run);
* every submitted job must receive exactly one decision.

Headline numbers land in ``BENCH_serve.json`` and are compared against the
checked-in ``benchmarks/BENCH_serve_baseline.json`` with a *soft* threshold
(warn; fail only under ``--strict``), like the other benchmarks.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_serve.py --jobs 10000
    PYTHONPATH=src python benchmarks/bench_serve.py --jobs 50000 --strict
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

RATE_PER_HOUR = 1400.0
SEED = 42

#: Soft regression threshold vs the checked-in baseline.
REGRESSION_FACTOR = 1.5

_HEADLINE_HIGHER_IS_WORSE = (
    "replay_p99_latency_ms",
    "replay_wall_s_per_10k",
    "tcp_p99_latency_ms",
)


def _case_parameters(jobs: int) -> dict:
    from repro.traces.arrival import DiurnalPoissonProcess

    process = DiurnalPoissonProcess(RATE_PER_HOUR, amplitude=0.9)
    lo, hi = 0.0, 8.0 * jobs / (RATE_PER_HOUR / 3600.0)
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if process.expected_count(mid) < jobs:
            lo = mid
        else:
            hi = mid
    return {
        "scenario": "diurnal",
        "seed": SEED,
        "rate_per_hour": RATE_PER_HOUR,
        "duration_days": hi / 86_400.0,
        "servers_per_region": 60,
        "chunk_size": 1024,
    }


def _build(params, collect: str):
    from repro.cluster import StreamingSimulator
    from repro.schedulers import make_scheduler
    from repro.sustainability import ElectricityMapsLikeProvider
    from repro.traces.scenarios import scenario_source

    source = scenario_source(
        params["scenario"],
        seed=params["seed"],
        rate_per_hour=params["rate_per_hour"],
        duration_days=params["duration_days"],
    )
    dataset = ElectricityMapsLikeProvider(
        horizon_hours=max(int(params["duration_days"] * 24) + 48, 72),
        seed=params["seed"],
    )
    engine = StreamingSimulator(
        source,
        make_scheduler("baseline"),
        dataset=dataset,
        servers_per_region=params["servers_per_region"],
        chunk_size=params["chunk_size"],
        collect=collect,
    )
    return source, dataset, engine


def _child_replay(args: argparse.Namespace) -> int:
    """Measured case: full-trace replay through the gateway (pace=0)."""
    from repro.cluster import StreamingSimulator
    from repro.schedulers import make_scheduler
    from repro.service import run_replay
    from repro.traces.stream import TraceView

    params = _case_parameters(args.child_jobs)
    source, dataset, engine = _build(params, collect="full")
    started = time.perf_counter()
    report = run_replay(
        source, engine, pace=0.0, chunk_size=params["chunk_size"]
    )
    wall_s = time.perf_counter() - started
    stats = report.stats

    # Hard gate: the replayed live path must equal a one-shot run.
    oneshot = StreamingSimulator(
        TraceView(source.materialize()),
        make_scheduler("baseline"),
        dataset=dataset,
        servers_per_region=params["servers_per_region"],
        collect="full",
    ).run()
    digest_equal = report.result.digest() == oneshot.digest()

    print(json.dumps({
        "case": "replay",
        "requested_jobs": args.child_jobs,
        "jobs": report.jobs,
        "batches": stats.batches,
        "wall_s": round(wall_s, 3),
        "jobs_per_s": round(stats.throughput_jobs_per_s, 1),
        "p50_latency_ms": round(1e3 * stats.latency_p50_s, 3),
        "p95_latency_ms": round(1e3 * stats.latency_p95_s, 3),
        "p99_latency_ms": round(1e3 * stats.latency_p99_s, 3),
        "max_latency_ms": round(1e3 * stats.latency_max_s, 3),
        "decided": stats.decided,
        "outstanding": stats.outstanding,
        "digest_equal": digest_equal,
    }))
    return 0


def _child_tcp(args: argparse.Namespace) -> int:
    """Measured case: JSON-lines TCP round trips through AdmissionServer."""
    import asyncio

    from repro.service import AdmissionGateway, AdmissionServer, WallClock

    params = _case_parameters(args.child_jobs)
    _source, _dataset, engine = _build(params, collect="aggregate")

    async def scenario():
        gateway = AdmissionGateway(
            engine,
            clock=WallClock(rate=500_000.0),
            arrival_mode="clock",
            tick_interval_s=0.002,
        )
        server = await AdmissionServer(gateway, port=0).start()
        serve = asyncio.ensure_future(server.serve_until_shutdown())
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)

        async def rpc(request):
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            return json.loads(await reader.readline())

        regions = engine._keys_tuple
        batch_size = 50
        batches = max(1, args.child_jobs // batch_size)
        started = time.perf_counter()
        submitted = decided = 0
        for index in range(batches):
            jobs = [
                {
                    "job_id": index * batch_size + i,
                    "workload": "web-search",
                    "home_region": regions[i % len(regions)],
                    "execution_time": 600.0,
                    "energy_kwh": 0.4,
                }
                for i in range(batch_size)
            ]
            response = await rpc({"op": "submit", "jobs": jobs})
            submitted += batch_size
            decided += len(response["decisions"])
        wall_s = time.perf_counter() - started
        stats = (await rpc({"op": "stats"}))["stats"]
        await rpc({"op": "shutdown"})
        await serve
        writer.close()
        await server.stop()
        return submitted, decided, wall_s, stats

    submitted, decided, wall_s, stats = asyncio.run(scenario())
    print(json.dumps({
        "case": "tcp",
        "requested_jobs": args.child_jobs,
        "jobs": submitted,
        "decided": decided,
        "wall_s": round(wall_s, 3),
        "jobs_per_s": round(submitted / wall_s if wall_s > 0 else 0.0, 1),
        "p50_latency_ms": round(1e3 * stats["latency_p50_s"], 3),
        "p95_latency_ms": round(1e3 * stats["latency_p95_s"], 3),
        "p99_latency_ms": round(1e3 * stats["latency_p99_s"], 3),
        "max_latency_ms": round(1e3 * stats["latency_max_s"], 3),
        "digest_equal": None,
    }))
    return 0


def _run_child(jobs: int, case: str) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--child-jobs", str(jobs), "--child-case", case,
    ]
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(command, capture_output=True, text=True, env=env)
    if result.returncode != 0:
        raise RuntimeError(
            f"{case} case at {jobs} jobs failed:\n{result.stdout}\n{result.stderr}"
        )
    return json.loads(result.stdout.splitlines()[-1])


def compare_to_baseline(head: dict, baseline_path: pathlib.Path) -> list[str]:
    """Soft-threshold comparison; returns the list of regression messages."""
    if not baseline_path.exists():
        return []
    baseline = json.loads(baseline_path.read_text()).get("headline", {})
    problems = []
    for key in _HEADLINE_HIGHER_IS_WORSE:
        base = baseline.get(key)
        now = head.get(key)
        if base is None or now is None or base <= 0:
            continue
        if now > REGRESSION_FACTOR * base:
            problems.append(
                f"{key}: {now:.3f} vs baseline {base:.3f} "
                f"(> {REGRESSION_FACTOR:.1f}x threshold)"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=10_000,
                        help="trace size for the replay case")
    parser.add_argument("--tcp-jobs", type=int, default=1_000,
                        help="jobs pushed through the TCP front end "
                             "(0 skips the TCP case)")
    parser.add_argument("--output", default="BENCH_serve.json")
    parser.add_argument(
        "--baseline",
        default=str(pathlib.Path(__file__).parent / "BENCH_serve_baseline.json"),
        help="checked-in baseline for the soft regression check",
    )
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on a soft-threshold regression")
    # Internal: a single measured case in a fresh interpreter.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child-jobs", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--child-case", choices=["replay", "tcp"],
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        if args.child_case == "replay":
            return _child_replay(args)
        return _child_tcp(args)

    cases = []
    failures = []

    replay = _run_child(args.jobs, "replay")
    cases.append(replay)
    print(
        f"replay {replay['jobs']:>9,} jobs: {replay['wall_s']:8.2f} s, "
        f"{replay['jobs_per_s']:>10,.1f} jobs/s, "
        f"p99 {replay['p99_latency_ms']:.1f} ms"
    )
    if not replay["digest_equal"]:
        failures.append("replayed digest diverges from the one-shot engine run")
    if replay["decided"] != replay["jobs"] or replay["outstanding"]:
        failures.append(
            f"decision accounting broken: {replay['decided']} decided of "
            f"{replay['jobs']} submitted, {replay['outstanding']} outstanding"
        )

    if args.tcp_jobs > 0:
        tcp = _run_child(args.tcp_jobs, "tcp")
        cases.append(tcp)
        print(
            f"tcp    {tcp['jobs']:>9,} jobs: {tcp['wall_s']:8.2f} s, "
            f"{tcp['jobs_per_s']:>10,.1f} jobs/s, "
            f"p99 {tcp['p99_latency_ms']:.1f} ms"
        )
        if tcp["decided"] != tcp["jobs"]:
            failures.append(
                f"TCP case lost decisions: {tcp['decided']} of {tcp['jobs']}"
            )

    head = {
        "replay_jobs_per_s": replay["jobs_per_s"],
        "replay_p99_latency_ms": replay["p99_latency_ms"],
        "replay_wall_s_per_10k": round(
            replay["wall_s"] * 10_000.0 / max(replay["jobs"], 1), 3
        ),
    }
    if args.tcp_jobs > 0:
        head["tcp_jobs_per_s"] = tcp["jobs_per_s"]
        head["tcp_p99_latency_ms"] = tcp["p99_latency_ms"]
    report = {
        "benchmark": "admission_service",
        "policy": "baseline",
        "rate_per_hour": RATE_PER_HOUR,
        "headline": {key: round(value, 3) for key, value in head.items()},
        "cases": cases,
    }
    pathlib.Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    print("headline:", json.dumps(report["headline"]))

    if failures:
        print("\nHARD FAILURES:")
        for message in failures:
            print(f"  - {message}")
        return 1
    problems = compare_to_baseline(head, pathlib.Path(args.baseline))
    if problems:
        print("\nSOFT REGRESSIONS vs baseline:")
        for message in problems:
            print(f"  - {message}")
        if args.strict:
            return 1
        print("  (soft threshold: reported but not failing; use --strict to enforce)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
