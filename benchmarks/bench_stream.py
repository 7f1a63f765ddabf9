"""Streaming-engine benchmark: peak RSS + wall time vs the one-shot engine.

Each case simulates a diurnal scenario sized to ``--sizes`` jobs (default
10k / 100k / 1M) twice through :class:`StreamingSimulator`: one-shot
(materialized trace in a single chunk, ``collect="full"``, O(n) columns)
and bounded-memory (chunked source, ``collect="aggregate"``).  Every measurement runs in a
fresh **subprocess** so ``ru_maxrss`` reports that case's true peak RSS, not
the parent's high-water mark.  One-shot cases above ``--max-oneshot-jobs``
are skipped (that is the regime the streaming engine exists for).

The results land in ``BENCH_stream.json`` and are compared against the
checked-in ``benchmarks/BENCH_stream_baseline.json`` with a *soft* threshold
(warn; fail only under ``--strict``), like the solver benchmark.  Two hard
gates back the tentpole's acceptance criteria regardless of baseline:

* every streaming case must stay under ``--rss-limit-mb`` (default 1500);
* streaming totals must match the one-shot totals (1e-9 relative) wherever
  both ran.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_stream.py --sizes 10000 100000
    PYTHONPATH=src python benchmarks/bench_stream.py --sizes 1000000 --stream-only
    # 10M-job bounded-memory tier (stream-only; one fresh subprocess so the
    # 1.5 GB RSS gate measures exactly this case):
    PYTHONPATH=src python benchmarks/bench_stream.py --sizes 10000000 \
        --stream-only --profile

``--kernel`` pins the event-kernel tier (``scalar`` / ``vector`` /
``compiled`` / default ``auto``) for every case — totals are
kernel-invariant, so an A/B between tiers is two runs of this script.
``--profile`` adds each streaming case's kernel telemetry (clean /
conveyor / replayed event counts, segmentation passes) to the report.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

#: Borg-like submission rate the cases are sized at; duration scales with
#: the requested job count.
RATE_PER_HOUR = 1400.0

#: Soft regression threshold vs the checked-in baseline.
REGRESSION_FACTOR = 1.5

#: Fault-injection tier: the region-outage chaos family (whole-region
#: outages, evict-and-requeue) at the benchmark seed.
CHAOS_SPEC = "region-outage"

_HEADLINE_HIGHER_IS_WORSE = (
    "stream_peak_rss_mb_max",
    "stream_wall_s_per_100k",
    "chaos_stream_wall_s_per_100k",
)


def _case_parameters(jobs: int) -> dict:
    # Invert the diurnal process's expected-count curve so sub-day cases
    # (which start in the night trough) still hit the requested job count.
    from repro.traces.arrival import DiurnalPoissonProcess

    process = DiurnalPoissonProcess(RATE_PER_HOUR, amplitude=0.9)
    lo, hi = 0.0, 8.0 * jobs / (RATE_PER_HOUR / 3600.0)
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if process.expected_count(mid) < jobs:
            lo = mid
        else:
            hi = mid
    duration_days = hi / 86_400.0
    return {
        "scenario": "diurnal",
        "seed": 42,
        "rate_per_hour": RATE_PER_HOUR,
        "duration_days": duration_days,
        "servers_per_region": 60,
        "chunk_size": 8192,
    }


def _run_child(
    jobs: int,
    mode: str,
    policy: str,
    chaos: bool = False,
    kernel: str = "auto",
    profile: bool = False,
) -> dict:
    """One measured case in a fresh interpreter; returns its JSON report."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--child-jobs", str(jobs), "--child-mode", mode, "--policy", policy,
        "--kernel", kernel,
    ]
    if chaos:
        command.append("--child-chaos")
    if profile:
        command.append("--profile")
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(command, capture_output=True, text=True, env=env)
    if result.returncode != 0:
        raise RuntimeError(
            f"{mode} case at {jobs} jobs failed:\n{result.stdout}\n{result.stderr}"
        )
    return json.loads(result.stdout.splitlines()[-1])


def _child_main(args: argparse.Namespace) -> int:
    from repro.cluster import StreamingSimulator
    from repro.schedulers import make_scheduler
    from repro.sustainability import ElectricityMapsLikeProvider
    from repro.traces.scenarios import scenario_source
    from repro.traces.stream import TraceView

    params = _case_parameters(args.child_jobs)
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
    scheduler = make_scheduler(args.policy)
    chaos_kwargs = (
        {"chaos": CHAOS_SPEC, "chaos_seed": params["seed"]}
        if args.child_chaos
        else {}
    )
    started = time.perf_counter()
    if args.child_mode == "stream":
        result = StreamingSimulator(
            source,
            scheduler,
            dataset=dataset,
            servers_per_region=params["servers_per_region"],
            chunk_size=params["chunk_size"],
            collect="aggregate",
            kernel=args.kernel,
            **chaos_kwargs,
        ).run()
    else:
        trace = source.materialize()
        result = StreamingSimulator(
            TraceView(trace),
            scheduler,
            dataset=dataset,
            servers_per_region=params["servers_per_region"],
            chunk_size=max(len(trace), 1),
            collect="full",
            kernel=args.kernel,
            **chaos_kwargs,
        ).run()
    wall_s = time.perf_counter() - started
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # kB on Linux
    report = {
        "mode": args.child_mode,
        "chaos": bool(args.child_chaos),
        "requested_jobs": args.child_jobs,
        "jobs": result.num_jobs,
        "rounds": len(result.round_times_s),
        "wall_s": round(wall_s, 3),
        "peak_rss_mb": round(peak_kb / 1024.0, 1),
        "carbon_kg": result.total_carbon_kg,
        "water_m3": result.total_water_m3,
        "mean_service_ratio": result.mean_service_ratio,
        "evictions": int(getattr(result, "total_evictions", 0)),
    }
    if args.profile:
        report["kernel_stats"] = getattr(result, "kernel_stats", None)
    print(json.dumps(report))
    return 0


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
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[10_000, 100_000, 1_000_000])
    parser.add_argument("--policy", default="baseline",
                        help="scheduling policy to drive both engines with")
    parser.add_argument("--kernel", default="auto",
                        choices=["auto", "scalar", "vector", "compiled"],
                        help="event-kernel tier for every case (totals are "
                             "kernel-invariant; A/B tiers with two runs)")
    parser.add_argument("--profile", action="store_true",
                        help="record each case's kernel telemetry (clean/"
                             "conveyor/replayed event counts) in the report")
    parser.add_argument("--max-oneshot-jobs", type=int, default=100_000,
                        help="skip the one-shot engine above this size")
    parser.add_argument("--stream-only", action="store_true",
                        help="measure only the streaming engine")
    parser.add_argument("--rss-limit-mb", type=float, default=1500.0,
                        help="hard bound every streaming case must stay under")
    parser.add_argument("--chaos-sizes", type=int, nargs="*", default=[],
                        help="additionally measure these sizes under the "
                             f"{CHAOS_SPEC!r} fault-injection timeline "
                             "(stream + one-shot; same RSS/totals gates)")
    parser.add_argument("--output", default="BENCH_stream.json")
    parser.add_argument(
        "--baseline",
        default=str(pathlib.Path(__file__).parent / "BENCH_stream_baseline.json"),
        help="checked-in baseline for the soft regression check",
    )
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on a soft-threshold regression")
    # Internal: a single measured case in a fresh interpreter.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child-jobs", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--child-mode", choices=["stream", "oneshot"],
                        help=argparse.SUPPRESS)
    parser.add_argument("--child-chaos", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child_main(args)

    cases = []
    failures = []

    def _print_profile(case: dict) -> None:
        stats = case.get("kernel_stats")
        if not stats:
            return
        print(
            f"        kernel={stats.get('kernel', '?')}: "
            f"{stats.get('clean_events', 0):,} clean + "
            f"{stats.get('conveyor_events', 0):,} conveyor + "
            f"{stats.get('compiled_events', 0):,} compiled + "
            f"{stats.get('replayed_events', 0):,} replayed events, "
            f"{stats.get('prefix_segments', 0):,} prefix segments, "
            f"{stats.get('windows', 0):,} windows"
        )

    for jobs in args.sizes:
        stream = _run_child(jobs, "stream", args.policy,
                            kernel=args.kernel, profile=args.profile)
        cases.append(stream)
        print(
            f"stream  {jobs:>9,} jobs: {stream['wall_s']:8.1f} s, "
            f"peak RSS {stream['peak_rss_mb']:8.1f} MB "
            f"({stream['jobs']} simulated, {stream['rounds']} rounds)"
        )
        _print_profile(stream)
        if stream["peak_rss_mb"] > args.rss_limit_mb:
            failures.append(
                f"streaming at {jobs} jobs used {stream['peak_rss_mb']:.1f} MB "
                f"(> hard limit {args.rss_limit_mb:.0f} MB)"
            )
        if args.stream_only or jobs > args.max_oneshot_jobs:
            continue
        oneshot = _run_child(jobs, "oneshot", args.policy,
                             kernel=args.kernel, profile=args.profile)
        cases.append(oneshot)
        print(
            f"oneshot {jobs:>9,} jobs: {oneshot['wall_s']:8.1f} s, "
            f"peak RSS {oneshot['peak_rss_mb']:8.1f} MB"
        )
        for key in ("carbon_kg", "water_m3", "mean_service_ratio"):
            if abs(stream[key] - oneshot[key]) > 1e-9 * max(1.0, abs(oneshot[key])):
                failures.append(
                    f"{key} diverges at {jobs} jobs: "
                    f"stream {stream[key]!r} vs oneshot {oneshot[key]!r}"
                )

    for jobs in args.chaos_sizes:
        stream = _run_child(jobs, "stream", args.policy, chaos=True,
                            kernel=args.kernel, profile=args.profile)
        cases.append(stream)
        print(
            f"chaos   {jobs:>9,} jobs: {stream['wall_s']:8.1f} s, "
            f"peak RSS {stream['peak_rss_mb']:8.1f} MB "
            f"({stream['jobs']} simulated, {stream['evictions']} evictions)"
        )
        _print_profile(stream)
        if stream["peak_rss_mb"] > args.rss_limit_mb:
            failures.append(
                f"chaotic streaming at {jobs} jobs used {stream['peak_rss_mb']:.1f} MB "
                f"(> hard limit {args.rss_limit_mb:.0f} MB)"
            )
        if args.stream_only or jobs > args.max_oneshot_jobs:
            continue
        oneshot = _run_child(jobs, "oneshot", args.policy, chaos=True,
                             kernel=args.kernel, profile=args.profile)
        cases.append(oneshot)
        print(
            f"chaos-1s{jobs:>9,} jobs: {oneshot['wall_s']:8.1f} s, "
            f"peak RSS {oneshot['peak_rss_mb']:8.1f} MB"
        )
        # Under chaos the engines must *still* agree — evictions included.
        if stream["evictions"] != oneshot["evictions"]:
            failures.append(
                f"evictions diverge at {jobs} chaotic jobs: "
                f"stream {stream['evictions']} vs oneshot {oneshot['evictions']}"
            )
        for key in ("carbon_kg", "water_m3", "mean_service_ratio"):
            if abs(stream[key] - oneshot[key]) > 1e-9 * max(1.0, abs(oneshot[key])):
                failures.append(
                    f"{key} diverges at {jobs} chaotic jobs: "
                    f"stream {stream[key]!r} vs oneshot {oneshot[key]!r}"
                )

    stream_cases = [
        case for case in cases
        if case["mode"] == "stream" and not case.get("chaos")
    ]
    chaos_stream_cases = [
        case for case in cases
        if case["mode"] == "stream" and case.get("chaos")
    ]
    head = {
        "stream_peak_rss_mb_max": max(c["peak_rss_mb"] for c in stream_cases),
        "stream_wall_s_per_100k": max(
            c["wall_s"] * 100_000.0 / max(c["jobs"], 1) for c in stream_cases
        ),
    }
    if chaos_stream_cases:
        head["chaos_stream_wall_s_per_100k"] = max(
            c["wall_s"] * 100_000.0 / max(c["jobs"], 1) for c in chaos_stream_cases
        )
    report = {
        "benchmark": "stream_engine",
        "policy": args.policy,
        "kernel": args.kernel,
        "rate_per_hour": RATE_PER_HOUR,
        "rss_limit_mb": args.rss_limit_mb,
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
