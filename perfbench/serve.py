"""The ``gateway-tcp`` server process: WaterWise behind ``AdmissionServer`` in clock mode.

Run by :mod:`loadgen`, never by hand::

    python3 perfbench/serve.py --seed 1 [--trace] [--probe]

It builds the engine, binds an ephemeral port on 127.0.0.1 and prints one
JSON line ``{"port": ..., "ready_s": ...}``.  It then serves until a client
sends ``shutdown`` and prints a second JSON line with its peak memory, the
gateway counters, the finalized result and, with ``--trace``,
its span buffer.  ``--probe`` stops right after the first line: the set-up
time probe.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gatewayconfig as config  # noqa: E402


def build_server(seed: int):
    from repro.cluster.capacity import servers_for_target_utilization
    from repro.cluster.streaming import StreamingSimulator
    from repro.schedulers import make_scheduler
    from repro.service import AdmissionGateway, AdmissionServer, WallClock
    from repro.sustainability.datasets import ElectricityMapsLikeProvider

    source = config.recorded_source(seed)
    dataset = ElectricityMapsLikeProvider(
        horizon_hours=int(math.ceil(config.SIM_HORIZON_S / 3600.0)), seed=seed
    )
    servers = servers_for_target_utilization(
        source, dataset.region_keys, target_utilization=config.TARGET_UTILIZATION
    )
    engine = StreamingSimulator(
        source,
        make_scheduler(config.POLICY),
        dataset=dataset,
        servers_per_region=servers,
        delay_tolerance=config.DELAY_TOLERANCE,
        collect="aggregate",
    )
    gateway = AdmissionGateway(
        engine,
        clock=WallClock(rate=config.CLOCK_RATE),
        arrival_mode="clock",
        tick_interval_s=config.TICK_INTERVAL_S,
    )
    return AdmissionServer(gateway), servers, dataset.region_keys


async def serve(args) -> dict:
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    server, servers, regions = build_server(args.seed)
    if tracer is not None:
        # The wrappers had to be in place before the engine resolved its
        # fast path; the set-up's own spans are not part of serving.
        tracer.reset()
    await server.start()
    print(json.dumps({
        "port": server.port,
        "ready_s": time.perf_counter() - STARTED,
        "servers_per_region": servers,
        "regions": list(regions),
    }), flush=True)
    if args.probe:
        await server.stop()
        return {}
    if tracer is not None:
        tracer.enter("wall")
    result = await server.serve_until_shutdown()
    if tracer is not None:
        tracer.exit()
    await server.stop()
    stats = server.gateway.stats()
    report = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stats": stats.as_dict(),
        "num_jobs": result.num_jobs if result is not None else 0,
        "rounds": len(result.round_times_s) if result is not None else 0,
        "kernel_stats": getattr(result, "kernel_stats", None),
        "solver_stats": getattr(result, "solver_stats", None),
    }
    if tracer is not None:
        report["spans"] = tracer.snapshot()
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    report = asyncio.run(serve(args))
    if report:
        print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
