"""Live scheduler service: wall-clock admission over the streaming engine.

Every engine in :mod:`repro.cluster` runs in *simulated* time — a trace is
known up front and the event loop jumps from round to round.  This package
serves the same engine **online**: jobs arrive as requests, placements are
answered as responses, and the clock is (optionally) the wall clock.

The layering, bottom to top:

* :mod:`repro.service.clock` — the clock abstraction (:class:`SimClock` /
  :class:`WallClock`) so simulated and wall time drive one engine through
  one code path,
* :meth:`repro.cluster.streaming.StreamingSimulator.admit` — the engine-side
  incremental API: ingest a chunk of submissions, advance to the clock
  watermark, return the placement decisions that became safe,
* :mod:`repro.service.gateway` — the asyncio admission gateway: bounded
  request queue (backpressure), per-job decision futures, decision-latency /
  throughput counters, and in-loop checkpointing of live sessions,
* :mod:`repro.service.replay` — trace replay through the *identical* live
  decision path, paced (``pace`` × real time) or fast-forwarded (``pace=0``);
  a replayed run's result digest is byte-identical to a one-shot run's,
  which is how the live service is verified,
* :mod:`repro.service.server` — a small JSON-lines TCP front end over the
  gateway for out-of-process clients (``repro serve``).
"""

from repro.service.clock import Clock, SimClock, WallClock
from repro.service.gateway import AdmissionGateway, GatewayStats, PlacementDecision
from repro.service.replay import ReplayReport, TraceReplayer, replay_source, run_replay
from repro.service.server import AdmissionServer

__all__ = [
    "AdmissionGateway",
    "AdmissionServer",
    "Clock",
    "GatewayStats",
    "PlacementDecision",
    "ReplayReport",
    "SimClock",
    "TraceReplayer",
    "WallClock",
    "replay_source",
    "run_replay",
]
