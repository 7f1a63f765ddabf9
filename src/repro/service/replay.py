"""Trace replay through the live admission path.

A :class:`TraceReplayer` paces a recorded :class:`TraceSource` through an
:class:`AdmissionGateway` — the *same* gateway, engine, and ``admit()`` path a
live session uses — so the live service can be verified by digest equality
against a one-shot engine run rather than trusted.

Pacing:

* ``pace == 0`` — fast-forward: a :class:`SimClock` jumps to each chunk's
  first arrival, so the replay runs at CPU speed.  This is the verification
  mode (differential cells, CI smoke).
* ``pace > 0`` — a :class:`WallClock` scaled to ``pace`` simulated seconds
  per wall second delivers chunks on the recorded schedule (``pace=1`` is
  real time, ``pace=3600`` plays an hour per second).

The replayer never awaits a chunk's decisions before submitting the next
chunk: a scheduling round can defer a job until later arrivals raise the
safety watermark, so awaiting inline would deadlock on exactly the jobs the
watermark rule exists to protect.  Futures are collected as they are issued
and gathered after ``close()`` finalizes the engine (finalization decides
every remaining job).
"""

from __future__ import annotations

import dataclasses

from repro.service.clock import SimClock, WallClock
from repro.service.gateway import AdmissionGateway, GatewayStats, PlacementDecision

__all__ = ["ReplayReport", "TraceReplayer", "replay_source", "run_replay"]

DEFAULT_CHUNK_SIZE = 2048


@dataclasses.dataclass(frozen=True)
class ReplayReport:
    """Everything a replay produces: the engine result plus service counters."""

    #: Finalized engine result (``BatchResult`` or ``StreamResult``) — its
    #: ``digest()`` is byte-comparable to a batch run of the same trace.
    result: object
    decisions: tuple[PlacementDecision, ...]
    stats: GatewayStats
    pace: float
    chunks: int
    jobs: int

    def as_dict(self) -> dict:
        """JSON-friendly summary (decisions elided — counters only)."""
        digest = getattr(self.result, "digest", None)
        return {
            "pace": self.pace,
            "chunks": self.chunks,
            "jobs": self.jobs,
            # Full-collect runs report BatchResult's per-job decision digest;
            # aggregate-collect runs report StreamResult's aggregate digest.
            # The two cover different payloads — compare like with like.
            "digest": digest() if digest is not None else None,
            "stats": self.stats.as_dict(),
        }


class TraceReplayer:
    """Drives one recorded source through one gateway.

    The gateway must be in ``"recorded"`` arrival mode (the default): the
    watermark must stay arrival-driven or a wall clock running ahead of the
    trace would reject older chunks and break replay/batch equivalence.
    """

    def __init__(
        self,
        source,
        gateway: AdmissionGateway,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if gateway.arrival_mode != "recorded":
            raise ValueError(
                "trace replay requires a gateway in 'recorded' arrival mode; "
                f"got {gateway.arrival_mode!r}"
            )
        if int(chunk_size) < 1:
            raise ValueError("chunk_size must be >= 1")
        self.source = source
        self.gateway = gateway
        self.chunk_size = int(chunk_size)
        self.chunks = 0
        self.jobs = 0
        self._futures: list = []

    async def run(self, max_chunks: int | None = None, skip_jobs: int = 0) -> int:
        """Pace chunks into the gateway; returns the number of chunks sent.

        ``skip_jobs`` fast-forwards past already-admitted jobs (resuming a
        checkpointed replay: pass ``engine.state.jobs_seen``).  With
        ``max_chunks`` the replay can be interrupted mid-trace — checkpoint,
        then resume with a fresh replayer.
        """
        sent = 0
        for chunk in self.source.iter_chunks(self.chunk_size, skip_jobs=skip_jobs):
            if max_chunks is not None and sent >= max_chunks:
                break
            if chunk.n:
                await self.gateway.clock.sleep_until(float(chunk.arrival[0]))
                self._futures.extend(await self.gateway.submit_nowait(chunk))
                self.jobs += chunk.n
            sent += 1
            self.chunks += 1
        return sent

    async def finish(self, pace: float = 0.0) -> ReplayReport:
        """Finalize the engine and gather every decision into a report."""
        result = await self.gateway.close()
        decisions = tuple([future.result() for future in self._futures])
        return ReplayReport(
            result=result,
            decisions=decisions,
            stats=self.gateway.stats(),
            pace=pace,
            chunks=self.chunks,
            jobs=self.jobs,
        )


def _clock_for_pace(pace: float, start: float):
    if pace < 0:
        raise ValueError(f"pace must be >= 0, got {pace!r}")
    if pace == 0:
        return SimClock(start=start)
    return WallClock(rate=pace, start=start)


async def replay_source(
    source,
    engine,
    pace: float = 0.0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    max_pending_batches: int = 64,
) -> ReplayReport:
    """Replay ``source`` through a fresh gateway over ``engine`` (async)."""
    start = 0.0
    if engine.state is not None:
        start = engine.state.watermark
    clock = _clock_for_pace(float(pace), start)
    gateway = AdmissionGateway(
        engine,
        clock=clock,
        arrival_mode="recorded",
        max_pending_batches=max_pending_batches,
    )
    await gateway.start()
    skip = engine.state.jobs_seen if engine.state is not None else 0
    replayer = TraceReplayer(source, gateway, chunk_size=chunk_size)
    await replayer.run(skip_jobs=skip)
    return await replayer.finish(pace=float(pace))


def run_replay(
    source,
    engine,
    pace: float = 0.0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    max_pending_batches: int = 64,
) -> ReplayReport:
    """Synchronous wrapper around :func:`replay_source` (owns an event loop)."""
    import asyncio

    return asyncio.run(
        replay_source(
            source,
            engine,
            pace=pace,
            chunk_size=chunk_size,
            max_pending_batches=max_pending_batches,
        )
    )
