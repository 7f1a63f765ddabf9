"""Unit tests for trace replay through the live admission path.

The registry × pace × chaos digest-equality cells live in
``tests/integration/test_differential.py``; here we cover the replayer's
mechanics: pacing, partial runs, reports, and input validation.
"""

import asyncio

import pytest

from repro.cluster import StreamingSimulator
from repro.schedulers import make_scheduler
from repro.service import (
    AdmissionGateway,
    SimClock,
    TraceReplayer,
    WallClock,
    replay_source,
    run_replay,
)
from repro.sustainability import ElectricityMapsLikeProvider
from repro.traces.scenarios import scenario_source

from ..equivalence import run_engine


@pytest.fixture(scope="module")
def dataset():
    return ElectricityMapsLikeProvider(horizon_hours=72, seed=4)


@pytest.fixture(scope="module")
def source():
    return scenario_source("bursty", seed=13, rate_per_hour=40.0, duration_days=0.1)


@pytest.fixture(scope="module")
def batch_digest(source, dataset):
    return run_engine(
        source.materialize(), make_scheduler("waterwise"), dataset=dataset,
        servers_per_region=8,
    ).digest()


def _engine(source, dataset, **kwargs):
    kwargs.setdefault("servers_per_region", 8)
    kwargs.setdefault("chunk_size", 64)
    kwargs.setdefault("collect", "full")
    return StreamingSimulator(
        source, make_scheduler("waterwise"), dataset=dataset, **kwargs
    )


class TestFastForward:
    def test_digest_matches_batch(self, source, dataset, batch_digest):
        report = run_replay(source, _engine(source, dataset), pace=0.0, chunk_size=64)
        assert report.result.digest() == batch_digest
        assert report.jobs == len(report.decisions)
        assert report.stats.decided == report.jobs
        assert report.stats.outstanding == 0

    def test_chunk_size_invariance(self, source, dataset, batch_digest):
        for chunk_size in (17, 512):
            report = run_replay(
                source, _engine(source, dataset), pace=0.0, chunk_size=chunk_size
            )
            assert report.result.digest() == batch_digest

    def test_report_as_dict_is_json_friendly(self, source, dataset, batch_digest):
        import json

        report = run_replay(source, _engine(source, dataset), pace=0.0, chunk_size=64)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["digest"] == batch_digest
        assert payload["jobs"] == report.jobs
        assert payload["stats"]["decided"] == report.jobs

    def test_aggregate_collect_reports_aggregate_digest(self, source, dataset):
        # Aggregate-collect replays return a StreamResult, whose digest
        # covers the merged aggregates (not per-job decisions) — it must be
        # present and replay-invariant, but is NOT comparable to the batch
        # per-job digest.
        report = run_replay(
            source,
            _engine(source, dataset, collect="aggregate"),
            pace=0.0,
            chunk_size=64,
        )
        again = run_replay(
            source,
            _engine(source, dataset, collect="aggregate"),
            pace=0.0,
            chunk_size=64,
        )
        assert report.as_dict()["digest"] is not None
        assert report.as_dict()["digest"] == again.as_dict()["digest"]


class TestPaced:
    def test_paced_digest_matches_batch(self, source, dataset, batch_digest):
        # A very fast wall clock keeps the test quick while still exercising
        # the real-sleep path (the trace spans ~2.4 simulated hours).
        report = run_replay(source, _engine(source, dataset), pace=5e6, chunk_size=64)
        assert report.result.digest() == batch_digest
        assert report.pace == 5e6

    def test_negative_pace_rejected(self, source, dataset):
        with pytest.raises(ValueError, match="pace"):
            run_replay(source, _engine(source, dataset), pace=-1.0)


class TestReplayer:
    def test_requires_recorded_mode(self, source, dataset):
        async def scenario():
            gateway = AdmissionGateway(
                _engine(source, dataset), clock=SimClock(), arrival_mode="clock"
            )
            with pytest.raises(ValueError, match="recorded"):
                TraceReplayer(source, gateway)

        asyncio.run(scenario())

    def test_invalid_chunk_size_rejected(self, source, dataset):
        async def scenario():
            gateway = AdmissionGateway(_engine(source, dataset))
            with pytest.raises(ValueError, match="chunk_size"):
                TraceReplayer(source, gateway, chunk_size=0)

        asyncio.run(scenario())

    def test_partial_run_then_resume_same_gateway(self, source, dataset, batch_digest):
        async def scenario():
            engine = _engine(source, dataset)
            gateway = await AdmissionGateway(engine).start()
            replayer = TraceReplayer(source, gateway, chunk_size=64)
            sent = await replayer.run(max_chunks=1)
            assert sent == 1
            # Flush the queue so the engine has ingested the batch (state is
            # created lazily by the first admission).
            await gateway.tick()
            # Continue where the first pass stopped (jobs already admitted
            # are skipped by count).
            await replayer.run(skip_jobs=engine.state.jobs_seen)
            report = await replayer.finish()
            return report

        report = asyncio.run(scenario())
        assert report.result.digest() == batch_digest

    def test_replay_source_respects_existing_state(self, source, dataset, batch_digest):
        async def scenario():
            engine = _engine(source, dataset)
            engine.run_chunks(max_chunks=1)  # pre-advance outside the service
            report = await replay_source(source, engine, pace=0.0, chunk_size=64)
            return report

        report = asyncio.run(scenario())
        # The replay continues after the pre-advanced chunk instead of
        # re-ingesting it; jobs decided before the replay joined are not in
        # the service counters, but the final result covers everything.
        assert report.result.digest() == batch_digest


class TestClockSelection:
    def test_pace_zero_uses_sim_clock(self, source, dataset):
        from repro.service.replay import _clock_for_pace

        assert isinstance(_clock_for_pace(0.0, 0.0), SimClock)
        clock = _clock_for_pace(2.0, 10.0)
        assert isinstance(clock, WallClock)
        assert clock.rate == 2.0
