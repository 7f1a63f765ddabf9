"""Tests for the trace-driven discrete-event simulation semantics.

Every case runs the engine (:class:`StreamingSimulator`) over a materialized
trace with per-job results retained.
"""

import numpy as np
import pytest

from repro.cluster import StreamingSimulator, servers_for_target_utilization
from repro.cluster.interface import Scheduler, SchedulerDecision
from repro.traces import Trace
from repro.traces.stream import TraceView

from .conftest import (
    DeferOnceTestScheduler,
    FixedRegionTestScheduler,
    HomeRegionTestScheduler,
    make_job,
)


def _simulator(trace, scheduler, **kwargs):
    """The engine over ``trace``; ``run()`` returns per-job outcomes."""
    return StreamingSimulator(TraceView(trace), scheduler, collect="full", **kwargs)


class TestBasicExecution:
    def test_single_job_runs_in_home_region(self, small_dataset):
        trace = Trace([make_job(0, 0.0, region="zurich", exec_time=600.0)])
        sim = _simulator(
            trace, HomeRegionTestScheduler(), dataset=small_dataset,
            servers_per_region=2, scheduling_interval_s=300.0,
        )
        result = sim.run().to_simulation_result()
        assert result.num_jobs == 1
        outcome = result.outcomes[0]
        assert outcome.executed_region == "zurich"
        assert outcome.transfer_latency == 0.0
        assert outcome.queue_delay == 0.0
        assert outcome.service_ratio == pytest.approx(1.0)
        assert not outcome.violated_delay_tolerance
        assert outcome.carbon_g > 0.0
        assert outcome.water_l > 0.0

    def test_all_jobs_complete(self, small_dataset, small_trace):
        sim = _simulator(
            small_trace, HomeRegionTestScheduler(), dataset=small_dataset,
            servers_per_region=30, scheduling_interval_s=300.0,
        )
        result = sim.run().to_simulation_result()
        assert result.num_jobs == len(small_trace)
        assert {o.job_id for o in result.outcomes} == {j.job_id for j in small_trace}

    def test_remote_execution_pays_transfer_latency(self, small_dataset):
        trace = Trace([make_job(0, 0.0, region="zurich", exec_time=600.0)])
        sim = _simulator(
            trace, FixedRegionTestScheduler("mumbai"), dataset=small_dataset,
            servers_per_region=2,
        )
        result = sim.run().to_simulation_result()
        outcome = result.outcomes[0]
        assert outcome.executed_region == "mumbai"
        assert outcome.migrated
        assert outcome.transfer_latency > 0.0
        assert outcome.service_ratio > 1.0

    def test_queueing_when_capacity_exhausted(self, small_dataset):
        # Two jobs, one server: the second must queue behind the first.
        trace = Trace([
            make_job(0, 0.0, region="milan", exec_time=1000.0),
            make_job(1, 0.0, region="milan", exec_time=1000.0),
        ])
        sim = _simulator(
            trace, HomeRegionTestScheduler(), dataset=small_dataset,
            servers_per_region=1, scheduling_interval_s=100.0, delay_tolerance=2.0,
        )
        result = sim.run().to_simulation_result()
        delays = sorted(o.queue_delay for o in result.outcomes)
        assert delays[0] == pytest.approx(0.0)
        assert delays[1] == pytest.approx(1000.0)

    def test_deferral_increases_scheduling_delay(self, small_dataset):
        trace = Trace([make_job(0, 0.0, region="oregon", exec_time=2000.0)])
        sim = _simulator(
            trace, DeferOnceTestScheduler(), dataset=small_dataset,
            servers_per_region=2, scheduling_interval_s=300.0, delay_tolerance=1.0,
        )
        result = sim.run().to_simulation_result()
        outcome = result.outcomes[0]
        assert outcome.deferrals == 1
        assert outcome.scheduling_delay == pytest.approx(300.0)

    def test_violation_detection(self, small_dataset):
        # Force a long queue with a tiny tolerance: violations must be flagged.
        trace = Trace([
            make_job(i, 0.0, region="madrid", exec_time=1000.0) for i in range(4)
        ])
        sim = _simulator(
            trace, HomeRegionTestScheduler(), dataset=small_dataset,
            servers_per_region=1, scheduling_interval_s=60.0, delay_tolerance=0.25,
        )
        result = sim.run().to_simulation_result()
        assert result.violation_fraction > 0.0

    def test_makespan_and_utilization(self, small_dataset):
        trace = Trace([make_job(0, 0.0, region="zurich", exec_time=3600.0)])
        sim = _simulator(
            trace, HomeRegionTestScheduler(), dataset=small_dataset, servers_per_region=1,
        )
        result = sim.run().to_simulation_result()
        assert result.makespan_s == pytest.approx(3600.0)
        assert result.region_utilization["zurich"] == pytest.approx(1.0)
        assert 0.0 < result.overall_utilization < 1.0

    def test_empty_trace(self, small_dataset):
        sim = _simulator(Trace([]), HomeRegionTestScheduler(), dataset=small_dataset)
        result = sim.run().to_simulation_result()
        assert result.num_jobs == 0
        assert result.total_carbon_g == 0.0


class TestDecisionAccounting:
    def test_decision_times_recorded(self, small_dataset, small_trace):
        sim = _simulator(
            small_trace, HomeRegionTestScheduler(), dataset=small_dataset,
            servers_per_region=30,
        )
        result = sim.run().to_simulation_result()
        assert len(result.decision_times_s) == len(result.round_times_s)
        assert len(result.decision_times_s) >= 1
        assert all(t >= 0.0 for t in result.decision_times_s)
        assert result.total_decision_time_s >= 0.0
        assert result.decision_overhead_fraction() >= 0.0

    def test_scheduler_reset_called(self, small_dataset):
        scheduler = DeferOnceTestScheduler()
        scheduler.seen.add(999)  # stale state that reset() must clear
        trace = Trace([make_job(0, 0.0)])
        _simulator(trace, scheduler, dataset=small_dataset, servers_per_region=1).run()
        assert 999 not in scheduler.seen


class TestValidation:
    def test_invalid_decision_rejected(self, small_dataset):
        class BrokenScheduler(Scheduler):
            name = "broken"

            def schedule(self, jobs, context):
                return SchedulerDecision(assignments={})  # drops every job

        trace = Trace([make_job(0, 0.0)])
        sim = _simulator(trace, BrokenScheduler(), dataset=small_dataset, servers_per_region=1)
        with pytest.raises(ValueError):
            sim.run()

    def test_unknown_region_assignment_rejected(self, small_dataset):
        sim = _simulator(
            Trace([make_job(0, 0.0)]), FixedRegionTestScheduler("atlantis"),
            dataset=small_dataset, servers_per_region=1,
        )
        with pytest.raises(ValueError):
            sim.run()

    def test_invalid_parameters(self, small_dataset):
        trace = Trace([make_job(0, 0.0)])
        with pytest.raises(ValueError):
            _simulator(trace, HomeRegionTestScheduler(), dataset=small_dataset, servers_per_region=0)
        with pytest.raises(ValueError):
            _simulator(
                trace, HomeRegionTestScheduler(), dataset=small_dataset, scheduling_interval_s=0.0
            )
        with pytest.raises(ValueError):
            _simulator(
                trace, HomeRegionTestScheduler(), dataset=small_dataset, delay_tolerance=-0.5
            )
        with pytest.raises(ValueError):
            _simulator(
                trace, HomeRegionTestScheduler(), dataset=small_dataset,
                servers_per_region={"zurich": 5},  # missing the other regions
            )

    def test_per_region_server_mapping(self, small_dataset):
        servers = {key: 3 for key in small_dataset.region_keys}
        servers["mumbai"] = 7
        sim = _simulator(
            Trace([make_job(0, 0.0)]), HomeRegionTestScheduler(), dataset=small_dataset,
            servers_per_region=servers,
        )
        result = sim.run().to_simulation_result()
        assert result.region_servers["mumbai"] == 7


class TestDeterminism:
    def test_same_inputs_same_results(self, small_dataset, small_trace):
        def run():
            return _simulator(
                small_trace, HomeRegionTestScheduler(), dataset=small_dataset,
                servers_per_region=30,
            ).run()

        a, b = run(), run()
        assert a.total_carbon_g == pytest.approx(b.total_carbon_g)
        assert a.total_water_l == pytest.approx(b.total_water_l)
        assert a.mean_service_ratio == pytest.approx(b.mean_service_ratio)


class TestCapacityHelper:
    def test_target_utilization_sizing(self, small_dataset, small_trace):
        keys = small_dataset.region_keys
        servers = servers_for_target_utilization(small_trace, keys, target_utilization=0.15)
        assert servers >= 2
        tighter = servers_for_target_utilization(small_trace, keys, target_utilization=0.05)
        assert tighter > servers

    def test_sizing_produces_roughly_target_utilization(self, small_dataset, small_trace):
        keys = small_dataset.region_keys
        servers = servers_for_target_utilization(small_trace, keys, target_utilization=0.20)
        result = _simulator(
            small_trace, HomeRegionTestScheduler(), dataset=small_dataset,
            servers_per_region=servers,
        ).run()
        # The sizing is approximate (uniform spread assumption); allow a wide band.
        assert 0.05 < result.overall_utilization < 0.45

    def test_validation(self, small_trace):
        with pytest.raises(ValueError):
            servers_for_target_utilization(small_trace, [], 0.15)
        with pytest.raises(ValueError):
            servers_for_target_utilization(small_trace, ["zurich"], 0.0)
        assert servers_for_target_utilization(Trace([]), ["zurich"], 0.15) == 2

    def test_empty_trace_defaults(self):
        assert servers_for_target_utilization(Trace([]), ["zurich"], 0.5, minimum_servers=4) == 4
