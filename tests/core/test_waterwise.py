"""Tests for the end-to-end WaterWise scheduler policy."""

import pytest

from repro.core import WaterWiseConfig, WaterWiseScheduler
from repro.schedulers import BaselineScheduler

from ..equivalence import run_engine
from .conftest import make_job


class TestSchedulingRounds:
    def test_every_job_accounted(self, make_context):
        scheduler = WaterWiseScheduler()
        jobs = [make_job(i, region="oregon") for i in range(6)]
        decision = scheduler.schedule(jobs, make_context())
        assert len(decision.assignments) + len(decision.deferred) == 6

    def test_empty_batch(self, make_context):
        decision = WaterWiseScheduler().schedule([], make_context())
        assert decision.assignments == {}
        assert not decision.deferred

    def test_zero_capacity_defers_all(self, make_context):
        capacity = {key: 0 for key in ["zurich", "madrid", "oregon", "milan", "mumbai"]}
        decision = WaterWiseScheduler().schedule(
            [make_job(0), make_job(1)], make_context(capacity=capacity)
        )
        assert set(decision.deferred) == {0, 1}

    def test_overload_triggers_slack_manager(self, make_context):
        capacity = {"zurich": 1, "madrid": 1, "oregon": 0, "milan": 0, "mumbai": 0}
        context = make_context(capacity=capacity, delay_tolerance=1.0)
        scheduler = WaterWiseScheduler()
        jobs = [make_job(i, region="zurich", exec_time=1000.0 * (i + 1)) for i in range(5)]
        decision = scheduler.schedule(jobs, context)
        assert len(decision.assignments) == 2
        assert len(decision.deferred) == 3
        assert scheduler.overload_rounds == 1
        # The most urgent jobs (shortest execution time -> least slack) go first.
        assert 0 in decision.assignments

    def test_slack_manager_can_be_disabled(self, make_context):
        capacity = {"zurich": 1, "madrid": 0, "oregon": 0, "milan": 0, "mumbai": 0}
        context = make_context(capacity=capacity, delay_tolerance=5.0)
        scheduler = WaterWiseScheduler(WaterWiseConfig(use_slack_manager=False))
        jobs = [make_job(i, region="zurich") for i in range(3)]
        decision = scheduler.schedule(jobs, context)
        # Without the slack manager the whole batch goes to the MILP, whose
        # capacity constraint cannot hold 3 jobs in 1 slot -> soft mode packs
        # them anyway (capacity is a hard constraint, so this must come out
        # as at most one assignment per free slot plus deferrals via penalty).
        assert len(decision.assignments) + len(decision.deferred) == 3

    def test_respects_home_region_with_zero_tolerance(self, make_context):
        context = make_context(delay_tolerance=0.0)
        jobs = [make_job(0, region="milan"), make_job(1, region="madrid")]
        decision = WaterWiseScheduler().schedule(jobs, context)
        assert decision.assignments == {0: "milan", 1: "madrid"}

    def test_history_recorded_each_round(self, make_context):
        scheduler = WaterWiseScheduler()
        context = make_context()
        scheduler.schedule([make_job(0)], context)
        scheduler.schedule([make_job(1)], context)
        assert scheduler.history.rounds_recorded == 2

    def test_reset_clears_state(self, make_context):
        scheduler = WaterWiseScheduler()
        scheduler.schedule([make_job(0)], make_context())
        scheduler.soft_rounds = 3
        scheduler.reset()
        assert scheduler.history.rounds_recorded == 0
        assert scheduler.soft_rounds == 0


class TestEndToEndSavings:
    """WaterWise must beat the unaware baseline on both footprints (paper Fig. 5)."""

    @pytest.fixture(scope="class")
    def results(self, dataset, small_trace):
        def run(scheduler):
            return run_engine(
                small_trace,
                scheduler,
                dataset=dataset,
                servers_per_region=25,
                scheduling_interval_s=300.0,
                delay_tolerance=0.5,
            )

        return {
            "baseline": run(BaselineScheduler()),
            "waterwise": run(WaterWiseScheduler()),
        }

    def test_all_jobs_complete(self, results, small_trace):
        assert results["waterwise"].num_jobs == len(small_trace)

    def test_carbon_savings_positive(self, results):
        savings = results["waterwise"].carbon_savings_vs(results["baseline"])
        assert savings > 5.0

    def test_water_savings_positive(self, results):
        savings = results["waterwise"].water_savings_vs(results["baseline"])
        assert savings > 3.0

    def test_service_time_within_tolerance_on_average(self, results):
        assert results["waterwise"].mean_service_ratio <= 1.5 + 1e-6

    def test_violations_rare(self, results):
        assert results["waterwise"].violation_fraction < 0.05

    def test_decision_overhead_small(self, results):
        # Paper Fig. 13: decision making is well under 1% of mean execution time.
        assert results["waterwise"].decision_overhead_fraction() < 0.05
