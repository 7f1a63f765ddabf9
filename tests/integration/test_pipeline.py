"""End-to-end integration tests across substrates.

These exercise the whole pipeline — trace generation, sustainability data,
simulation, scheduling policies, savings analysis — at a tiny scale, checking
the paper's qualitative findings hold and that the pipeline is deterministic.
"""

import pytest

from repro.analysis.savings import savings_table
from repro.analysis.sweep import ExperimentScale, run_policies
from repro.core import WaterWiseScheduler
from repro.schedulers import (
    BaselineScheduler,
    CarbonGreedyOptimalScheduler,
    LeastLoadScheduler,
    RoundRobinScheduler,
    WaterGreedyOptimalScheduler,
    make_scheduler,
)

from ..equivalence import run_engine

SCALE = ExperimentScale(rate_per_hour=25.0, duration_days=0.2, seed=17)


@pytest.fixture(scope="module")
def setup():
    trace = SCALE.borg_trace()
    dataset = SCALE.dataset()
    servers = SCALE.servers_for(trace, dataset.region_keys)
    return trace, dataset, servers


@pytest.fixture(scope="module")
def all_policy_results(setup):
    trace, dataset, servers = setup
    policies = {
        "baseline": BaselineScheduler,
        "round-robin": RoundRobinScheduler,
        "least-load": LeastLoadScheduler,
        "carbon-greedy-opt": CarbonGreedyOptimalScheduler,
        "water-greedy-opt": WaterGreedyOptimalScheduler,
        "waterwise": WaterWiseScheduler,
    }
    return run_policies(
        trace, dataset, policies, servers_per_region=servers, delay_tolerance=0.5
    )


class TestPipeline:
    def test_every_policy_completes_every_job(self, setup, all_policy_results):
        trace, _, _ = setup
        for name, result in all_policy_results.items():
            assert result.num_jobs == len(trace), f"{name} lost jobs"

    def test_baseline_never_migrates(self, all_policy_results):
        assert all_policy_results["baseline"].migration_fraction == 0.0

    def test_footprints_positive_for_all_policies(self, all_policy_results):
        for name, result in all_policy_results.items():
            assert result.total_carbon_g > 0.0, name
            assert result.total_water_l > 0.0, name

    def test_waterwise_beats_baseline_on_both_metrics(self, all_policy_results):
        baseline = all_policy_results["baseline"]
        waterwise = all_policy_results["waterwise"]
        assert waterwise.carbon_savings_vs(baseline) > 0.0
        assert waterwise.water_savings_vs(baseline) > 0.0

    def test_waterwise_between_the_oracles(self, all_policy_results):
        baseline = all_policy_results["baseline"]
        waterwise = all_policy_results["waterwise"]
        carbon_opt = all_policy_results["carbon-greedy-opt"]
        water_opt = all_policy_results["water-greedy-opt"]
        assert waterwise.carbon_savings_vs(baseline) <= carbon_opt.carbon_savings_vs(baseline) + 1.0
        assert waterwise.water_savings_vs(baseline) <= water_opt.water_savings_vs(baseline) + 1.0
        # and it is at least as carbon-effective as the water oracle / vice versa
        assert waterwise.carbon_savings_vs(baseline) >= water_opt.carbon_savings_vs(baseline) - 1.0
        assert waterwise.water_savings_vs(baseline) >= carbon_opt.water_savings_vs(baseline) - 1.0

    def test_waterwise_beats_load_balancers(self, all_policy_results):
        baseline = all_policy_results["baseline"]
        waterwise = all_policy_results["waterwise"]
        for other in ("round-robin", "least-load"):
            assert (
                waterwise.carbon_savings_vs(baseline)
                > all_policy_results[other].carbon_savings_vs(baseline)
            )

    def test_savings_table_runs_over_results(self, all_policy_results):
        rows = savings_table(all_policy_results)
        assert {row.policy for row in rows} == set(all_policy_results)

    def test_service_ratio_within_tolerance_on_average(self, all_policy_results):
        for name, result in all_policy_results.items():
            assert result.mean_service_ratio < 1.0 + 0.5 + 0.1, name


class TestDeterminism:
    def test_full_pipeline_is_reproducible(self, setup):
        trace, dataset, servers = setup

        def run():
            return run_engine(
                trace, WaterWiseScheduler(), dataset=dataset,
                servers_per_region=servers, delay_tolerance=0.5,
            )

        a, b = run(), run()
        assert a.total_carbon_g == pytest.approx(b.total_carbon_g)
        assert a.total_water_l == pytest.approx(b.total_water_l)
        assert a.jobs_per_region() == b.jobs_per_region()

    def test_registry_round_trip(self, setup):
        trace, dataset, servers = setup
        scheduler = make_scheduler("waterwise")
        result = run_engine(
            trace, scheduler, dataset=dataset, servers_per_region=servers, delay_tolerance=0.25
        )
        assert result.scheduler_name == "waterwise"
        assert result.num_jobs == len(trace)

    def test_trace_round_trip_through_disk(self, setup, tmp_path):
        trace, dataset, servers = setup
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        from repro.traces import Trace

        reloaded = Trace.from_jsonl(path)
        result_a = run_engine(
            trace, BaselineScheduler(), dataset=dataset, servers_per_region=servers
        )
        result_b = run_engine(
            reloaded, BaselineScheduler(), dataset=dataset, servers_per_region=servers
        )
        assert result_a.total_carbon_g == pytest.approx(result_b.total_carbon_g)
        assert result_a.total_water_l == pytest.approx(result_b.total_water_l)
