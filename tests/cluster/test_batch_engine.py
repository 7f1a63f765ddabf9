"""Equivalence and unit tests for the engine's per-job (``collect="full"``) runs.

The contract under test: for any trace, policy and cluster configuration,
:class:`StreamingSimulator` makes *identical scheduling decisions* to the
object-world oracle :class:`~tests.oracles.simulator.Simulator` (same
executed regions, start/finish times and deferral counts) and produces
footprints equal within 1e-9 relative.
"""

import numpy as np
import pytest

from repro.cluster import StreamingSimulator
from repro.schedulers import (
    BaselineScheduler,
    CarbonGreedyOptimalScheduler,
    EcovisorLikeScheduler,
    LeastLoadScheduler,
    RoundRobinScheduler,
    has_fast_path,
)
from repro.traces import Trace
from repro.traces.stream import TraceView
from tests.oracles.simulator import Simulator

from ..equivalence import EQ_RTOL, assert_equivalent, run_both, run_engine
from .conftest import DeferOnceTestScheduler, FixedRegionTestScheduler, HomeRegionTestScheduler, make_job

POLICY_FACTORIES = {
    "baseline": BaselineScheduler,
    "round-robin": RoundRobinScheduler,
    "least-load": LeastLoadScheduler,
    "ecovisor-like": EcovisorLikeScheduler,
    "carbon-greedy-opt": CarbonGreedyOptimalScheduler,
    "defer-once": DeferOnceTestScheduler,
}


class TestScalarBatchEquivalence:
    @pytest.mark.parametrize("policy", sorted(POLICY_FACTORIES))
    def test_decisions_and_footprints_match(self, policy, small_dataset, small_trace):
        scalar, batch = run_both(
            small_trace, POLICY_FACTORIES[policy], small_dataset, servers_per_region=30
        )
        assert_equivalent(scalar, batch)

    @pytest.mark.parametrize("policy", ["baseline", "round-robin", "least-load"])
    def test_equivalence_under_queueing_pressure(self, policy, small_dataset, small_trace):
        # One server per region saturates the FIFO queues: start times now
        # depend on the exact event ordering, which must also match.
        scalar, batch = run_both(
            small_trace,
            POLICY_FACTORIES[policy],
            small_dataset,
            servers_per_region=1,
            delay_tolerance=50.0,
        )
        assert scalar.mean_queue_delay_s > 0.0  # the pressure is real
        assert_equivalent(scalar, batch)

    def test_equivalence_with_multi_server_jobs(self, small_dataset):
        trace = Trace(
            [
                make_job(i, 200.0 * i, region="milan", exec_time=900.0, servers_required=1 + i % 3)
                for i in range(12)
            ]
        )
        scalar, batch = run_both(
            trace, HomeRegionTestScheduler, small_dataset,
            servers_per_region=3, delay_tolerance=20.0,
        )
        assert_equivalent(scalar, batch)

    def test_fallback_is_used_for_custom_policies(self):
        assert not has_fast_path(HomeRegionTestScheduler())
        assert not has_fast_path(DeferOnceTestScheduler())
        assert has_fast_path(BaselineScheduler())
        assert has_fast_path(RoundRobinScheduler())
        assert has_fast_path(LeastLoadScheduler())
        assert has_fast_path(EcovisorLikeScheduler())
        assert has_fast_path(CarbonGreedyOptimalScheduler())

    def test_deferrals_survive_the_fast_and_fallback_paths(self, small_dataset):
        trace = Trace([make_job(0, 0.0, region="oregon", exec_time=2000.0)])
        scalar, batch = run_both(
            trace, DeferOnceTestScheduler, small_dataset,
            servers_per_region=2, delay_tolerance=1.0,
        )
        assert batch.deferrals[0] == 1
        assert_equivalent(scalar, batch)

    def test_equivalence_with_reordered_latency_model(self, small_dataset, small_trace):
        # The latency model orders its regions differently from the simulator
        # (and region codes must not be used to index its matrix directly).
        from repro.regions.latency import TransferLatencyModel

        shuffled = TransferLatencyModel(list(reversed(small_dataset.regions)))
        scalar, batch = run_both(
            small_trace, RoundRobinScheduler, small_dataset,
            servers_per_region=30, latency=shuffled,
        )
        assert scalar.mean_transfer_latency_s > 0.0
        assert_equivalent(scalar, batch)

    def test_equivalence_with_custom_latency_subclass(self, small_dataset, small_trace):
        # A subclass overriding transfer_time breaks the propagation +
        # serialization decomposition; the batch engine must fall back to
        # calling transfer_time per job.
        from repro.regions.latency import TransferLatencyModel

        class QuadraticLatency(TransferLatencyModel):
            def transfer_time(self, source, destination, package_gb=1.0):
                base = super().transfer_time(source, destination, package_gb)
                return base + 0.001 * base * base

        custom = QuadraticLatency(small_dataset.regions)
        scalar, batch = run_both(
            small_trace, RoundRobinScheduler, small_dataset,
            servers_per_region=30, latency=custom,
        )
        assert_equivalent(scalar, batch)

    def test_overriding_scheduler_subclass_is_decision_equivalent(
        self, small_dataset, small_trace
    ):
        # A RoundRobin subclass with different logic must NOT inherit the
        # parent's fast path — both engines must run its schedule().
        from repro.cluster.interface import SchedulerDecision

        class InvertedRoundRobin(RoundRobinScheduler):
            name = "inverted-round-robin"

            def schedule(self, jobs, context):
                keys = list(reversed(context.region_keys))
                assignments = {}
                for job in jobs:
                    assignments[job.job_id] = keys[self._cursor % len(keys)]
                    self._cursor += 1
                return SchedulerDecision(assignments=assignments)

        assert not has_fast_path(InvertedRoundRobin())
        scalar, batch = run_both(
            small_trace, InvertedRoundRobin, small_dataset, servers_per_region=30
        )
        assert_equivalent(scalar, batch)
        # Sanity: the decisions really differ from plain round-robin.
        plain = run_engine(
            small_trace, RoundRobinScheduler(), dataset=small_dataset, servers_per_region=30
        )
        assert batch.executed_regions != plain.executed_regions

    def test_duck_typed_latency_object(self, small_dataset, small_trace):
        # The engine only requires transfer_time() of non-standard latency
        # models, exactly like the oracle.
        class FlatLatency:
            def transfer_time(self, source, destination, package_gb=1.0):
                return 0.0 if source == destination else 42.0

        scalar, batch = run_both(
            small_trace, RoundRobinScheduler, small_dataset,
            servers_per_region=30, latency=FlatLatency(),
        )
        assert scalar.mean_transfer_latency_s > 0.0
        assert_equivalent(scalar, batch)

    def test_empty_trace(self, small_dataset):
        result = run_engine(Trace([]), BaselineScheduler(), dataset=small_dataset)
        assert result.num_jobs == 0
        assert result.total_carbon_g == 0.0
        assert result.total_water_l == 0.0
        assert np.isnan(result.mean_service_ratio)


class TestJobArrays:
    def test_columns_align_with_trace_order(self, small_trace, small_dataset):
        # The engine's job pool, viewed as JobArrays: a single chunk of a
        # fresh engine fills slots 0..n-1 in trace order.
        source = TraceView(small_trace)
        engine = StreamingSimulator(source, BaselineScheduler(), dataset=small_dataset)
        engine.init_state()
        engine._ingest(next(source.iter_chunks()))
        arrays = engine._pool_arrays()
        assert engine.state.jobs_seen == len(small_trace)
        for i in (0, len(small_trace) // 2, len(small_trace) - 1):
            job = small_trace[i]
            assert arrays.job_id[i] == job.job_id
            assert arrays.arrival[i] == job.arrival_time
            assert arrays.exec_real[i] == job.realized_execution_time
            assert arrays.energy_real[i] == job.realized_energy_kwh
            assert arrays.region_keys[arrays.home_idx[i]] == job.home_region
            assert arrays.workloads[i] == job.workload

    def test_unknown_home_region_rejected(self, small_trace, small_dataset):
        zurich = [region for region in small_dataset.regions if region.key == "zurich"]
        engine = StreamingSimulator(
            TraceView(small_trace), BaselineScheduler(), dataset=small_dataset,
            regions=zurich,  # the trace spans 5 regions
        )
        with pytest.raises(ValueError, match="home region"):
            engine.run()


class TestBatchResult:
    def test_summary_matches_scalar_summary(self, small_dataset, small_trace):
        scalar, batch = run_both(
            small_trace, BaselineScheduler, small_dataset, servers_per_region=30
        )
        scalar_summary = scalar.summary()
        batch_summary = batch.summary()
        assert set(scalar_summary) == set(batch_summary)
        # Decision times are wall-clock and engine-specific; everything else matches.
        scalar_summary.pop("mean_decision_time_s")
        batch_summary.pop("mean_decision_time_s")
        assert batch_summary == scalar_summary

    def test_to_simulation_result_round_trip(self, small_dataset, small_trace):
        _, batch = run_both(
            small_trace, RoundRobinScheduler, small_dataset, servers_per_region=30
        )
        converted = batch.to_simulation_result()
        assert converted.num_jobs == batch.num_jobs
        assert converted.total_carbon_g == pytest.approx(batch.total_carbon_g)
        assert converted.total_water_l == pytest.approx(batch.total_water_l)
        assert converted.mean_service_ratio == pytest.approx(batch.mean_service_ratio)
        assert converted.jobs_per_region() == batch.jobs_per_region()
        outcome = converted.outcomes[0]
        assert outcome.job_id == int(batch.job_id[0])
        assert outcome.executed_region == batch.executed_regions[0]

    def test_savings_interop_with_scalar_results(self, small_dataset, small_trace):
        scalar_base = Simulator(
            small_trace, BaselineScheduler(), dataset=small_dataset, servers_per_region=30
        ).run()
        batch_base = run_engine(
            small_trace, BaselineScheduler(), dataset=small_dataset, servers_per_region=30
        )
        _, batch_rr = run_both(
            small_trace, RoundRobinScheduler, small_dataset, servers_per_region=30
        )
        # Engine results compare against oracle results and vice versa.
        assert batch_rr.carbon_savings_vs(scalar_base) == pytest.approx(
            batch_rr.carbon_savings_vs(batch_base), rel=EQ_RTOL
        )
        assert scalar_base.carbon_savings_vs(batch_base.to_simulation_result()) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_validation_errors_match_scalar_engine(self, small_dataset):
        trace = Trace([make_job(0, 0.0)])
        with pytest.raises(ValueError):
            run_engine(
                trace, FixedRegionTestScheduler("atlantis"),
                dataset=small_dataset, servers_per_region=1,
            )
        with pytest.raises(ValueError):
            StreamingSimulator(
                TraceView(trace), BaselineScheduler(), dataset=small_dataset,
                servers_per_region=0,
            )
