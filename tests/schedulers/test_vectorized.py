"""Tests for the vectorized fast-path registry and the built-in fast paths."""

import numpy as np
import pytest

from repro.cluster import BatchSchedulingContext, FootprintCalculator
from repro.regions import TransferLatencyModel, default_regions
from repro.schedulers import (
    BaselineScheduler,
    CarbonGreedyOptimalScheduler,
    EcovisorLikeScheduler,
    LeastLoadScheduler,
    RoundRobinScheduler,
    WaterGreedyOptimalScheduler,
    fast_path_for,
    has_fast_path,
    register_fast_path,
    unregister_fast_path,
)
from repro.traces import Trace

from ..equivalence import job_arrays
from .conftest import make_job


@pytest.fixture
def batch_context(dataset, regions, latency, footprints):
    """Factory building a BatchSchedulingContext over a small synthetic batch."""

    def _make(jobs=None, capacity=None, now=0.0):
        if jobs is None:
            jobs = [make_job(i, region=["zurich", "mumbai", "milan"][i % 3]) for i in range(6)]
        trace = Trace(jobs)
        keys = tuple(key for key in dataset.region_keys)
        arrays = job_arrays(trace, keys)
        if capacity is None:
            capacity = np.full(len(keys), 10, dtype=np.int64)
        batch = np.arange(arrays.n, dtype=np.int64)
        return arrays, BatchSchedulingContext(
            now=now,
            region_keys=keys,
            capacity=np.asarray(capacity, dtype=np.int64),
            jobs=arrays,
            batch=batch,
            wait_times=np.zeros(arrays.n),
            delay_tolerance=0.5,
            scheduling_interval_s=300.0,
            dataset=dataset,
            latency=latency,
            footprints=footprints,
            regions=regions,
        )

    return _make


class TestRegistry:
    def test_builtins_have_fast_paths(self):
        for scheduler in (BaselineScheduler(), RoundRobinScheduler(), LeastLoadScheduler()):
            assert has_fast_path(scheduler)
            assert callable(fast_path_for(scheduler))

    def test_unknown_policy_falls_back(self):
        class CustomScheduler(BaselineScheduler.__mro__[1]):  # plain Scheduler subclass
            name = "custom"

            def schedule(self, jobs, context):  # pragma: no cover - never called here
                raise NotImplementedError

        assert fast_path_for(CustomScheduler()) is None
        assert not has_fast_path(CustomScheduler())

    def test_subclasses_inherit_via_mro(self):
        class TunedBaseline(BaselineScheduler):
            name = "tuned-baseline"

        assert has_fast_path(TunedBaseline())
        assert fast_path_for(TunedBaseline()) is fast_path_for(BaselineScheduler())

    def test_subclass_overriding_schedule_loses_inherited_fast_path(self):
        # The parent's fast path mirrors the parent's schedule(); a subclass
        # with different decision logic must fall back to the scalar path.
        class InvertedRoundRobin(RoundRobinScheduler):
            name = "inverted-round-robin"

            def schedule(self, jobs, context):
                keys = list(reversed(context.region_keys))
                assignments = {}
                for job in jobs:
                    assignments[job.job_id] = keys[self._cursor % len(keys)]
                    self._cursor += 1
                from repro.cluster.interface import SchedulerDecision

                return SchedulerDecision(assignments=assignments)

        assert fast_path_for(InvertedRoundRobin()) is None
        assert not has_fast_path(InvertedRoundRobin())
        # Explicit registration restores the fast path for the subclass.
        def inverted_path(scheduler, context):
            n = len(context.region_keys)
            count = context.batch_size
            choice = n - 1 - ((scheduler._cursor + np.arange(count, dtype=np.int64)) % n)
            scheduler._cursor += count
            return choice

        register_fast_path(InvertedRoundRobin, inverted_path)
        try:
            assert fast_path_for(InvertedRoundRobin()) is inverted_path
        finally:
            unregister_fast_path(InvertedRoundRobin)

    def test_register_and_unregister_custom_fast_path(self):
        class CustomScheduler(BaselineScheduler):
            name = "custom-registered"

        def custom_path(scheduler, context):
            return np.zeros(context.batch_size, dtype=np.int64)

        register_fast_path(CustomScheduler, custom_path)
        try:
            assert fast_path_for(CustomScheduler()) is custom_path
            # The parent registration is untouched.
            assert fast_path_for(BaselineScheduler()) is not custom_path
        finally:
            unregister_fast_path(CustomScheduler)
        assert fast_path_for(CustomScheduler()) is fast_path_for(BaselineScheduler())

    def test_register_rejects_non_scheduler_types(self):
        with pytest.raises(TypeError):
            register_fast_path(int, lambda s, c: None)

    def test_exact_registration_never_inherits(self):
        # The documented hazard: a policy whose decisions flow through hooks
        # other than schedule() (template methods) must register exact=True —
        # then even a subclass that does NOT override schedule falls back.
        class TemplatePolicy(BaselineScheduler.__mro__[1]):  # plain Scheduler
            name = "template"

            def schedule(self, jobs, context):
                raise NotImplementedError

        class TunedTemplate(TemplatePolicy):
            name = "tuned-template"

        def template_path(scheduler, context):  # pragma: no cover - dispatch only
            return np.zeros(context.batch_size, dtype=np.int64)

        register_fast_path(TemplatePolicy, template_path, exact=True)
        try:
            assert fast_path_for(TemplatePolicy()) is template_path
            assert fast_path_for(TunedTemplate()) is None
            assert not has_fast_path(TunedTemplate())
        finally:
            unregister_fast_path(TemplatePolicy)

    def test_waterwise_registrations_are_exact(self):
        # Both WaterWise registrations are exact: the cost-aware subclass has
        # its own (its `_extra_cost` hook is mirrored by a bit-identical
        # `_extra_cost_arrays`), while any further subclass tweaking a hook
        # the MRO guard cannot see must fall back to the scalar path until it
        # registers its own mirrored implementation.
        from repro.core import CostAwareWaterWiseScheduler, WaterWiseScheduler

        assert has_fast_path(WaterWiseScheduler())
        assert has_fast_path(CostAwareWaterWiseScheduler())

        class RetunedCostAware(CostAwareWaterWiseScheduler):
            name = "retuned-cost-aware"

            def _extra_cost(self, jobs, context):
                return None

        assert fast_path_for(RetunedCostAware()) is None

        class RetunedWaterWise(WaterWiseScheduler):
            name = "retuned-waterwise"

        assert fast_path_for(RetunedWaterWise()) is None

    def test_greedy_oracles_share_base_registration(self):
        base_path = fast_path_for(CarbonGreedyOptimalScheduler())
        assert base_path is not None
        assert fast_path_for(WaterGreedyOptimalScheduler()) is base_path

        class InvertedOracle(CarbonGreedyOptimalScheduler):
            name = "inverted-oracle"

            def schedule(self, jobs, context):  # pragma: no cover - dispatch only
                raise NotImplementedError

        # Overriding schedule severs the inherited registration explicitly.
        assert fast_path_for(InvertedOracle()) is None


class TestFastPathDecisions:
    """Each built-in fast path must reproduce its scalar schedule() exactly."""

    def _scalar_choice(self, scheduler, jobs, make_context, arrays):
        decision = scheduler.schedule(jobs, make_context(capacity={k: 10 for k in arrays.region_keys}))
        key_index = {key: i for i, key in enumerate(arrays.region_keys)}
        return [key_index[decision.assignments[job.job_id]] for job in jobs]

    def test_baseline_matches_scalar(self, batch_context, make_context):
        jobs = [make_job(i, region=["zurich", "mumbai", "milan"][i % 3]) for i in range(6)]
        arrays, context = batch_context(jobs)
        choice = fast_path_for(BaselineScheduler())(BaselineScheduler(), context)
        assert list(choice) == self._scalar_choice(BaselineScheduler(), jobs, make_context, arrays)

    def test_round_robin_matches_scalar_and_keeps_cursor(self, batch_context, make_context):
        jobs = [make_job(i) for i in range(7)]
        arrays, context = batch_context(jobs)
        fast_sched = RoundRobinScheduler()
        scalar_sched = RoundRobinScheduler()
        fast = fast_path_for(fast_sched)
        first = fast(fast_sched, context)
        assert list(first) == self._scalar_choice(scalar_sched, jobs, make_context, arrays)
        # Cursor persists: a second batch continues where the first stopped.
        second = fast(fast_sched, context)
        n_regions = len(arrays.region_keys)
        assert list(second) == [(7 + i) % n_regions for i in range(7)]
        fast_sched.reset()
        assert list(fast(fast_sched, context)) == list(first)

    def test_least_load_matches_scalar(self, batch_context, make_context):
        jobs = [make_job(i, servers_required=1 + i % 2) for i in range(8)]
        arrays, context = batch_context(jobs, capacity=[3, 1, 4, 1, 5])
        choice = fast_path_for(LeastLoadScheduler())(LeastLoadScheduler(), context)
        scalar_context = make_context(
            capacity=dict(zip(arrays.region_keys, [3, 1, 4, 1, 5]))
        )
        decision = LeastLoadScheduler().schedule(jobs, scalar_context)
        key_index = {key: i for i, key in enumerate(arrays.region_keys)}
        assert list(choice) == [key_index[decision.assignments[j.job_id]] for j in jobs]

    def test_least_load_spreads_batches(self, batch_context):
        jobs = [make_job(i) for i in range(10)]
        _, context = batch_context(jobs, capacity=[2, 2, 2, 2, 2])
        choice = fast_path_for(LeastLoadScheduler())(LeastLoadScheduler(), context)
        counts = np.bincount(choice, minlength=5)
        assert counts.max() - counts.min() <= 1  # even spread, not a pile-up

    def test_ecovisor_matches_scalar(self, batch_context, make_context):
        jobs = [make_job(i, region=["zurich", "mumbai", "milan"][i % 3]) for i in range(9)]
        arrays, context = batch_context(jobs, now=7200.0)
        scheduler = EcovisorLikeScheduler()
        choice = fast_path_for(scheduler)(scheduler, context)
        # The batch fixture reports zero wait; mirror that (an empty mapping
        # would fall back to now - arrival in the scalar context).
        scalar_context = make_context(
            now=7200.0, wait_times={j.job_id: 0.0 for j in jobs}
        )
        decision = EcovisorLikeScheduler().schedule(jobs, scalar_context)
        key_index = {key: i for i, key in enumerate(arrays.region_keys)}
        expected = [
            key_index[decision.assignments[j.job_id]]
            if j.job_id in decision.assignments
            else -1
            for j in jobs
        ]
        assert list(choice) == expected

    @pytest.mark.parametrize(
        "factory", [CarbonGreedyOptimalScheduler, WaterGreedyOptimalScheduler]
    )
    def test_greedy_oracle_matches_scalar(self, factory, batch_context, make_context):
        jobs = [
            make_job(i, region=["zurich", "mumbai", "milan", "oregon"][i % 4],
                     exec_time=600.0 + 400.0 * i)
            for i in range(8)
        ]
        arrays, context = batch_context(jobs, now=3600.0)
        scheduler = factory()
        choice = fast_path_for(scheduler)(scheduler, context)
        decision = factory().schedule(
            jobs, make_context(now=3600.0, wait_times={j.job_id: 0.0 for j in jobs})
        )
        key_index = {key: i for i, key in enumerate(arrays.region_keys)}
        expected = [
            key_index[decision.assignments[j.job_id]]
            if j.job_id in decision.assignments
            else -1
            for j in jobs
        ]
        assert list(choice) == expected

    def test_greedy_oracle_respects_capacity_spillover(self, batch_context, make_context):
        # With capacity 1 in every region the sequential capacity accounting
        # must spill jobs across regions in the same order as the scalar loop.
        jobs = [make_job(i, region="milan", exec_time=1200.0) for i in range(5)]
        arrays, context = batch_context(jobs, capacity=[1, 1, 1, 1, 1])
        scheduler = CarbonGreedyOptimalScheduler()
        choice = fast_path_for(scheduler)(scheduler, context)
        capacity = dict(zip(arrays.region_keys, [1, 1, 1, 1, 1]))
        decision = CarbonGreedyOptimalScheduler().schedule(
            jobs,
            make_context(capacity=capacity, wait_times={j.job_id: 0.0 for j in jobs}),
        )
        key_index = {key: i for i, key in enumerate(arrays.region_keys)}
        expected = [
            key_index[decision.assignments[j.job_id]]
            if j.job_id in decision.assignments
            else -1
            for j in jobs
        ]
        assert list(choice) == expected
