"""Tests for the experiment-scale helper and sweep plumbing."""

import pytest

from repro.analysis.sweep import ExperimentScale, simulate, waterwise_factory
from repro.core import WaterWiseConfig
from repro.schedulers import BaselineScheduler
from repro.sustainability import WRILikeProvider
from tests.oracles.simulator import Simulator


class TestExperimentScale:
    def test_defaults(self):
        scale = ExperimentScale()
        assert scale.rate_per_hour == 60.0
        assert scale.target_utilization == 0.15

    def test_borg_trace_scales_with_rate(self):
        small = ExperimentScale(rate_per_hour=20.0, duration_days=0.2, seed=1).borg_trace()
        large = ExperimentScale(rate_per_hour=80.0, duration_days=0.2, seed=1).borg_trace()
        assert len(large) > 2 * len(small)

    def test_rate_multiplier(self):
        scale = ExperimentScale(rate_per_hour=20.0, duration_days=0.2, seed=1)
        assert len(scale.borg_trace(rate_multiplier=2.0)) > 1.5 * len(scale.borg_trace())

    def test_alibaba_trace_is_faster(self):
        scale = ExperimentScale(rate_per_hour=20.0, duration_days=0.2, seed=1)
        assert len(scale.alibaba_trace()) > 4 * len(scale.borg_trace())

    def test_dataset_provider_selection(self):
        scale = ExperimentScale(duration_days=0.2, seed=2)
        default = scale.dataset()
        wri = scale.dataset(provider=WRILikeProvider)
        assert default.name == "electricity-maps-like"
        assert wri.name == "wri-like"
        assert default.horizon_hours >= 72

    def test_servers_for_utilization_inverse_relation(self):
        scale = ExperimentScale(rate_per_hour=40.0, duration_days=0.25, seed=3)
        trace = scale.borg_trace()
        keys = ["zurich", "madrid", "oregon", "milan", "mumbai"]
        low = scale.servers_for(trace, keys, utilization=0.05)
        high = scale.servers_for(trace, keys, utilization=0.30)
        assert low > high

    def test_frozen(self):
        scale = ExperimentScale()
        with pytest.raises(Exception):
            scale.seed = 7  # type: ignore[misc]


class TestFactoriesAndSimulate:
    def test_waterwise_factory_applies_config(self):
        factory = waterwise_factory(WaterWiseConfig.with_weights(0.3))
        scheduler = factory()
        assert scheduler.config.lambda_co2 == pytest.approx(0.3)
        # A fresh instance is produced on every call (no shared state).
        assert factory() is not scheduler

    def test_simulate_wrapper_round_trip(self):
        scale = ExperimentScale(rate_per_hour=10.0, duration_days=0.1, seed=4)
        trace = scale.borg_trace()
        dataset = scale.dataset()
        result = simulate(
            trace, BaselineScheduler(), dataset,
            servers_per_region=4, delay_tolerance=0.25,
        )
        assert result.num_jobs == len(trace)
        assert result.delay_tolerance == 0.25
        assert result.trace_name == trace.name

    def test_simulate_engine_selection(self):
        scale = ExperimentScale(rate_per_hour=10.0, duration_days=0.1, seed=4)
        trace = scale.borg_trace()
        dataset = scale.dataset()
        common = dict(servers_per_region=4, delay_tolerance=0.25)
        scalar = Simulator(trace, BaselineScheduler(), dataset=dataset, **common).run()
        batch = simulate(trace, BaselineScheduler(), dataset, **common)
        # The default engine returns a SimulationResult and agrees with the
        # object-world oracle on the physics.
        assert type(batch) is type(scalar)
        assert batch.num_jobs == scalar.num_jobs
        assert batch.total_carbon_g == pytest.approx(scalar.total_carbon_g, rel=1e-9)
        assert batch.total_water_l == pytest.approx(scalar.total_water_l, rel=1e-9)
        with pytest.raises(ValueError, match="engine"):
            simulate(trace, BaselineScheduler(), dataset, engine="quantum", **common)
