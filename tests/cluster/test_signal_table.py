"""The hour-indexed signal table against the per-region series lookups."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.footprint import FootprintCalculator
from repro.core import HistoryLearner
from repro.core.waterwise import record_round_intensities
from repro.sustainability import ElectricityMapsLikeProvider
from tests.oracles.history import DequeHistoryLearner

HORIZON = 30


def _times(horizon):
    """Starts, interiors and last instants of every hour, plus times past the horizon."""
    times = [0.0]
    for hour in range(horizon + 3):
        start = 3600.0 * hour
        times += [start, start + 0.5, start + 1799.25, np.nextafter(start + 3600.0, 0.0)]
    return times + [1e9]


def _bytes(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.fixture(scope="module")
def dataset():
    return ElectricityMapsLikeProvider(horizon_hours=HORIZON, seed=3)


def signal_table(dataset, keys):
    return FootprintCalculator(dataset).signal_table(keys)


def record(learner, keys, dataset, now):
    """``record_round_intensities`` on a minimal round context."""
    context = SimpleNamespace(
        region_keys=keys, dataset=dataset, footprints=FootprintCalculator(dataset), now=now
    )
    record_round_intensities(learner, context)


@pytest.mark.parametrize("order", ["catalog", "reversed"])
def test_rows_equal_the_series_lookups_exactly(dataset, order):
    keys = dataset.region_keys if order == "catalog" else dataset.region_keys[::-1]
    table = signal_table(dataset, keys)
    series = [dataset.series_for(key) for key in keys]
    for t in _times(HORIZON):
        hour = table.hour(t)
        assert _bytes(table.carbon[hour]) == _bytes([s.carbon_intensity_at(t) for s in series])
        assert _bytes(table.ewif[hour]) == _bytes([s.ewif_at(t) for s in series])
        assert _bytes(table.wue[hour]) == _bytes([s.wue_at(t) for s in series])
        assert _bytes(table.water_row(t)) == _bytes([s.water_intensity_at(t) for s in series])
    assert _bytes(table.wsf) == _bytes([s.wsf for s in series])
    assert _bytes(table.pue) == _bytes([s.pue for s in series])


def test_table_is_cached_per_series_order(dataset):
    calculator = FootprintCalculator(dataset)
    keys = dataset.region_keys
    assert calculator.signal_table(keys) is calculator.signal_table(list(keys))
    assert calculator.signal_table(keys, dataset) is calculator.signal_table(keys)
    assert calculator.signal_table(keys[::-1]) is not calculator.signal_table(keys)
    with pytest.raises(ValueError):  # cached rows are handed out as views
        calculator.signal_table(keys).carbon[0, 0] = 0.0


def test_history_records_what_the_per_region_lookups_give(dataset):
    keys = dataset.region_keys
    learner, oracle = HistoryLearner(window=9), DequeHistoryLearner(window=9)
    for t in _times(HORIZON):
        record(learner, keys, dataset, t)
        oracle.observe(
            keys,
            [dataset.series_for(k).carbon_intensity_at(t) for k in keys],
            [dataset.series_for(k).water_intensity_at(t) for k in keys],
        )
        for mine, theirs in zip(learner.reference(keys), oracle.reference(keys)):
            assert mine.tobytes() == theirs.tobytes()


def test_clones_get_their_own_rows(dataset):
    keys = dataset.region_keys
    calculator = FootprintCalculator(dataset)
    original = calculator.signal_table(keys)  # cached before any clone exists
    factors = np.linspace(0.5, 2.0, HORIZON)
    shocked = dataset.with_hourly_factors({"zurich": factors}, {"milan": factors})
    perturbed = dataset.perturbed(carbon_scale=1.3, water_scale=0.8)
    for clone in (shocked, perturbed):
        table = calculator.signal_table(keys, clone)
        assert table is not original
        for t in _times(HORIZON):
            hour = table.hour(t)
            series = [clone.series_for(k) for k in keys]
            assert _bytes(table.carbon[hour]) == _bytes([s.carbon_intensity_at(t) for s in series])
            assert _bytes(table.water_row(t)) == _bytes([s.water_intensity_at(t) for s in series])
    shocked_table = calculator.signal_table(keys, shocked)
    zurich, madrid = keys.index("zurich"), keys.index("madrid")
    assert not np.array_equal(shocked_table.carbon[:, zurich], original.carbon[:, zurich])
    # The unshocked regions keep their series objects, hence equal rows.
    assert np.array_equal(shocked_table.carbon[:, madrid], original.carbon[:, madrid])
    assert calculator.signal_table(keys) is original
    # A calculator built on the clone reads the clone's rows too.
    assert np.array_equal(FootprintCalculator(shocked).signal_table(keys).carbon,
                          shocked_table.carbon)


def test_calculator_matrices_follow_the_table(dataset):
    calculator = FootprintCalculator(dataset)
    keys = dataset.region_keys
    energy, exec_time = np.array([0.2, 1.5]), np.array([600.0, 7200.0])
    for t in (0.0, 3600.0 * 4 + 10.0, 3600.0 * (HORIZON + 5)):
        ci = np.array([dataset.series_for(k).carbon_intensity_at(t) for k in keys])
        expected = calculator.carbon_model.total(energy[:, None], ci[None, :], exec_time[:, None])
        got = calculator.carbon_matrix_arrays(energy, exec_time, keys, t)
        assert got.tobytes() == np.asarray(expected).tobytes()


def test_negative_time_raises_the_lookup_error(dataset):
    keys = dataset.region_keys
    with pytest.raises(ValueError) as lookup:
        dataset.series_for(keys[0]).carbon_intensity_at(-1.0)
    with pytest.raises(ValueError) as table:
        signal_table(dataset, keys).hour(-1.0)
    assert str(table.value) == str(lookup.value)
    with pytest.raises(ValueError, match=str(lookup.value)):
        record(HistoryLearner(), keys, dataset, -1.0)
    with pytest.raises(ValueError, match=str(lookup.value)):
        FootprintCalculator(dataset).carbon_matrix_arrays(np.ones(1), np.ones(1), keys, -1.0)


class _BrokenProvider(ElectricityMapsLikeProvider):
    """A provider whose ``region`` series is made invalid by ``breaker``."""

    def __init__(self, region, breaker):
        super().__init__(horizon_hours=HORIZON, seed=3)
        self.broken_region, self.breaker = region, breaker

    def _build_series(self, region):
        series = super()._build_series(region)
        return self.breaker(series) if region.key == self.broken_region else series


def _negative_at_hour_5(field):
    def breaker(series):
        values = getattr(series, field).copy()
        values[5] = -0.25
        return dataclasses.replace(series, **{field: values})

    return breaker


def _static(field, value):
    def breaker(series):
        object.__setattr__(series, field, value)  # past the constructor's check
        return series

    return breaker


@pytest.mark.parametrize(
    "breaker, bad_hours",
    [
        (_negative_at_hour_5("wue"), {5}),
        (_negative_at_hour_5("ewif"), {5}),
        (_static("wsf", -0.1), set(range(HORIZON))),
        (_static("pue", 0.9), set(range(HORIZON))),
    ],
    ids=["wue", "ewif", "wsf", "pue"],
)
def test_invalid_inputs_raise_the_lookup_error(breaker, bad_hours):
    dataset = _BrokenProvider("milan", breaker)
    keys = dataset.region_keys
    table = signal_table(dataset, keys)
    learner = HistoryLearner()
    for hour in range(HORIZON):
        t = 3600.0 * hour + 60.0
        if hour not in bad_hours:
            table.water_row(t)
            record(learner, keys, dataset, t)
            continue
        with pytest.raises(ValueError) as lookup:
            dataset.series_for("milan").water_intensity_at(t)
        with pytest.raises(ValueError) as from_table:
            table.water_row(t)
        assert str(from_table.value) == str(lookup.value)
        before = learner.rounds_recorded
        with pytest.raises(ValueError, match=str(lookup.value)):
            record(learner, keys, dataset, t)
        assert learner.rounds_recorded == before


def test_negative_carbon_is_rejected_by_the_history():
    dataset = _BrokenProvider("oregon", _negative_at_hour_5("carbon_intensity"))
    with pytest.raises(ValueError, match="intensities must be non-negative"):
        record(HistoryLearner(), dataset.region_keys, dataset, 5 * 3600.0)
