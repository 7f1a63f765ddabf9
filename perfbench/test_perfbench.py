"""Self-checks of the benchmark's own arithmetic (no simulation is run).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import benchstats  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.cluster.streaming import StreamResult  # noqa: E402


class FakeClock:
    """Returns the queued instants one per call."""

    def __init__(self, *instants: float) -> None:
        self._instants = list(instants)

    def __call__(self) -> float:
        return self._instants.pop(0)


# -- the >= 10 samples beyond rule ---------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert benchstats.tail_percentile(values) == (99.0, 990, 10)
    # One sample fewer leaves only 9 above the p99, so the p95 is reported.
    assert benchstats.tail_percentile(values[:999]) == (95.0, 950, 49)


def test_tail_percentile_stops_at_p99():
    values = list(range(1, 10_001))
    assert benchstats.tail_percentile(values) == (99.0, 9900, 100)


def test_tiny_samples_fall_back_to_the_median():
    assert benchstats.tail_percentile(list(range(1, 21))) == (50.0, 10, 10)
    assert benchstats.tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0, 1)


def test_nearest_rank_is_order_free_only_after_sorting():
    assert benchstats.nearest_rank([1, 2, 3, 4], 50.0) == 2
    assert benchstats.nearest_rank([7], 99.0) == 7
    with pytest.raises(ValueError):
        benchstats.nearest_rank([], 50.0)


# -- self time with nested spans -----------------------------------------------------


def test_self_time_subtracts_child_spans():
    # a: 0..10 holds b: 1..5 (which holds c: 2..4) and d: 6..7.
    tracer = spans.Tracer(clock=FakeClock(0, 1, 2, 4, 5, 6, 7, 10))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.enter("d")
    tracer.exit()
    tracer.exit()
    table = spans.span_table(tracer.snapshot())
    assert table[(spans.MAIN, "c")] == (1, 2, 2)
    assert table[(spans.MAIN, "b")] == (1, 4, 2)
    assert table[(spans.MAIN, "d")] == (1, 1, 1)
    assert table[(spans.MAIN, "a")] == (1, 10, 5)
    assert sum(entry[2] for entry in table.values()) == 10


def test_generator_spans_time_only_the_producer():
    tracer = spans.Tracer(clock=FakeClock(0, 1, 5, 7, 9, 10))

    def produce():
        yield "x"
        yield "y"

    wrapped = spans._timed_generator(tracer, "gen", produce)
    assert list(wrapped()) == ["x", "y"]
    count, total, _self = spans.span_table(tracer.snapshot())[(spans.MAIN, "gen")]
    assert (count, total) == (3, 1 + 2 + 1)
    assert tracer.counters["gen.items"] == 2


def _snapshot(*rows, counters=None):
    return {"spans": [list(row) for row in rows], "counters": counters or {}}


def test_layer_rows_and_other_sum_to_the_traced_wall():
    problems: list[str] = []
    snapshot = _snapshot(
        (spans.MAIN, "wall", 1, 10.0, 3.0),
        (spans.MAIN, "engine.advance", 2, 6.0, 2.5),
        (spans.MAIN, "kernel.process_until", 5, 3.5, 3.5),
        (spans.MAIN, "milp.solve", 1, 1.0, 1.0),
    )
    metrics = layers.layer_metrics(snapshot, lanes=1, reps=1, results=[], rounds=0,
                                   overhead_pct=0.0, problems=problems)
    assert problems == []
    assert metrics["other_s"] == pytest.approx(3.0)
    rows = sum(metrics[name] for name in layers.SELF_ROWS)
    assert rows + metrics["other_s"] == pytest.approx(metrics["trace.wall_s"])


def test_unaccounted_spans_are_reported():
    problems: list[str] = []
    snapshot = _snapshot(
        (spans.MAIN, "wall", 1, 10.0, 9.0),
        (spans.MAIN, "mystery", 1, 1.0, 1.0),
        # Set-up outside the root: its self time has no place under the wall.
        (spans.MAIN, "traces.chunk", 1, 0.5, 0.5),
    )
    layers.layer_metrics(snapshot, lanes=1, reps=1, results=[], rounds=0,
                         overhead_pct=0.0, problems=problems)
    assert any("mystery" in problem for problem in problems)
    assert any("root keeps" in problem for problem in problems)


def test_fabric_idle_is_lane_wall_minus_shard_time():
    problems: list[str] = []
    snapshot = _snapshot(
        (spans.MAIN, "wall", 1, 5.0, 5.0),
        (spans.MAIN, "fabric.run_shard", 4, 8.0, 1.0),
        (spans.MAIN, "milp.solve", 9, 7.0, 7.0),
        counters={"fabric.leases": 5, "fabric.accepted": 4},
    )
    metrics = layers.layer_metrics(snapshot, lanes=2, reps=1, results=[], rounds=0,
                                   overhead_pct=0.0, problems=problems,
                                   idle_from_shards=True)
    assert problems == []
    assert metrics["fabric.worker_idle_s"] == pytest.approx(2.0)
    assert metrics["other_s"] == pytest.approx(0.0)
    assert metrics["fabric.useful_lease_ratio"] == pytest.approx(0.8)


# -- failed_pct counting -------------------------------------------------------------


def test_failed_pct():
    assert benchstats.failed_pct(200, 3) == pytest.approx(1.5)
    assert benchstats.failed_pct(10, 0) == 0.0
    with pytest.raises(ValueError):
        benchstats.failed_pct(0, 0)
    with pytest.raises(ValueError):
        benchstats.failed_pct(5, 6)


def test_reply_checks_count_every_job_of_a_bad_batch():
    regions = {"zurich", "oregon"}
    batch = [{"job_id": 1}, {"job_id": 2}]
    good = {"ok": True, "decisions": [[2, "oregon", 0.0, 0.0], [1, "zurich", 0.0, 0.0]]}
    assert loadgen.check_reply(batch, good, regions)
    for bad in (
        {"ok": False, "error": "refused"},
        {"ok": True, "decisions": [[1, "zurich", 0.0, 0.0]]},
        {"ok": True, "decisions": [[1, "zurich", 0, 0], [1, "zurich", 0, 0]]},
        {"ok": True, "decisions": [[1, "zurich", 0, 0], [2, "atlantis", 0, 0]]},
    ):
        assert not loadgen.check_reply(batch, bad, regions)
    phase = loadgen.Phase(400.0, [batch, batch, [{"job_id": 3}]], warmup=0)
    phase.valid = [True, False, False]
    assert phase.failed_jobs() == 3
    assert benchstats.failed_pct(phase.jobs(), phase.failed_jobs()) == pytest.approx(60.0)


def test_unanswered_batches_count_as_over_the_limit():
    phase = loadgen.Phase(400.0, [[{"job_id": 1}], [{"job_id": 2}]], warmup=0)
    phase.due = [0.0, 0.1]
    phase.replied = [0.02, None]
    phase.valid = [True, False]
    phase.gave_up_at = 5.0
    assert phase.latencies_ms() == pytest.approx([20.0, 4900.0])


def test_a_growing_backlog_is_not_sustained():
    count = 100
    phase = loadgen.Phase(100.0, [[{"job_id": i}] for i in range(count)], warmup=0)
    phase.due = [0.01 * i for i in range(count)]
    phase.valid = [True] * count
    phase.gave_up_at = 100.0
    phase.replied = [due + 0.010 for due in phase.due]
    assert phase.sustained()
    # 10 ms climbing to 109 ms: under the limit, but the queue keeps growing.
    phase.replied = [due + 0.010 + 0.001 * i for i, due in enumerate(phase.due)]
    assert phase.backlog_growth_ms() == pytest.approx(97.0 - 22.0)
    assert not phase.sustained()


def test_saturation_throughput_starts_after_the_warmup():
    saturation = loadgen.Saturation()
    saturation.warmup = 2
    saturation.batches = [[{"job_id": i}] for i in range(7)]
    saturation.replied = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
    saturation.valid = [True, True, True, True, False, True]
    # Replies 3..5 came in the 1.5 s after the warm-up's last; one was invalid.
    assert saturation.throughput_jobs_per_s() == pytest.approx(2 / 1.5)
    # The invalid reply and the batch never answered.
    assert saturation.failed_jobs() == 2
    assert not saturation.all_replied()


# -- sign of the savings -------------------------------------------------------------


class _Totals:
    """Just the fields the savings read, with StreamResult's own formulas."""

    carbon_savings_vs = StreamResult.carbon_savings_vs
    water_savings_vs = StreamResult.water_savings_vs

    def __init__(self, carbon_g: float, water_l: float, violation: float = 0.0) -> None:
        self.total_carbon_g = carbon_g
        self.total_water_l = water_l
        self.violation_fraction = violation


def test_saving_is_positive_when_the_policy_uses_less():
    results = {"baseline": _Totals(100.0, 50.0), "waterwise": _Totals(80.0, 55.0, 0.02)}
    carbon, water, violation = workloads.waterwise_quality(results)
    assert carbon == pytest.approx(20.0) and carbon > 0
    assert water == pytest.approx(-10.0) and water < 0
    assert violation == pytest.approx(2.0)
    assert _Totals(1.0, 1.0).carbon_savings_vs(_Totals(0.0, 0.0)) == 0.0


def test_relative_spread_matches_the_quartile_definition():
    assert benchstats.relative_spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


def test_reported_metrics_match_benchmark_json():
    import json

    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == layers.UNITS
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)
