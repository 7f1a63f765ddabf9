"""Shared oracle-vs-engine equivalence assertions.

The contract: for any trace, policy and cluster configuration, the engine
(:class:`~repro.cluster.streaming.StreamingSimulator` with
``collect="full"``) makes *identical scheduling decisions* to the
object-world oracle (:class:`tests.oracles.simulator.Simulator`: same
executed regions, start/finish times and deferral counts) and produces
footprints equal within 1e-9 relative.

Used by the per-feature suite (``tests/cluster/test_batch_engine.py``) and by
the registry-wide differential harness
(``tests/integration/test_differential.py``), so any new policy, fast path or
scenario family is checked with the same assertions.
"""

import numpy as np
import pytest

from repro.cluster import JobArrays, StreamingSimulator
from repro.traces.stream import TraceSource, TraceView

from tests.oracles.simulator import Simulator

EQ_RTOL = 1e-9


def run_engine(trace, scheduler, **kwargs):
    """One ``collect="full"`` engine run over a materialized trace."""
    return StreamingSimulator(TraceView(trace), scheduler, collect="full", **kwargs).run()


def run_both(trace, make_scheduler, dataset, **kwargs):
    """Run the same configuration through the oracle and the engine (fresh schedulers)."""
    scalar = Simulator(trace, make_scheduler(), dataset=dataset, **kwargs).run()
    batch = run_engine(trace, make_scheduler(), dataset=dataset, **kwargs)
    return scalar, batch


def job_arrays(trace, region_keys) -> JobArrays:
    """Columnar view of ``trace`` over ``region_keys`` (position ``i`` is ``trace[i]``)."""
    keys = tuple(region_keys)
    columns = trace.to_columns()
    code = {key: i for i, key in enumerate(keys)}
    return JobArrays(
        region_keys=keys,
        job_id=columns["job_id"],
        arrival=columns["arrival_time"],
        exec_est=columns["execution_time"],
        exec_real=columns["realized_execution_time"],
        energy_est=columns["energy_kwh"],
        energy_real=columns["realized_energy_kwh"],
        home_idx=np.array([code[home] for home in columns["home_region"]], dtype=np.int64),
        package_gb=columns["package_gb"],
        servers=columns["servers_required"],
        workloads=columns["workload"],
    )


def oracle_simulate(calls=None):
    """A drop-in for :func:`repro.analysis.sweep.simulate` that runs the oracle.

    Monkeypatch it over ``sweep.simulate`` to route the experiments, the
    sweeps and ``repro simulate`` through the oracle; ``calls`` (a list, if
    given) records the name of every scheduler simulated.  Chaos runs raise,
    as the oracle has no fault timeline.
    """

    def simulate(trace, scheduler, dataset, servers_per_region, delay_tolerance,
                 scheduling_interval_s=300.0, regions=None, include_embodied=True,
                 engine="batch", chunk_size=4096, chaos=None, chaos_seed=0,
                 kernel="vector"):
        if calls is not None:
            calls.append(scheduler.name)
        if isinstance(trace, TraceSource):
            trace = trace.materialize()
        return Simulator(
            trace, scheduler, dataset=dataset, regions=regions,
            servers_per_region=servers_per_region, delay_tolerance=delay_tolerance,
            scheduling_interval_s=scheduling_interval_s,
            include_embodied=include_embodied, chaos=chaos, chaos_seed=chaos_seed,
        ).run()

    return simulate


def assert_equivalent(scalar, batch):
    """Scheduling decisions identical; footprints equal within 1e-9."""
    outcomes = scalar.outcomes
    assert batch.num_jobs == len(outcomes)
    assert [o.job_id for o in outcomes] == list(batch.job_id)
    assert [o.executed_region for o in outcomes] == batch.executed_regions
    np.testing.assert_array_equal([o.start_time for o in outcomes], batch.start)
    np.testing.assert_array_equal([o.finish_time for o in outcomes], batch.finish)
    np.testing.assert_array_equal([o.ready_time for o in outcomes], batch.ready)
    np.testing.assert_array_equal([o.transfer_latency for o in outcomes], batch.transfer_latency)
    np.testing.assert_array_equal([o.deferrals for o in outcomes], batch.deferrals)
    np.testing.assert_allclose(
        [o.carbon_g for o in outcomes], batch.carbon_g, rtol=EQ_RTOL, atol=0.0
    )
    np.testing.assert_allclose(
        [o.water_l for o in outcomes], batch.water_l, rtol=EQ_RTOL, atol=0.0
    )
    # Aggregates follow from the per-job arrays but guard the derived metrics.
    assert batch.makespan_s == scalar.makespan_s
    assert batch.total_carbon_g == pytest.approx(scalar.total_carbon_g, rel=EQ_RTOL)
    assert batch.total_water_l == pytest.approx(scalar.total_water_l, rel=EQ_RTOL)
    assert batch.mean_service_ratio == pytest.approx(scalar.mean_service_ratio, rel=1e-12)
    assert batch.violation_fraction == scalar.violation_fraction
    assert batch.migration_fraction == scalar.migration_fraction
    assert batch.jobs_per_region() == scalar.jobs_per_region()
    assert batch.region_utilization == pytest.approx(scalar.region_utilization)


def assert_capacity_invariants(engine):
    """Server-accounting invariants of a live streaming :class:`EngineState`.

    Safe to call after any chunk (or mid-drain): with ``queue`` the live
    event queue, ``running_r`` the servers of slots with a pending FINISH
    event in region ``r`` and ``queued_r`` the servers FIFO-queued there,

    * ``free == capacity - running`` per region (negative under drain-mode
      chaos is legal — that is the over-capacity drain state),
    * ``committed == running + queued`` per region,
    * no slot is simultaneously running and FIFO-queued, and
    * ``capacity >= 0`` everywhere.
    """
    state = engine.state
    pool = state.pool
    n_regions = len(state.free)
    running = np.zeros(n_regions, dtype=np.int64)
    finish_slots = state.events.finish_slot
    np.add.at(running, pool["region"][finish_slots], pool["servers"][finish_slots])
    queued = np.zeros(n_regions, dtype=np.int64)
    queued_slots: set[int] = set()
    for region, fifo in enumerate(state.queues):
        for slot, srv in fifo:
            queued[region] += int(srv)
            queued_slots.add(int(slot))
    overlap = queued_slots.intersection(finish_slots.tolist())
    assert not overlap, f"slots both running and FIFO-queued: {sorted(overlap)}"
    capacity = state.capacity
    assert np.all(capacity >= 0), f"negative capacity: {capacity}"
    np.testing.assert_array_equal(state.free, capacity - running)
    np.testing.assert_array_equal(state.committed, running + queued)
