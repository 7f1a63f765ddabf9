"""The fast path's slack selection against :meth:`SlackManager.select`.

``_slack_selection`` looks up each distinct ``(home, package)`` pair's
average transfer latency once per round and gathers it back to the jobs; it
must rank and admit exactly as the scalar slack manager does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.fastpath as fastpath
from repro.cluster import BatchSchedulingContext
from repro.cluster.interface import SchedulingContext
from repro.core import SlackManager, WaterWiseScheduler
from repro.traces import Trace

from ..equivalence import job_arrays
from .conftest import make_job

_HOMES = ["zurich", "madrid", "oregon", "milan", "mumbai"]


@st.composite
def slack_rounds(draw):
    """Jobs, per-job waits, a batch order and a capacity that forces shedding."""
    n_jobs = draw(st.integers(1, 40))
    # Few distinct values, so pairs repeat and equal scores tie often.
    homes = st.sampled_from(_HOMES[: draw(st.integers(1, 5))])
    packages = st.sampled_from([0.5, 1.0, 4.0, 12.5][: draw(st.integers(1, 4))])
    exec_times = st.sampled_from([600.0, 1800.0, 7200.0])
    waits = st.sampled_from([0.0, 0.0, 300.0, 900.0])
    jobs = [
        make_job(
            job_id, region=draw(homes), exec_time=draw(exec_times),
            package_gb=draw(packages), servers_required=draw(st.integers(1, 3)),
        )
        for job_id in range(n_jobs)
    ]
    wait = [draw(waits) for _ in jobs]
    order = draw(st.permutations(range(n_jobs)))
    capacity = draw(st.integers(0, sum(job.servers_required for job in jobs)))
    return jobs, wait, list(order), capacity


def _contexts(jobs, wait, order, dataset, regions, latency, footprints):
    keys = tuple(dataset.region_keys)
    arrays = job_arrays(Trace(jobs), keys)
    position = {int(job_id): i for i, job_id in enumerate(arrays.job_id)}
    batch = np.array([position[jobs[i].job_id] for i in order], dtype=np.int64)
    common = dict(
        now=3600.0, delay_tolerance=0.5, scheduling_interval_s=300.0,
        dataset=dataset, latency=latency, footprints=footprints, regions=regions,
    )
    batch_context = BatchSchedulingContext(
        region_keys=keys,
        capacity=np.full(len(keys), 100, dtype=np.int64),
        jobs=arrays,
        batch=batch,
        wait_times=np.array([wait[i] for i in order]),
        **common,
    )
    scalar_context = SchedulingContext(
        capacity={key: 100 for key in keys},
        job_wait_times={jobs[i].job_id: wait[i] for i in order},
        **common,
    )
    return batch_context, scalar_context


@settings(max_examples=80, deadline=None)
@given(slack_rounds())
def test_selection_matches_the_slack_manager(dataset, regions, latency, footprints, round_):
    jobs, wait, order, capacity = round_
    batch_context, scalar_context = _contexts(
        jobs, wait, order, dataset, regions, latency, footprints
    )
    selected = fastpath._slack_selection(
        WaterWiseScheduler(), batch_context, batch_context.batch, capacity
    )
    chosen = batch_context.jobs.job_id[batch_context.batch[selected]].tolist()
    reference = SlackManager().select([jobs[i] for i in order], scalar_context, capacity)
    assert chosen == [job.job_id for job in reference.selected]


def test_one_lookup_per_distinct_pair(dataset, regions, latency, footprints, monkeypatch):
    jobs = [
        make_job(i, region=_HOMES[i % 3], package_gb=[1.0, 4.0][i % 2], exec_time=1800.0)
        for i in range(30)
    ] + [make_job(30, region="mumbai", package_gb=7.0)]
    batch_context, _ = _contexts(
        jobs, [0.0] * len(jobs), list(range(len(jobs))), dataset, regions, latency, footprints
    )
    calls = []
    original = fastpath.cached_average_from

    def counting(model, source, package_gb):
        calls.append((source, package_gb))
        return original(model, source, package_gb)

    monkeypatch.setattr(fastpath, "cached_average_from", counting)
    fastpath._slack_selection(WaterWiseScheduler(), batch_context, batch_context.batch, 10)
    pairs = {(job.home_region, job.package_gb) for job in jobs}
    assert sorted(calls) == sorted(pairs)


@pytest.mark.parametrize("capacity", [0, 1, 5])
def test_equal_scores_break_on_job_id(dataset, regions, latency, footprints, capacity):
    # Identical jobs presented in reverse id order: the lowest ids win.
    jobs = [make_job(i, region="milan", package_gb=2.0, exec_time=1800.0) for i in range(8)]
    batch_context, _ = _contexts(
        jobs, [0.0] * 8, list(range(7, -1, -1)), dataset, regions, latency, footprints
    )
    selected = fastpath._slack_selection(
        WaterWiseScheduler(), batch_context, batch_context.batch, capacity
    )
    assert batch_context.jobs.job_id[batch_context.batch[selected]].tolist() == list(
        range(capacity)
    )
