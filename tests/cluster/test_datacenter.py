"""Tests for the reference simulator's per-region capacity/queue model."""

import pytest

from tests.oracles.datacenter import Datacenter

from .conftest import make_job


class TestDatacenter:
    def test_initial_state(self):
        dc = Datacenter("zurich", servers=3)
        assert dc.free_servers == 3
        assert dc.remaining_capacity() == 3
        assert dc.running_count == 0
        assert dc.queued_count == 0

    def test_invalid_server_count(self):
        with pytest.raises(ValueError):
            Datacenter("zurich", servers=0)

    def test_start_and_finish(self):
        dc = Datacenter("zurich", servers=2)
        job = make_job(1, 0.0, exec_time=100.0)
        entry = dc.start(job, now=10.0)
        assert entry.finish_time == pytest.approx(110.0)
        assert dc.free_servers == 1
        started = dc.finish(1, now=110.0)
        assert started == []
        assert dc.free_servers == 2
        assert dc.completed_jobs == 1
        assert dc.busy_server_seconds == pytest.approx(100.0)

    def test_start_without_capacity_raises(self):
        dc = Datacenter("zurich", servers=1)
        dc.start(make_job(1, 0.0), now=0.0)
        with pytest.raises(RuntimeError):
            dc.start(make_job(2, 0.0), now=0.0)

    def test_admit_queues_when_full(self):
        dc = Datacenter("zurich", servers=1)
        assert dc.admit(make_job(1, 0.0, exec_time=50.0), now=0.0) is not None
        assert dc.admit(make_job(2, 0.0, exec_time=50.0), now=0.0) is None
        assert dc.queued_count == 1
        assert dc.remaining_capacity() == 0

    def test_finish_starts_queued_jobs_fifo(self):
        dc = Datacenter("zurich", servers=1)
        dc.admit(make_job(1, 0.0, exec_time=50.0), now=0.0)
        dc.admit(make_job(2, 0.0, exec_time=50.0), now=0.0)
        dc.admit(make_job(3, 0.0, exec_time=50.0), now=0.0)
        started = dc.finish(1, now=50.0)
        assert [entry.job.job_id for entry in started] == [2]
        assert dc.queued_count == 1

    def test_multi_server_jobs(self):
        dc = Datacenter("zurich", servers=4)
        big = make_job(1, 0.0, exec_time=100.0, servers_required=3)
        small = make_job(2, 0.0, exec_time=100.0, servers_required=2)
        assert dc.admit(big, now=0.0) is not None
        assert dc.admit(small, now=0.0) is None  # only 1 server free
        started = dc.finish(1, now=100.0)
        assert [entry.job.job_id for entry in started] == [2]

    def test_fifo_head_of_line_blocking(self):
        dc = Datacenter("zurich", servers=2)
        dc.admit(make_job(1, 0.0, exec_time=10.0, servers_required=2), now=0.0)
        dc.admit(make_job(2, 0.0, exec_time=10.0, servers_required=2), now=0.0)
        dc.admit(make_job(3, 0.0, exec_time=10.0, servers_required=1), now=0.0)
        started = dc.finish(1, now=10.0)
        # Job 2 starts; job 3 must wait even though a single server would fit it later.
        assert [entry.job.job_id for entry in started] == [2]
        assert dc.queued_count == 1

    def test_can_start_respects_queue_order(self):
        dc = Datacenter("zurich", servers=2)
        dc.admit(make_job(1, 0.0, servers_required=2), now=0.0)
        dc.enqueue(make_job(2, 0.0))
        assert not dc.can_start(make_job(3, 0.0))

    def test_finish_unknown_job(self):
        dc = Datacenter("zurich", servers=1)
        with pytest.raises(KeyError):
            dc.finish(42, now=0.0)

    def test_remaining_capacity_counts_queue(self):
        dc = Datacenter("zurich", servers=3)
        dc.admit(make_job(1, 0.0), now=0.0)
        dc.enqueue(make_job(2, 0.0, servers_required=2))
        assert dc.remaining_capacity() == 0

    def test_utilization(self):
        dc = Datacenter("zurich", servers=2)
        dc.start(make_job(1, 0.0, exec_time=100.0), now=0.0)
        dc.finish(1, now=100.0)
        assert dc.utilization(makespan_s=100.0) == pytest.approx(0.5)
        assert dc.utilization(makespan_s=0.0) == 0.0
