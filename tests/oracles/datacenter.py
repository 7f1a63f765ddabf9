"""Per-region data-center capacity and queue model of the reference simulator.

One object per region with its own server pool and FIFO wait queue, as the
object-world :class:`tests.oracles.simulator.Simulator` uses it.  The engine
keeps the same state as per-region arrays and deques
(:class:`~repro.cluster.streaming.EngineState`).
"""

from __future__ import annotations

import dataclasses
from collections import deque

from repro.traces.job import Job

__all__ = ["Datacenter", "RunningJob"]


@dataclasses.dataclass(frozen=True)
class RunningJob:
    """A job currently occupying servers in a data center."""

    job: Job
    start_time: float
    finish_time: float
    servers: int


class Datacenter:
    """A single region's data center: fixed server pool + FIFO wait queue.

    Jobs committed to this data center first wait for their transfer to
    complete (handled by the simulator), then either start immediately if
    enough servers are free or join the FIFO queue.  ``servers`` is the total
    slot count (the paper's 35 nodes per region at the default scale).
    """

    def __init__(self, region_key: str, servers: int) -> None:
        if servers < 1:
            raise ValueError(f"data center {region_key!r} needs at least one server")
        self.region_key = region_key
        self.servers = int(servers)
        self.free_servers = int(servers)
        self._running: dict[int, RunningJob] = {}
        self._queue: deque[Job] = deque()
        self.busy_server_seconds = 0.0
        self.completed_jobs = 0

    # -- capacity accounting -----------------------------------------------------------
    @property
    def running_count(self) -> int:
        return len(self._running)

    @property
    def queued_count(self) -> int:
        return len(self._queue)

    @property
    def committed_load(self) -> int:
        """Servers needed by running + queued jobs (what future rounds must respect)."""
        running = sum(entry.servers for entry in self._running.values())
        queued = sum(job.servers_required for job in self._queue)
        return running + queued

    def remaining_capacity(self) -> int:
        """Free slots not already promised to queued jobs (the paper's ``cap(n)``)."""
        return max(0, self.servers - self.committed_load)

    # -- job lifecycle -------------------------------------------------------------------
    def can_start(self, job: Job) -> bool:
        return self.free_servers >= job.servers_required and not self._queue

    def start(self, job: Job, now: float) -> RunningJob:
        """Start ``job`` immediately (caller must have checked capacity)."""
        if self.free_servers < job.servers_required:
            raise RuntimeError(
                f"data center {self.region_key!r} has {self.free_servers} free servers, "
                f"job {job.job_id} needs {job.servers_required}"
            )
        self.free_servers -= job.servers_required
        entry = RunningJob(
            job=job,
            start_time=now,
            finish_time=now + job.realized_execution_time,
            servers=job.servers_required,
        )
        self._running[job.job_id] = entry
        return entry

    def enqueue(self, job: Job) -> None:
        """Append ``job`` to the FIFO wait queue."""
        self._queue.append(job)

    def admit(self, job: Job, now: float) -> RunningJob | None:
        """Start ``job`` if possible, otherwise queue it.  Returns the running
        entry when the job started."""
        if self.can_start(job):
            return self.start(job, now)
        self.enqueue(job)
        return None

    def finish(self, job_id: int, now: float) -> list[RunningJob]:
        """Complete a running job and start as many queued jobs as now fit.

        Returns the newly started jobs (so the simulator can schedule their
        finish events).
        """
        entry = self._running.pop(job_id, None)
        if entry is None:
            raise KeyError(f"job {job_id} is not running in data center {self.region_key!r}")
        self.free_servers += entry.servers
        self.busy_server_seconds += entry.servers * (entry.finish_time - entry.start_time)
        self.completed_jobs += 1

        started: list[RunningJob] = []
        while self._queue and self.free_servers >= self._queue[0].servers_required:
            next_job = self._queue.popleft()
            started.append(self.start(next_job, now))
        return started

    def utilization(self, makespan_s: float) -> float:
        """Average server utilization over ``makespan_s`` seconds."""
        if makespan_s <= 0.0:
            return 0.0
        return self.busy_server_seconds / (self.servers * makespan_s)

    def __repr__(self) -> str:
        return (
            f"Datacenter({self.region_key!r}, servers={self.servers}, "
            f"running={self.running_count}, queued={self.queued_count})"
        )
