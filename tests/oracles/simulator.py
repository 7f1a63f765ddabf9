"""Reference simulator: the object-world engine, one ``Job`` at a time.

Every job is a :class:`~repro.traces.job.Job` object, every in-flight job a
small dataclass, every region a :class:`~tests.oracles.datacenter.Datacenter`
with its own FIFO queue, and footprints are integrated per job at finish
time.  ``src/`` simulates with :class:`~repro.cluster.streaming.StreamingSimulator`
instead; the equivalence cells hold the two to identical decisions.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import time as _time
from collections.abc import Mapping

from repro.cluster.interface import SchedulingContext
from repro.cluster.metrics import JobOutcome, SimulationResult
from repro.cluster.simulator import _SimulatorBase
from repro.traces.job import Job
from tests.oracles.datacenter import Datacenter

__all__ = ["Simulator"]

_EVENT_FINISH = 0
_EVENT_READY = 1


@dataclasses.dataclass
class _PendingJob:
    job: Job
    considered_time: float
    deferrals: int = 0


@dataclasses.dataclass
class _Execution:
    job: Job
    region_key: str
    considered_time: float
    assigned_time: float
    ready_time: float
    transfer_latency: float
    deferrals: int
    start_time: float | None = None


class Simulator(_SimulatorBase):
    """Scalar reference engine: replay the trace one ``Job`` object at a time.

    The readable, obviously-correct form of the paper's evaluation
    semantics.  :class:`~repro.cluster.streaming.StreamingSimulator` must
    make identical scheduling decisions and produce footprints equal within
    1e-9 relative.  Construction parameters are documented on
    :class:`~repro.cluster.simulator._SimulatorBase`; ``kernel`` is ignored.
    """

    # -- main entry point ----------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run the simulation to completion and return the aggregated result."""
        if self._timeline is not None:
            raise NotImplementedError(
                "the object-world Simulator does not support chaos timelines; "
                "the engine's kernel='scalar' tier is the chaos reference"
            )
        self.scheduler.reset()
        datacenters = {key: Datacenter(key, self._servers[key]) for key in self.region_keys}
        events: list[tuple[float, int, int, object]] = []
        sequence = itertools.count()
        pending: dict[int, _PendingJob] = {}
        executions: dict[int, _Execution] = {}
        outcomes: list[JobOutcome] = []
        decision_times: list[float] = []
        round_times: list[float] = []
        makespan = 0.0

        jobs = list(self.trace)
        trace_idx = 0

        def push_event(when: float, kind: int, payload: object) -> None:
            heapq.heappush(events, (when, kind, next(sequence), payload))

        def record_start(entry) -> None:
            execution = executions[entry.job.job_id]
            execution.start_time = entry.start_time
            push_event(entry.finish_time, _EVENT_FINISH, entry.job.job_id)

        def process_events_until(limit: float) -> None:
            nonlocal makespan
            while events and events[0][0] <= limit:
                when, kind, _seq, payload = heapq.heappop(events)
                if kind == _EVENT_READY:
                    execution = payload  # type: ignore[assignment]
                    dc = datacenters[execution.region_key]
                    entry = dc.admit(execution.job, when)
                    if entry is not None:
                        record_start(entry)
                else:  # _EVENT_FINISH
                    job_id = payload  # type: ignore[assignment]
                    execution = executions[job_id]
                    dc = datacenters[execution.region_key]
                    started = dc.finish(job_id, when)
                    for entry in started:
                        record_start(entry)
                    makespan = max(makespan, when)
                    outcomes.append(self._build_outcome(execution, finish_time=when))

        round_time = 0.0
        rounds = 0
        while trace_idx < len(jobs) or pending:
            if rounds > self.max_rounds:
                raise RuntimeError(
                    f"scheduling did not converge after {self.max_rounds} rounds "
                    f"({len(pending)} jobs still pending)"
                )
            # Advance the cluster state up to this round.
            process_events_until(round_time)

            # Pull newly arrived jobs into the pending set.
            while trace_idx < len(jobs) and jobs[trace_idx].arrival_time <= round_time:
                job = jobs[trace_idx]
                pending[job.job_id] = _PendingJob(job=job, considered_time=round_time)
                trace_idx += 1

            if pending:
                rounds += 1
                round_times.append(round_time)
                decision_seconds = self._run_round(
                    round_time, pending, datacenters, executions, push_event
                )
                decision_times.append(decision_seconds)

            # Choose the next round time.
            next_arrival = (
                jobs[trace_idx].arrival_time
                if not pending and trace_idx < len(jobs)
                else None
            )
            round_time = self._next_round_time(round_time, next_arrival)

        # Drain every remaining event (jobs still running or queued).
        process_events_until(math.inf)

        region_utilization = {
            key: dc.utilization(makespan) for key, dc in datacenters.items()
        }
        outcomes.sort(key=lambda outcome: outcome.job_id)
        result = SimulationResult(
            scheduler_name=self.scheduler.name,
            outcomes=outcomes,
            region_servers=dict(self._servers),
            region_utilization=region_utilization,
            makespan_s=makespan,
            decision_times_s=decision_times,
            round_times_s=round_times,
            delay_tolerance=self.delay_tolerance,
            trace_name=self.trace.name,
        )
        self._attach_solver_stats(result)
        return result

    # -- internals ----------------------------------------------------------------------------
    def _run_round(
        self,
        now: float,
        pending: dict[int, _PendingJob],
        datacenters: Mapping[str, Datacenter],
        executions: dict[int, _Execution],
        push_event,
    ) -> float:
        batch = [entry.job for entry in pending.values()]
        context = SchedulingContext(
            now=now,
            regions=self.regions,
            capacity={key: dc.remaining_capacity() for key, dc in datacenters.items()},
            dataset=self.dataset,
            latency=self.latency,
            footprints=self.footprints,
            delay_tolerance=self.delay_tolerance,
            scheduling_interval_s=self.scheduling_interval_s,
            job_wait_times={
                job_id: now - entry.considered_time for job_id, entry in pending.items()
            },
        )
        started = _time.perf_counter()
        decision = self.scheduler.schedule(batch, context)
        decision_seconds = _time.perf_counter() - started
        decision.validate_for(batch, self.region_keys)

        for job_id, region_key in decision.assignments.items():
            entry = pending.pop(job_id)
            transfer = self.latency.transfer_time(
                entry.job.home_region, region_key, entry.job.package_gb
            )
            execution = _Execution(
                job=entry.job,
                region_key=region_key,
                considered_time=entry.considered_time,
                assigned_time=now,
                ready_time=now + transfer,
                transfer_latency=transfer,
                deferrals=entry.deferrals,
            )
            executions[job_id] = execution
            push_event(execution.ready_time, _EVENT_READY, execution)

        for job_id in decision.deferred:
            pending[job_id].deferrals += 1
        return decision_seconds

    def _build_outcome(self, execution: _Execution, finish_time: float) -> JobOutcome:
        if execution.start_time is None:
            raise RuntimeError(f"job {execution.job.job_id} finished without a start time")
        carbon, water = self.footprints.integrate_job(
            execution.job, execution.region_key, execution.start_time
        )
        return JobOutcome(
            job_id=execution.job.job_id,
            workload=execution.job.workload,
            home_region=execution.job.home_region,
            executed_region=execution.region_key,
            arrival_time=execution.job.arrival_time,
            considered_time=execution.considered_time,
            assigned_time=execution.assigned_time,
            ready_time=execution.ready_time,
            start_time=execution.start_time,
            finish_time=finish_time,
            execution_time=execution.job.realized_execution_time,
            transfer_latency=execution.transfer_latency,
            carbon_g=carbon,
            water_l=water,
            deferrals=execution.deferrals,
            delay_tolerance=self.delay_tolerance,
        )
