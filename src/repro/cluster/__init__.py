"""Geo-distributed cluster simulator.

The paper evaluates WaterWise by replaying production traces against a
175-node cluster spread over five AWS regions; its artifact drives the same
logic through trace simulation.  This subpackage is that simulation substrate:

* :mod:`repro.cluster.interface` — the contract between the simulator and
  any scheduling policy (:class:`Scheduler`, :class:`SchedulingContext`,
  :class:`SchedulerDecision`),
* :mod:`repro.cluster.footprint` — vectorized carbon/water footprint
  matrices for a batch of jobs across regions (what the policies optimize),
* :mod:`repro.cluster.streaming` — the simulation engine,
  :class:`StreamingSimulator`: chunked, checkpointable, returning per-job
  columns (``collect="full"``) or bounded-memory aggregates
  (``collect="aggregate"``),
* :mod:`repro.cluster.simulator` — the engine's shared configuration
  (validation, chaos timeline, round cadence),
* :mod:`repro.cluster.batch` — columnar job/result containers
  (:class:`JobArrays`, :class:`BatchSchedulingContext`, :class:`BatchResult`),
* :mod:`repro.cluster.events` — the array-batched event kernel the engine
  drives its discrete-event core through,
* :mod:`repro.cluster.multi` — the fused multi-policy runner (one workload
  pass, K policies in lockstep),
* :mod:`repro.cluster.timeline` — the chaos & elasticity engine: seeded,
  chunk-invariant streams of capacity events (outages, autoscaling, flaps)
  and signal shocks (carbon/water spikes, forecast error),
* :mod:`repro.cluster.metrics` — per-job outcomes and aggregate results,
* :mod:`repro.cluster.capacity` — helpers to size clusters for a target
  utilization (the paper's 5% / 15% / 25% settings).
"""

from repro.cluster.batch import DEFER, BatchResult, BatchSchedulingContext, JobArrays
from repro.cluster.capacity import servers_for_target_utilization
from repro.cluster.footprint import FootprintCalculator, RunningFootprintTotals
from repro.cluster.interface import Scheduler, SchedulerDecision, SchedulingContext
from repro.cluster.events import EventQueue
from repro.cluster.metrics import JobOutcome, RunningJobStats, SimulationResult
from repro.cluster.multi import MultiPolicyRunner
from repro.cluster.streaming import (
    AdmissionDecisions,
    EngineState,
    StreamingSimulator,
    StreamResult,
)
from repro.cluster.timeline import (
    CHAOS_SPECS,
    ChaosSpec,
    ClusterTimeline,
    available_chaos,
    get_chaos,
)

__all__ = [
    "AdmissionDecisions",
    "CHAOS_SPECS",
    "DEFER",
    "BatchResult",
    "BatchSchedulingContext",
    "ChaosSpec",
    "ClusterTimeline",
    "EngineState",
    "EventQueue",
    "FootprintCalculator",
    "JobArrays",
    "JobOutcome",
    "MultiPolicyRunner",
    "RunningFootprintTotals",
    "RunningJobStats",
    "Scheduler",
    "SchedulerDecision",
    "SchedulingContext",
    "SimulationResult",
    "StreamResult",
    "StreamingSimulator",
    "available_chaos",
    "get_chaos",
    "servers_for_target_utilization",
]
