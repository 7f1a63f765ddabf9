"""Shared configuration of the trace-driven discrete-event simulation.

The simulation replays a job workload against a set of regional data centers
under a scheduling policy:

1. Jobs arrive according to the workload.  At every scheduling round (a fixed
   cadence, the paper's "jobs invoked together or nearby in time") the policy
   receives the batch of jobs that arrived since the previous round plus any
   jobs it previously deferred, and must assign or defer each of them.
2. An assigned job pays the inter-region transfer latency if placed away from
   home, then occupies servers in the destination data center for its
   realized execution time, queuing FIFO if the data center is full.
3. When a job finishes, its realized carbon and water footprints are
   integrated against the destination region's hourly intensity series.

:class:`_SimulatorBase` holds what every engine shares: parameter validation,
the auto-built dataset, the chaos timeline and its dataset views, the round
cadence and the result telemetry.  The engine itself is
:class:`~repro.cluster.streaming.StreamingSimulator`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro._validation import ensure_non_negative, ensure_positive
from repro.cluster.footprint import FootprintCalculator
from repro.cluster.timeline import ChaosSpec, ClusterTimeline, get_chaos
from repro.cluster.interface import Scheduler
from repro.regions.latency import TransferLatencyModel
from repro.regions.region import Region
from repro.sustainability.datasets import ElectricityMapsLikeProvider, SustainabilityDataset
from repro.sustainability.embodied import DEFAULT_SERVER, ServerSpec
from repro.traces.trace import Trace


class _SimulatorBase:
    """Shared configuration/validation of the simulation engine.

    Parameters
    ----------
    trace:
        The job workload to replay (the engine passes its trace source).
    scheduler:
        The scheduling policy under test.
    dataset:
        Sustainability dataset; built automatically (Electricity-Maps-like,
        covering the trace horizon plus a day of slack) when omitted.
    regions:
        Candidate regions; defaults to the dataset's regions.
    servers_per_region:
        Either one integer applied to every region or a mapping from region
        key to server count.
    scheduling_interval_s:
        Cadence of scheduling rounds (the batch window).
    delay_tolerance:
        Allowed relative service-time increase (0.25 = 25%).
    latency:
        Transfer latency model; a default model over ``regions`` is built
        when omitted.
    server:
        Server hardware model (energy / embodied footprints).
    include_embodied:
        Whether embodied footprints are charged to jobs.
    seed_dataset_horizon_slack_h:
        Extra dataset hours beyond the trace horizon (jobs finishing late).
    max_rounds:
        Safety limit on scheduling rounds (guards against policies that defer
        forever).
    kernel:
        Event-kernel flavour.  ``"auto"`` (resolve
        ``"compiled"`` when numba is importable, ``"vector"`` otherwise);
        ``"vector"`` (default) enables the batched clean-window path of
        :mod:`repro.cluster.events` plus binding-point segmentation;
        ``"compiled"`` additionally routes contended residues through the
        flat-array kernel of :mod:`repro.cluster._kernel_compiled`
        (numba-jitted when available, interpreted otherwise);
        ``"scalar"`` forces the classic event-at-a-time reference loop
        everywhere.  All flavours are decision-identical (the differential
        harness compares their digests three ways); the scalar kernel
        exists as the testing reference and benchmark baseline.  The
        resolved choice is surfaced as ``result.kernel_stats`` telemetry.
    chaos:
        Optional chaos timeline: a :class:`~repro.cluster.timeline.ChaosSpec`,
        a registry name (``"region-outage"``, …) or a ``field=value,...``
        spec string.  Builds a deterministic
        :class:`~repro.cluster.timeline.ClusterTimeline` over the workload
        horizon: capacity events (outages, flaps, autoscale) drive per-region
        elasticity inside the event loop, and signal shocks perturb the
        sustainability datasets — carbon/water spikes apply to decisions
        *and* accounting, forecast error to decisions only
        (``self.dataset`` is the decision view; footprints integrate against
        the truth).
    chaos_seed:
        Seed of the chaos timeline (independent of the trace seed).
    """

    def __init__(
        self,
        trace: Trace,
        scheduler: Scheduler,
        dataset: SustainabilityDataset | None = None,
        regions: Sequence[Region] | None = None,
        servers_per_region: int | Mapping[str, int] = 20,
        scheduling_interval_s: float = 300.0,
        delay_tolerance: float = 0.25,
        latency: TransferLatencyModel | None = None,
        server: ServerSpec = DEFAULT_SERVER,
        include_embodied: bool = True,
        seed_dataset_horizon_slack_h: int = 24,
        max_rounds: int = 1_000_000,
        kernel: str = "vector",
        chaos: "str | ChaosSpec | None" = None,
        chaos_seed: int = 0,
    ) -> None:
        self.trace = trace
        self.scheduler = scheduler
        # The *declared* horizon where the workload carries one (generator
        # duration; streams and their materialized traces agree on it) and
        # the last arrival otherwise.  Sizes the auto-built dataset and the
        # chaos timeline.
        horizon_s = getattr(trace, "declared_horizon_s", None)
        if horizon_s is None:
            horizon_s = getattr(trace, "horizon_s", 0.0)
        if dataset is None:
            horizon_hours = int(math.ceil(horizon_s / 3600.0)) + int(
                seed_dataset_horizon_slack_h
            )
            dataset = ElectricityMapsLikeProvider(horizon_hours=max(horizon_hours, 24))
        #: The un-perturbed dataset the caller supplied (or the auto-built
        #: one).  Multi-policy runners share *this* across engines so chaos
        #: perturbations are never applied twice.
        self.input_dataset = dataset
        self.dataset = dataset
        self.regions = tuple(regions) if regions is not None else tuple(dataset.regions)
        if not self.regions:
            raise ValueError("simulator needs at least one region")
        self.region_keys = [region.key for region in self.regions]
        self.scheduling_interval_s = ensure_positive(scheduling_interval_s, "scheduling_interval_s")
        self.delay_tolerance = ensure_non_negative(delay_tolerance, "delay_tolerance")
        self.latency = latency if latency is not None else TransferLatencyModel(self.regions)
        self.max_rounds = int(max_rounds)
        if kernel not in ("auto", "vector", "scalar", "compiled"):
            raise ValueError(
                "kernel must be 'auto', 'vector', 'scalar' or 'compiled', "
                f"got {kernel!r}"
            )
        if kernel == "auto":
            from . import _kernel_compiled

            kernel = "compiled" if _kernel_compiled.available() else "vector"
        self.kernel = kernel

        if isinstance(servers_per_region, Mapping):
            missing = set(self.region_keys) - set(servers_per_region)
            if missing:
                raise ValueError(f"servers_per_region missing regions: {sorted(missing)}")
            self._servers = {key: int(servers_per_region[key]) for key in self.region_keys}
        else:
            self._servers = {key: int(servers_per_region) for key in self.region_keys}
        for key, count in self._servers.items():
            if count < 1:
                raise ValueError(f"region {key!r} must have at least one server")

        # Chaos: build the deterministic timeline and split the dataset into
        # a decision view (spikes + forecast error) and an accounting view
        # (spikes only).  Without chaos both views stay the caller's object.
        self.chaos: ChaosSpec | None = None
        self.chaos_seed = int(chaos_seed)
        self._timeline: ClusterTimeline | None = None
        accounting_dataset = dataset
        if chaos is not None:
            spec = get_chaos(chaos)
            self.chaos = spec
            baseline = np.array(
                [self._servers[key] for key in self.region_keys], dtype=np.int64
            )
            self._timeline = ClusterTimeline(
                spec, self.region_keys, baseline, horizon_s, seed=self.chaos_seed
            )
            n_hours = getattr(dataset, "horizon_hours", None)
            if n_hours is None:
                n_hours = int(math.ceil(horizon_s / 3600.0)) + 1
            spike_carbon, spike_water = self._timeline.signal_factor_arrays(int(n_hours))
            if spike_carbon or spike_water:
                accounting_dataset = dataset.with_hourly_factors(
                    spike_carbon, spike_water
                )
            decision_dataset = accounting_dataset
            noise_carbon, noise_water = self._timeline.forecast_factor_arrays(int(n_hours))
            if noise_carbon or noise_water:
                decision_dataset = accounting_dataset.with_hourly_factors(
                    noise_carbon, noise_water
                )
            self.dataset = decision_dataset
        self.footprints = FootprintCalculator(
            accounting_dataset, server=server, include_embodied=include_embodied
        )

    def _next_round_time(self, round_time: float, next_arrival: float | None) -> float:
        """Time of the next scheduling round.

        Normally one interval later; when nothing is pending
        (``next_arrival`` is the first future arrival) the clock skips ahead
        to the first interval-aligned tick at or after that arrival instead
        of idling through empty rounds.
        """
        interval = self.scheduling_interval_s
        next_round = round_time + interval
        if next_arrival is not None and next_arrival > next_round:
            next_round = math.ceil(next_arrival / interval) * interval
            if next_round < next_arrival:
                next_round += interval
        return next_round

    def _attach_solver_stats(self, result) -> None:
        """Expose the scheduler's solver-session counters on the result.

        MILP-backed policies (the WaterWise family) own a
        :class:`~repro.milp.session.SolverSession` through their decision
        controller; its aggregate statistics (presolve ratios, warm-start
        savings, structured-path hits) are part of a run's performance story,
        so the engine publishes them.  Policies without a controller leave
        ``solver_stats`` as ``None``.
        """
        controller = getattr(self.scheduler, "controller", None)
        session = getattr(controller, "session", None)
        if session is not None:
            result.solver_stats = session.stats.as_dict()

    def _attach_chaos_stats(self, result, total_evictions: int) -> None:
        """Expose the chaos timeline's summary on the result (``None`` without chaos)."""
        if self._timeline is None:
            return
        stats = self._timeline.stats()
        stats["evictions"] = int(total_evictions)
        result.chaos_stats = stats

    def _attach_kernel_stats(self, result, stats) -> None:
        """Expose the event-kernel telemetry on the result.

        ``kernel_stats`` records which path every window event took (clean
        vectorized segment, Python replay, flat/compiled replay), how many
        binding-point splits fired and the lazy jit compile time — so
        vectorization coverage is observable instead of inferred from wall
        time.  See :class:`repro.cluster.events.KernelStats`.
        """
        payload = stats.as_dict()
        payload["kernel"] = self.kernel
        result.kernel_stats = payload
