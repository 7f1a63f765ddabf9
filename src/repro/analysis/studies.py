"""Sensitivity, robustness and overhead studies (paper Fig. 11–13, Tables 2–3).

Continues :mod:`repro.analysis.experiments` with the remaining evaluation
artifacts: utilization and region-availability sensitivity, decision-making
overhead, the service-time/violation table, the communication-overhead table,
the embodied/water-intensity variation and request-rate robustness studies,
and an ablation of WaterWise's design components (history learner, slack
manager, soft constraints).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.analysis.experiment_result import ExperimentResult
from repro.analysis.savings import savings_table
from repro.analysis.sweep import (
    ExperimentScale,
    default_policy_set,
    run_policies,
    simulate,
    waterwise_factory,
)
from repro.cluster.footprint import FootprintCalculator
from repro.cluster.streaming import StreamingSimulator
from repro.core.config import WaterWiseConfig
from repro.core.waterwise import WaterWiseScheduler
from repro.regions.catalog import DEFAULT_REGION_KEYS, region_subset
from repro.regions.latency import TransferLatencyModel
from repro.schedulers import BaselineScheduler
from repro.sustainability.embodied import DEFAULT_SERVER, ServerSpec
from repro.traces.stream import TraceView
from repro.traces.workloads import get_workload

__all__ = [
    "fig11_utilization",
    "fig12_region_availability",
    "fig13_overhead",
    "table2_service_time",
    "table3_communication_overhead",
    "sensitivity_embodied_and_water_variation",
    "sensitivity_request_rate",
    "ablation_components",
]


# ---------------------------------------------------------------------------
# Fig. 11: utilization sensitivity
# ---------------------------------------------------------------------------

def fig11_utilization(
    scale: ExperimentScale | None = None,
    utilizations: Sequence[float] = (0.05, 0.15, 0.25),
    delay_tolerance: float = 0.5,
) -> ExperimentResult:
    """Fig. 11: savings across average cluster utilization levels."""
    scale = scale or ExperimentScale()
    trace = scale.borg_trace()
    dataset = scale.dataset()
    rows = []
    for utilization in utilizations:
        servers = scale.servers_for(trace, dataset.region_keys, utilization=utilization)
        results = run_policies(
            trace,
            dataset,
            default_policy_set(),
            servers_per_region=servers,
            delay_tolerance=delay_tolerance,
            scheduling_interval_s=scale.scheduling_interval_s,
        )
        for entry in savings_table(results):
            if entry.policy == "baseline":
                continue
            rows.append(
                [
                    f"{utilization * 100:g}%",
                    servers,
                    entry.policy,
                    entry.carbon_savings_pct,
                    entry.water_savings_pct,
                ]
            )
    return ExperimentResult(
        experiment="figure-11",
        description="Savings across average data-center utilization levels",
        headers=["utilization", "servers_per_region", "policy", "carbon_savings_pct", "water_savings_pct"],
        rows=rows,
        metadata={"delay_tolerance": delay_tolerance, "jobs": len(trace)},
    )


# ---------------------------------------------------------------------------
# Fig. 12: region-availability sensitivity
# ---------------------------------------------------------------------------

_DEFAULT_REGION_SUBSETS: tuple[tuple[str, ...], ...] = (
    ("zurich", "madrid", "oregon", "milan"),
    ("zurich", "milan", "mumbai"),
    ("zurich", "oregon"),
)


def fig12_region_availability(
    scale: ExperimentScale | None = None,
    subsets: Sequence[Sequence[str]] = _DEFAULT_REGION_SUBSETS,
    delay_tolerance: float = 0.5,
) -> ExperimentResult:
    """Fig. 12: WaterWise savings when only a subset of regions is available."""
    scale = scale or ExperimentScale()
    full_trace = scale.borg_trace()
    rows = []
    for subset in subsets:
        regions = region_subset(subset)
        keys = [region.key for region in regions]
        trace = full_trace.restricted_to_regions(keys)
        dataset = scale.dataset(regions=regions)
        servers = scale.servers_for(trace, keys)
        results = run_policies(
            trace,
            dataset,
            {"baseline": BaselineScheduler, "waterwise": WaterWiseScheduler},
            servers_per_region=servers,
            delay_tolerance=delay_tolerance,
            scheduling_interval_s=scale.scheduling_interval_s,
            regions=regions,
        )
        entry = savings_table(results)[-1]
        rows.append(["+".join(keys), entry.carbon_savings_pct, entry.water_savings_pct])
    return ExperimentResult(
        experiment="figure-12",
        description="WaterWise savings under different region availability",
        headers=["available_regions", "carbon_savings_pct", "water_savings_pct"],
        rows=rows,
        metadata={"delay_tolerance": delay_tolerance},
    )


# ---------------------------------------------------------------------------
# Fig. 13: decision-making overhead
# ---------------------------------------------------------------------------

def fig13_overhead(
    scale: ExperimentScale | None = None,
    delay_tolerance: float = 0.5,
) -> ExperimentResult:
    """Fig. 13: WaterWise decision-making overhead on both traces."""
    scale = scale or ExperimentScale()
    dataset = scale.dataset()
    rows = []
    metadata: dict[str, object] = {"delay_tolerance": delay_tolerance}
    for trace_name, trace in (("google-borg-like", scale.borg_trace()),
                              ("alibaba-like", scale.alibaba_trace())):
        servers = scale.servers_for(trace, dataset.region_keys)
        result = simulate(
            trace,
            WaterWiseScheduler(),
            dataset,
            servers_per_region=servers,
            delay_tolerance=delay_tolerance,
            scheduling_interval_s=scale.scheduling_interval_s,
        )
        decision_times = np.asarray(result.decision_times_s)
        mean_exec = float(np.mean([o.execution_time for o in result.outcomes]))
        overhead_pct = 100.0 * decision_times / mean_exec if mean_exec else decision_times
        rows.append(
            [
                trace_name,
                len(trace),
                float(np.mean(decision_times) * 1000.0),
                float(np.max(decision_times) * 1000.0),
                float(np.mean(overhead_pct)),
                float(np.max(overhead_pct)),
            ]
        )
        metadata[f"{trace_name}_rounds"] = len(decision_times)
    return ExperimentResult(
        experiment="figure-13",
        description="WaterWise decision-making overhead (per scheduling round)",
        headers=[
            "trace",
            "jobs",
            "mean_decision_ms",
            "max_decision_ms",
            "mean_overhead_pct_of_exec",
            "max_overhead_pct_of_exec",
        ],
        rows=rows,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# Table 2: service time and violations
# ---------------------------------------------------------------------------

def table2_service_time(
    scale: ExperimentScale | None = None,
    tolerances: Sequence[float] = (0.25, 0.50, 0.75, 1.00),
) -> ExperimentResult:
    """Table 2: normalized service time and delay-tolerance violations."""
    scale = scale or ExperimentScale()
    trace = scale.borg_trace()
    dataset = scale.dataset()
    servers = scale.servers_for(trace, dataset.region_keys)
    rows = []
    for tolerance in tolerances:
        results = run_policies(
            trace,
            dataset,
            default_policy_set(),
            servers_per_region=servers,
            delay_tolerance=float(tolerance),
            scheduling_interval_s=scale.scheduling_interval_s,
        )
        for name, result in results.items():
            rows.append(
                [
                    f"{tolerance * 100:g}%",
                    name,
                    result.mean_service_ratio,
                    100.0 * result.violation_fraction,
                ]
            )
    return ExperimentResult(
        experiment="table-2",
        description="Average service time (normalized) and % delay-tolerance violations",
        headers=["delay_tolerance", "policy", "service_time_ratio", "violation_pct"],
        rows=rows,
        metadata={"jobs": len(trace), "servers_per_region": servers},
    )


# ---------------------------------------------------------------------------
# Table 3: communication overhead
# ---------------------------------------------------------------------------

def table3_communication_overhead(
    home_region: str = "oregon",
    workload_name: str = "canneal",
    horizon_hours: int = 168,
    seed: int = 7,
) -> ExperimentResult:
    """Table 3: carbon/water overhead of moving a job away from its home region.

    A representative job (one of the Table 1 workloads) is charged the
    transfer energy of shipping its package from ``home_region`` to each
    remote region; the overhead is expressed as a percentage of the job's
    execution carbon/water in the destination region, mirroring the paper's
    presentation (execution results needed back home).
    """
    scale = ExperimentScale(seed=seed)
    dataset = scale.dataset(horizon_hours=horizon_hours)
    regions = list(dataset.regions)
    latency = TransferLatencyModel(regions)
    calculator = FootprintCalculator(dataset)
    workload = get_workload(workload_name)
    execution_time = workload.mean_execution_time_s
    energy = workload.energy_kwh(execution_time, DEFAULT_SERVER)

    from repro.traces.job import Job

    job = Job(
        job_id=0,
        workload=workload.name,
        arrival_time=0.0,
        execution_time=execution_time,
        energy_kwh=energy,
        home_region=home_region,
        package_gb=workload.package_gb,
    )
    time_s = 0.0
    home_series = dataset.series_for(home_region)
    rows = []
    for region in regions:
        if region.key == home_region:
            continue
        dest_series = dataset.series_for(region.key)
        exec_carbon = calculator.carbon_matrix([job], [region.key], time_s)[0, 0]
        exec_water = calculator.water_matrix([job], [region.key], time_s)[0, 0]
        transfer_energy = latency.transfer_energy_kwh(home_region, region.key, job.package_gb)
        # The package leaves the home grid and lands in the destination grid;
        # each endpoint is charged half of the transfer energy.
        carbon_overhead = 0.5 * transfer_energy * (
            home_series.carbon_intensity_at(time_s) + dest_series.carbon_intensity_at(time_s)
        )
        water_overhead = 0.5 * transfer_energy * (
            home_series.water_intensity_at(time_s) + dest_series.water_intensity_at(time_s)
        )
        rows.append(
            [
                region.key,
                latency.transfer_time(home_region, region.key, job.package_gb),
                100.0 * carbon_overhead / exec_carbon,
                100.0 * water_overhead / exec_water,
            ]
        )
    return ExperimentResult(
        experiment="table-3",
        description=f"Communication overhead of remote execution (home region: {home_region})",
        headers=["destination", "transfer_time_s", "carbon_overhead_pct", "water_overhead_pct"],
        rows=rows,
        metadata={"workload": workload.name, "package_gb": workload.package_gb},
    )


# ---------------------------------------------------------------------------
# Sensitivity studies described in the evaluation text
# ---------------------------------------------------------------------------

def sensitivity_embodied_and_water_variation(
    scale: ExperimentScale | None = None,
    variation: float = 0.10,
    delay_tolerance: float = 0.5,
) -> ExperimentResult:
    """±10% variation of embodied carbon and of water intensity (Sec. 6 text)."""
    scale = scale or ExperimentScale()
    trace = scale.borg_trace()
    rows = []
    scenarios = [
        ("reference", None, 1.0),
        (f"embodied_carbon_+{variation:.0%}", 1.0 + variation, 1.0),
        (f"embodied_carbon_-{variation:.0%}", 1.0 - variation, 1.0),
        (f"water_intensity_+{variation:.0%}", None, 1.0 + variation),
        (f"water_intensity_-{variation:.0%}", None, 1.0 - variation),
    ]
    for label, embodied_scale, water_scale in scenarios:
        dataset = scale.dataset()
        if water_scale != 1.0:
            dataset = dataset.perturbed(water_scale=water_scale)
        server = DEFAULT_SERVER
        if embodied_scale is not None and embodied_scale != 1.0:
            server = ServerSpec(
                embodied_carbon_kg=DEFAULT_SERVER.embodied_carbon_kg * embodied_scale
            )
        servers = scale.servers_for(trace, dataset.region_keys)

        def run(scheduler):
            return StreamingSimulator(
                TraceView(trace),
                scheduler,
                dataset=dataset,
                servers_per_region=servers,
                scheduling_interval_s=scale.scheduling_interval_s,
                delay_tolerance=delay_tolerance,
                server=server,
                collect="full",
            ).run()

        baseline = run(BaselineScheduler())
        waterwise = run(WaterWiseScheduler())
        rows.append(
            [
                label,
                waterwise.carbon_savings_vs(baseline),
                waterwise.water_savings_vs(baseline),
            ]
        )
    return ExperimentResult(
        experiment="sensitivity-embodied-water",
        description="WaterWise savings under ±10% embodied-carbon and water-intensity variation",
        headers=["scenario", "carbon_savings_pct", "water_savings_pct"],
        rows=rows,
        metadata={"delay_tolerance": delay_tolerance, "variation": variation},
    )


def sensitivity_request_rate(
    scale: ExperimentScale | None = None,
    rate_multipliers: Sequence[float] = (1.0, 2.0),
    delay_tolerance: float = 0.5,
) -> ExperimentResult:
    """Doubling the request rate (Sec. 6 text: "even if the request rates double")."""
    scale = scale or ExperimentScale()
    dataset = scale.dataset()
    rows = []
    for multiplier in rate_multipliers:
        trace = scale.borg_trace(rate_multiplier=multiplier)
        servers = scale.servers_for(trace, dataset.region_keys)
        results = run_policies(
            trace,
            dataset,
            {"baseline": BaselineScheduler, "waterwise": WaterWiseScheduler},
            servers_per_region=servers,
            delay_tolerance=delay_tolerance,
            scheduling_interval_s=scale.scheduling_interval_s,
        )
        entry = savings_table(results)[-1]
        rows.append(
            [f"{multiplier:g}x", len(trace), entry.carbon_savings_pct, entry.water_savings_pct]
        )
    return ExperimentResult(
        experiment="sensitivity-request-rate",
        description="WaterWise savings as the job submission rate increases",
        headers=["request_rate", "jobs", "carbon_savings_pct", "water_savings_pct"],
        rows=rows,
        metadata={"delay_tolerance": delay_tolerance},
    )


# ---------------------------------------------------------------------------
# Ablation of WaterWise's design components (repository extension)
# ---------------------------------------------------------------------------

def ablation_components(
    scale: ExperimentScale | None = None,
    delay_tolerance: float = 0.5,
    stress_utilization: float = 0.60,
) -> ExperimentResult:
    """Ablation: switch off the history learner, slack manager or soft constraints.

    Not a paper figure — DESIGN.md calls these out as the design choices worth
    isolating; the paper's Sec. 6 discusses their roles qualitatively.  The
    slack manager and the soft constraints only engage when capacity is tight,
    so this study deliberately runs at a much higher utilization
    (``stress_utilization``) than the main evaluation's 15%.
    """
    scale = scale or ExperimentScale()
    trace = scale.borg_trace()
    dataset = scale.dataset()
    servers = scale.servers_for(trace, dataset.region_keys, utilization=stress_utilization)
    variants = {
        "baseline": BaselineScheduler,
        "waterwise-full": waterwise_factory(WaterWiseConfig()),
        "waterwise-no-history": waterwise_factory(WaterWiseConfig(use_history=False)),
        "waterwise-no-slack": waterwise_factory(WaterWiseConfig(use_slack_manager=False)),
        "waterwise-no-soft": waterwise_factory(WaterWiseConfig(use_soft_constraints=False)),
    }
    results = run_policies(
        trace,
        dataset,
        variants,
        servers_per_region=servers,
        delay_tolerance=delay_tolerance,
        scheduling_interval_s=scale.scheduling_interval_s,
    )
    rows = []
    for entry in savings_table(results):
        if entry.policy == "baseline":
            continue
        rows.append(
            [
                entry.policy,
                entry.carbon_savings_pct,
                entry.water_savings_pct,
                entry.mean_service_ratio,
                entry.violation_pct,
            ]
        )
    return ExperimentResult(
        experiment="ablation-components",
        description="WaterWise component ablation (history / slack manager / soft constraints)",
        headers=["variant", "carbon_savings_pct", "water_savings_pct", "service_ratio", "violation_pct"],
        rows=rows,
        metadata={
            "delay_tolerance": delay_tolerance,
            "jobs": len(trace),
            "servers_per_region": servers,
            "stress_utilization": stress_utilization,
        },
    )
