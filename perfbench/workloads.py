"""The three simulation workloads: ``paper-sweep``, ``stress-fabric``, ``outage-stream``.

Each workload builds everything from the seed in its constructor (the
set-up), then runs *repetitions*: one ``rep(part=j)`` simulates the whole
job stream ``j`` once under fresh engines and checks what came out.  Only the
simulation itself sits inside the timed region; engine construction,
result checks and the fabric's reference run stay outside it.
``gateway-tcp`` lives in :mod:`loadgen`/:mod:`serve`.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import functools
import glob
import json
import math
import multiprocessing
import os
import resource
import time

import benchstats
import spans

#: Diurnal arrival rate of every simulation workload (jobs per simulated hour).
RATE_PER_HOUR = 1400.0
DELAY_TOLERANCE = 0.25
#: The paper's operating point: servers sized for 15% average utilization.
PAPER_UTILIZATION = 0.15
#: Overload sizing shared with ``benchmarks/bench_sweep.py``/``bench_fabric.py``.
STRESS_SERVERS_PER_REGION = 60
#: Stream lengths (simulated days) and streams per run -> about 2 x 25k,
#: 16k and 3 x 134k jobs.
PAPER_DAYS = 0.75
PAPER_PARTS = 2
FABRIC_DAYS = 0.6
OUTAGE_DAYS = 4.0
OUTAGE_PARTS = 3
#: Jobs per ``advance`` on outage-stream: over a 25 s run, enough chunks
#: for a p99 of the per-chunk latency with 10 samples beyond it.
OUTAGE_CHUNK_JOBS = 2048
FABRIC_WORKERS = 2
FABRIC_CHUNKS_PER_SLAB = 2


@dataclasses.dataclass
class Rep:
    """One repetition: its timed wall, what it simulated, what went wrong."""

    wall_s: float
    jobs: int
    policies: int
    attempted: int
    failed: int
    problems: list[str]
    #: ``label -> StreamResult`` of the repetition (kernel/solver counters).
    results: dict
    #: Latency samples in seconds: the focal policy's per-round decision
    #: times (see focal_decision_times), or per-chunk advances on outage-stream.
    decision_s: list[float]
    #: Which of the workload's independent streams the repetition ran.
    part: int = 0
    #: Highest peak resident memory of the repetition's worker processes.
    worker_rss_mb: float = 0.0


def count_jobs(source) -> int:
    return sum(chunk.n for chunk in source.iter_chunks(4096))


def dataset_for(days: float, seed: int):
    """Same recipe as the sweep fabric's per-point dataset."""
    from repro.sustainability.datasets import ElectricityMapsLikeProvider

    return ElectricityMapsLikeProvider(
        horizon_hours=max(int(math.ceil(days * 24)) + 48, 72), seed=seed
    )


def check_results(results: dict, jobs: int, problems: list[str]) -> int:
    """Every policy decided every job of the source; returns the jobs left undecided."""
    undecided = 0
    for label, result in results.items():
        if result.num_jobs != jobs:
            problems.append(f"{label}: {result.num_jobs} jobs finished, source has {jobs}")
            undecided += max(0, jobs - result.num_jobs)
    return undecided


def focal_decision_times(results: dict) -> list[float]:
    """Per-round decision seconds of the workload's focal policy.

    WaterWise where it runs, else the only policy.  Pooling all eight
    policies would put the median on the edge between the cheap rounds of
    the simple policies and the MILP rounds, where it jumps between runs.
    """
    result = results.get("waterwise") or next(iter(results.values()))
    return list(result.decision_times_s)


class _TracedRegion:
    """The timed region of a repetition, as a root ``wall`` span when traced."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.wall_s = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.enter("wall")
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._started
        if self.tracer is not None:
            self.tracer.exit()


class _Streams:
    """Independent job streams of one scenario on sub-seeds of the run's seed.

    Stream ``i`` of run seed ``s`` uses seed ``parts * s + i``, so runs on
    different seeds never share a stream.  Several streams per run average
    out what one seed's draw does to the amount of work.
    """

    def __init__(self, scenario: str, seed: int, parts: int, days: float) -> None:
        from repro.traces.scenarios import scenario_source

        self.parts = parts
        self.seeds = [seed * parts + part for part in range(parts)]
        self.sources = [
            scenario_source(scenario, seed=sub_seed, rate_per_hour=RATE_PER_HOUR,
                            duration_days=days)
            for sub_seed in self.seeds
        ]
        self.datasets = [dataset_for(days, sub_seed) for sub_seed in self.seeds]
        self.part_jobs = [count_jobs(source) for source in self.sources]
        self.jobs = sum(self.part_jobs)


class PaperSweep(_Streams):
    """All eight policies fused in one pass at the paper's operating point."""

    name = "paper-sweep"

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.cluster.capacity import servers_for_target_utilization
        from repro.schedulers import available_schedulers

        super().__init__("diurnal", seed, PAPER_PARTS, PAPER_DAYS)
        self.servers = [
            servers_for_target_utilization(
                source, dataset.region_keys, target_utilization=PAPER_UTILIZATION
            )
            for source, dataset in zip(self.sources, self.datasets)
        ]
        self.policies = list(available_schedulers())

    def prepare(self) -> None:
        """Nothing to compute outside the timed region."""

    def build(self, part: int = 0):
        from repro.cluster.multi import MultiPolicyRunner
        from repro.schedulers import make_scheduler

        return MultiPolicyRunner(
            self.sources[part],
            [(name, make_scheduler(name)) for name in self.policies],
            dataset=self.datasets[part],
            collect="aggregate",
            servers_per_region=self.servers[part],
            delay_tolerance=DELAY_TOLERANCE,
        )

    def rep(self, tracer=None, part: int = 0) -> Rep:
        runner = self.build(part)
        with _TracedRegion(tracer) as region:
            results = runner.run()
        problems: list[str] = []
        jobs = self.part_jobs[part]
        failed = check_results(results, jobs, problems)
        carbon, water, _violation = waterwise_quality(results)
        # The paper's claim at its operating point: WaterWise cuts carbon
        # *and* water against the carbon- and water-unaware baseline.
        if not (carbon > 0.0 and water > 0.0):
            problems.append(
                f"stream {part}: waterwise saves {carbon:.3f}% carbon and "
                f"{water:.3f}% water vs baseline"
            )
        return Rep(region.wall_s, jobs, len(self.policies), jobs * len(self.policies),
                   failed, problems, results, focal_decision_times(results), part)


class StressFabric:
    """The same registry, overloaded, sharded over two worker processes."""

    name = "stress-fabric"

    def __init__(self, seed: int, workdir: str) -> None:
        # Loaded here so that the set-up time counts the sweep's imports.
        from repro.analysis.parallel import SweepPoint
        from repro.analysis.parallel import run_sweep  # noqa: F401
        from repro.schedulers import available_schedulers
        from repro.traces.scenarios import scenario_source

        self.policies = list(available_schedulers())
        self.points = [
            SweepPoint(
                scheduler=name,
                trace_kind="diurnal",
                rate_per_hour=RATE_PER_HOUR,
                duration_days=FABRIC_DAYS,
                delay_tolerance=DELAY_TOLERANCE,
                servers_per_region=STRESS_SERVERS_PER_REGION,
                seed=seed,
            )
            for name in self.policies
        ]
        self.jobs = count_jobs(scenario_source(
            "diurnal", seed=seed, rate_per_hour=RATE_PER_HOUR, duration_days=FABRIC_DAYS
        ))
        self.parts = 1
        self.workdir = workdir
        self.expected_digests: list[int] | None = None

    def prepare(self) -> None:
        """The single-box fused reference the merged digests must equal.

        It runs in a child process, so its memory stays out of this
        process's peak, which ``peak_rss_mb`` reports as the coordinator's.
        """
        context = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(1, mp_context=context) as pool:
            self.expected_digests = pool.submit(fused_digests, self.points).result()

    def build(self, part: int = 0):
        return None

    def rep(self, tracer=None, part: int = 0) -> Rep:
        from repro.analysis.parallel import run_sweep

        checkpoints = os.path.join(self.workdir, "checkpoints")
        os.makedirs(checkpoints, exist_ok=True)
        rss_dir = os.path.join(self.workdir, "worker-rss")
        os.makedirs(rss_dir, exist_ok=True)
        problems: list[str] = []
        attempted = self.jobs * len(self.policies)
        with capture_merged_results() as merged, worker_peak_rss(rss_dir) as worker_rss, \
                _TracedRegion(tracer) as region:
            try:
                outcomes = run_sweep(
                    self.points,
                    workers=FABRIC_WORKERS,
                    transport="process",
                    chunks_per_slab=FABRIC_CHUNKS_PER_SLAB,
                    checkpoint_dir=checkpoints,
                )
            except RuntimeError as error:  # a poisoned or incomplete sweep
                outcomes = None
                problems.append(f"fabric sweep failed: {error}")
        if outcomes is None:
            return Rep(region.wall_s, self.jobs, len(self.policies), attempted, attempted,
                       problems, {}, [], worker_rss_mb=max(worker_rss, default=0.0))
        results = {outcome.point.scheduler: result
                   for outcome, result in zip(outcomes, merged)}
        failed = check_results(results, self.jobs, problems)
        digests = [outcome.digest for outcome in outcomes]
        if digests != self.expected_digests:
            problems.append(
                f"merged digests {digests} differ from the fused run {self.expected_digests}"
            )
        if len(worker_rss) != FABRIC_WORKERS:
            problems.append(f"{len(worker_rss)} of {FABRIC_WORKERS} workers reported their memory")
        return Rep(region.wall_s, self.jobs, len(self.policies), attempted, failed,
                   problems, results, focal_decision_times(results),
                   worker_rss_mb=max(worker_rss, default=0.0))


class OutageStream(_Streams):
    """Baseline alone over overloaded streams with region outages.

    The eviction and replay work hangs on how many outages the seeded chaos
    timeline draws, so a run covers several independent streams.  Its
    latency samples are whole ``advance(chunk)`` calls: baseline's own
    decision takes about 2 us a round, a time that follows the machine's
    state (it moved by half between runs) more than the program.
    """

    name = "outage-stream"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__("region-outage", seed, OUTAGE_PARTS, OUTAGE_DAYS)
        self.policies = ["baseline"]

    def prepare(self) -> None:
        """Nothing to compute outside the timed region."""

    def build(self, part: int = 0):
        from repro.cluster.streaming import StreamingSimulator
        from repro.schedulers import make_scheduler

        return StreamingSimulator(
            self.sources[part],
            make_scheduler("baseline"),
            dataset=self.datasets[part],
            servers_per_region=STRESS_SERVERS_PER_REGION,
            delay_tolerance=DELAY_TOLERANCE,
            chunk_size=OUTAGE_CHUNK_JOBS,
            collect="aggregate",
            chaos="region-outage",
            chaos_seed=self.seeds[part],
        )

    def rep(self, tracer=None, part: int = 0) -> Rep:
        from repro.cluster.streaming import StreamingSimulator

        engine = self.build(part)
        with call_times(StreamingSimulator, "advance") as chunk_s, \
                _TracedRegion(tracer) as region:
            result = engine.run()
        results = {"baseline": result}
        problems: list[str] = []
        jobs = self.part_jobs[part]
        failed = check_results(results, jobs, problems)
        if result.total_evictions <= 0:
            problems.append(
                f"stream {part}: no evictions, the region-outage timeline did not act"
            )
        return Rep(region.wall_s, jobs, 1, jobs, failed, problems, results, chunk_s, part)


SIMULATIONS = {cls.name: cls for cls in (PaperSweep, StressFabric, OutageStream)}


def fused_digests(points) -> list[int]:
    """Digests of a single-box fused run of ``points``."""
    from repro.analysis.parallel import run_sweep

    return [outcome.digest for outcome in run_sweep(points, executor="serial", fused=True)]


@contextlib.contextmanager
def _patched(owner, attr: str, make):
    """``owner.attr`` replaced by ``make(original)`` inside the block."""
    installation = spans.Installation(None)
    installation.patch(owner, attr, make)
    try:
        yield
    finally:
        installation.remove()


@contextlib.contextmanager
def call_times(owner, attr: str):
    """Collect the wall seconds of every call of ``owner.attr`` made in the block."""
    times: list[float] = []

    def make(original):
        @functools.wraps(original)
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - started)

        return timed

    with _patched(owner, attr, make):
        yield times


@contextlib.contextmanager
def capture_merged_results():
    """Collect the fabric's assembled ``StreamResult``s, in point order.

    ``run_sweep`` hands back only ``SweepOutcome`` summaries; the assembled
    results carry the kernel and solver counters and per-round decision
    times.  The hook runs once per point after the sweep has finished.
    """
    from repro.analysis.shard import MergeableAggregates

    captured: list = []

    def make(original):
        @functools.wraps(original)
        def result(self, index):
            assembled = original(self, index)
            captured.append(assembled)
            return assembled

        return result

    with _patched(MergeableAggregates, "result", make):
        yield captured


def process_peak_rss_mb() -> float:
    """Peak resident memory of the calling process (``VmHWM``), in MB."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def worker_peak_rss(directory: str):
    """Peak memory of each fabric worker that ran in the block, in MB.

    Workers are forked inside the block, so they inherit the wrapped worker
    loop, which writes the worker's peak to ``directory`` as it returns.
    The yielded list is filled when the block ends.
    """
    import repro.analysis.fabric as fabric

    peaks: list[float] = []

    def make(original):
        @functools.wraps(original)
        def loop(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            finally:
                path = os.path.join(directory, f"rss-{os.getpid()}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(process_peak_rss_mb(), handle)

        return loop

    try:
        with _patched(fabric, "worker_loop", make):
            yield peaks
    finally:
        for path in sorted(glob.glob(os.path.join(directory, "rss-*.json"))):
            with open(path, encoding="utf-8") as handle:
                peaks.append(json.load(handle))
            os.remove(path)


def waterwise_quality(results: dict) -> tuple[float, float, float]:
    """WaterWise's carbon and water saving vs baseline (%) and its violation share (%)."""
    waterwise, baseline = results["waterwise"], results["baseline"]
    return (
        waterwise.carbon_savings_vs(baseline),
        waterwise.water_savings_vs(baseline),
        100.0 * waterwise.violation_fraction,
    )


def read_worker_spans(span_dir: str) -> list[dict]:
    snapshots = []
    for path in sorted(glob.glob(os.path.join(span_dir, "spans-*.json"))):
        with open(path, encoding="utf-8") as handle:
            snapshots.append(json.load(handle))
    return snapshots


def decision_latency_ms(samples_s: list[float]) -> tuple[float, float, float, int]:
    """``(p50, tail value, tail percentile, samples)`` of per-round decision times."""
    ordered = sorted(samples_s)
    p, tail, _beyond = benchstats.tail_percentile(ordered)
    return 1000.0 * benchstats.nearest_rank(ordered, 50.0), 1000.0 * tail, p, len(ordered)
