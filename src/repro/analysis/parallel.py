"""Parallel parameter-grid sweeps over the simulation engine.

The evaluation studies (delay-tolerance sweeps, utilization sweeps, weight
sensitivity, trace robustness, …) are embarrassingly parallel: every grid
point is an independent simulation.  This module expands a parameter grid
into self-describing :class:`SweepPoint`\\ s, derives a *content-based*
deterministic seed for each point, and shards the points across
``concurrent.futures`` workers.

Determinism guarantees (enforced by ``tests/analysis/test_parallel.py``):

* a point's seed depends only on its *workload-shaping* parameters
  (:data:`WORKLOAD_PARAMS`) and the sweep's base seed — not on grid order,
  worker count, executor kind, or policy-side knobs, so every policy in a
  sweep is evaluated against the identical workload;
* :func:`run_sweep` returns outcomes in the order of its input points for
  every executor, so ``run_sweep(points, workers=1)`` and
  ``run_sweep(points, workers=8)`` are element-wise identical.

Worker processes rebuild traces and datasets from the point's parameters
(cheap relative to simulation), so only small parameter/summary payloads
cross process boundaries; every cell replays its workload's chunked source
through :class:`~repro.cluster.streaming.StreamingSimulator` without ever
materializing the trace.

``run_sweep(..., fused=True)`` collapses the cells that share a workload
*and* simulation conditions (everything but the policy) into one fused task
driven by :class:`~repro.cluster.multi.MultiPolicyRunner` — the workload is
generated, columnized and streamed once per group instead of once per cell.
With the process executor the parent additionally packs each distinct
workload's columns into a ``multiprocessing.shared_memory`` segment exactly
once; workers attach and stream zero-copy
:class:`~repro.traces.stream.ColumnSource` views instead of regenerating the
trace per worker.  Segments are unlinked deterministically by the parent
when the sweep finishes, and worker-side attachments are closed on eviction
from a small LRU and at worker shutdown.
"""

from __future__ import annotations

import atexit
import collections
import concurrent.futures
import contextlib
import dataclasses
import itertools
import threading
import zlib
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.traces.scenarios import available_scenarios

__all__ = ["SweepPoint", "SweepOutcome", "derive_seed", "expand_grid", "run_sweep"]

_TRACE_KINDS = ("borg", "alibaba")
_ENGINES = ("batch", "stream")
_EXECUTORS = ("serial", "thread", "process")


def _known_trace_kinds() -> tuple[str, ...]:
    """Valid ``SweepPoint.trace_kind`` values: classic generators + scenarios."""
    return _TRACE_KINDS + available_scenarios()


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One fully specified simulation in a sweep (hashable and picklable).

    ``scheduler_kwargs`` is a tuple of ``(name, value)`` pairs so the point
    stays hashable; :func:`expand_grid` converts mappings automatically.
    ``seed`` seeds both the trace generator and the sustainability dataset.
    """

    scheduler: str = "baseline"
    scheduler_kwargs: tuple[tuple[str, object], ...] = ()
    trace_kind: str = "borg"
    #: ``None`` keeps the scenario family's natural rate/length (scenario
    #: trace kinds only — the classic generators have no family defaults).
    rate_per_hour: float | None = 40.0
    duration_days: float | None = 0.25
    delay_tolerance: float = 0.25
    servers_per_region: int = 20
    scheduling_interval_s: float = 300.0
    include_embodied: bool = True
    engine: str = "batch"
    seed: int = 0

    def __post_init__(self) -> None:
        known = _known_trace_kinds()
        if self.trace_kind not in known:
            raise ValueError(f"trace_kind must be one of {known}, got {self.trace_kind!r}")
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {self.engine!r}")
        if self.trace_kind in _TRACE_KINDS and (
            self.rate_per_hour is None or self.duration_days is None
        ):
            raise ValueError(
                "rate_per_hour/duration_days of None (scenario family default) "
                f"are only valid for scenario trace kinds, not {self.trace_kind!r}"
            )

    def label(self) -> str:
        """Short human-readable identifier for reports."""
        rate = "auto" if self.rate_per_hour is None else f"{self.rate_per_hour:g}"
        return (
            f"{self.scheduler}@{self.trace_kind}"
            f"/tol={self.delay_tolerance:g}/rate={rate}"
            f"/seed={self.seed}"
        )


@dataclasses.dataclass(frozen=True)
class SweepOutcome:
    """Small, picklable result of one sweep point.

    ``digest`` is the engine result's CRC32 fingerprint
    (``BatchResult.digest`` for ``batch`` cells, ``StreamResult.digest`` for
    streaming/fused/distributed cells).  Distributed sweeps are gated on
    digest equality against the single-box fused run — compare like engines
    only, the two digests cover different payloads.
    """

    point: SweepPoint
    summary: dict[str, float | str | int]
    total_carbon_g: float
    total_water_l: float
    mean_service_ratio: float
    violation_fraction: float
    num_jobs: int
    digest: int


#: Parameters that shape the generated workload (trace + dataset).  Seeds are
#: derived from these alone: two points differing only in policy-side knobs
#: (scheduler, tolerance, engine, …) share a seed and therefore replay the
#: *same* jobs against the *same* intensities — the "identical conditions"
#: methodology every savings comparison in the paper rests on.
WORKLOAD_PARAMS = ("trace_kind", "rate_per_hour", "duration_days")


def derive_seed(base_seed: int, **params: object) -> int:
    """Deterministic, content-based seed for one grid point.

    Hashes the canonical ``repr`` of the sorted workload-shaping parameter
    items (:data:`WORKLOAD_PARAMS`; other keyword arguments are ignored)
    with CRC32 — stable across processes and Python invocations, unlike
    ``hash`` — and folds in ``base_seed``.  Two sweeps with the same base
    seed therefore simulate identical workloads regardless of grid order,
    worker count, or which policy-side parameters accompany the point.
    """
    workload = {name: params[name] for name in WORKLOAD_PARAMS if name in params}
    canonical = repr(sorted(workload.items())).encode("utf-8")
    return (zlib.crc32(canonical) ^ (int(base_seed) & 0xFFFFFFFF)) & 0x7FFFFFFF


def expand_grid(
    base_seed: int = 0,
    engine: str = "batch",
    **param_lists: Sequence[object] | object,
) -> list[SweepPoint]:
    """Expand keyword parameter lists into the cross-product of sweep points.

    Every keyword accepts either a single value or a sequence of values
    (strings count as single values); the cross-product is taken over the
    sequence-valued parameters.  ``scheduler_kwargs`` values may be mappings.

    Examples
    --------
    >>> points = expand_grid(
    ...     scheduler=["baseline", "round-robin"],
    ...     delay_tolerance=[0.0, 0.25, 0.5],
    ...     rate_per_hour=40.0,
    ... )
    >>> len(points)
    6
    """
    field_names = {field.name for field in dataclasses.fields(SweepPoint)}
    unknown = set(param_lists) - (field_names - {"seed", "engine"})
    if unknown:
        raise TypeError(f"unknown sweep parameters: {sorted(unknown)}")

    def as_choices(value: object) -> list[object]:
        if isinstance(value, (str, bytes, Mapping)):
            return [value]
        if isinstance(value, Iterable):
            return list(value)
        return [value]

    defaults = {
        field.name: field.default for field in dataclasses.fields(SweepPoint)
    }
    names = list(param_lists)
    choice_lists = [as_choices(param_lists[name]) for name in names]
    points = []
    for combo in itertools.product(*choice_lists):
        params = dict(zip(names, combo))
        kwargs = params.get("scheduler_kwargs", ())
        if isinstance(kwargs, Mapping):
            params["scheduler_kwargs"] = tuple(sorted(kwargs.items()))
        # Missing workload parameters fall back to the SweepPoint defaults so
        # the derived seed does not depend on whether they were spelled out.
        workload = {name: params.get(name, defaults[name]) for name in WORKLOAD_PARAMS}
        seed = derive_seed(base_seed, **workload)
        points.append(SweepPoint(engine=engine, seed=seed, **params))
    return points


def _workload_key(point: SweepPoint) -> tuple:
    return (point.trace_kind, point.rate_per_hour, point.duration_days, point.seed)


def _point_source(point: SweepPoint):
    """The chunked trace source of one sweep point.

    Built per cell: a source regenerates its jobs on every replay, so
    holding one across the policy cells of a workload saves nothing.
    """
    from repro.traces.alibaba import AlibabaTraceGenerator
    from repro.traces.borg import BorgTraceGenerator
    from repro.traces.scenarios import scenario_source

    if point.trace_kind in _TRACE_KINDS:
        generator_cls = (
            BorgTraceGenerator if point.trace_kind == "borg" else AlibabaTraceGenerator
        )
        return generator_cls(
            rate_per_hour=point.rate_per_hour,
            duration_days=point.duration_days,
            seed=point.seed,
        )
    return scenario_source(
        point.trace_kind,
        seed=point.seed,
        rate_per_hour=point.rate_per_hour,
        duration_days=point.duration_days,
    )


# -- shared-memory chunk transport (process-executor fused sweeps) ------------------

#: Worker-side LRU of attached shared-memory segments: name → (shm, source).
#: Evicted attachments are closed immediately; the atexit hook closes the
#: rest so worker shutdown never leaks segment handles.  The parent owns the
#: segments and unlinks them when the sweep completes.
_SHM_ATTACH_LIMIT = 4
_SHM_ATTACHMENTS: "collections.OrderedDict[str, tuple]" = collections.OrderedDict()
_SHM_LOCK = threading.Lock()


def _close_all_shared_attachments() -> None:
    with _SHM_LOCK:
        while _SHM_ATTACHMENTS:
            _name, (shm, _source) = _SHM_ATTACHMENTS.popitem(last=False)
            try:
                shm.close()
            except OSError:  # pragma: no cover - close is best-effort at exit
                pass


atexit.register(_close_all_shared_attachments)


def pack_shared_workload(source, chunk_size: int = 8192):
    """Copy a source's columns into one shared-memory segment.

    Returns ``(shm, handle)`` — the caller owns ``shm`` and must
    ``close()`` + ``unlink()`` it when the consumers are done; ``handle`` is
    a small picklable dict workers pass to :func:`attach_shared_workload`.
    """
    from multiprocessing import shared_memory

    from repro.traces.stream import CHUNK_COLUMNS

    chunks = list(source.iter_chunks(chunk_size))
    if chunks:
        columns = {
            field: np.ascontiguousarray(
                np.concatenate([getattr(chunk, field) for chunk in chunks])
            )
            for field in CHUNK_COLUMNS
        }
        region_keys = chunks[0].region_keys
        workload_names = chunks[0].workload_names
    else:
        columns = {field: np.zeros(0) for field in CHUNK_COLUMNS}
        region_keys = workload_names = ()
    total = sum(column.nbytes for column in columns.values())
    shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
    try:
        fields = []
        offset = 0
        for field in CHUNK_COLUMNS:
            column = columns[field]
            view = np.ndarray(column.shape, dtype=column.dtype, buffer=shm.buf, offset=offset)
            view[:] = column
            fields.append((field, column.dtype.str, offset, len(column)))
            offset += column.nbytes
        handle = {
            "shm": shm.name,
            "fields": fields,
            "region_keys": tuple(region_keys),
            "workload_names": tuple(workload_names),
            "name": getattr(source, "name", "stream"),
            "label": getattr(source, "label", None),
            "seed": getattr(source, "seed", 0),
            "horizon_s": float(getattr(source, "horizon_s", 0.0)),
        }
    except BaseException:
        # Ownership never transferred to the caller — tear the segment down
        # here or it strands in /dev/shm until interpreter exit (or forever,
        # if the exit handlers never run).
        shm.close()
        shm.unlink()
        raise
    return shm, handle


def attach_shared_workload(handle: dict):
    """Worker-side view of a packed workload as a zero-copy ``ColumnSource``."""
    from multiprocessing import shared_memory

    from repro.traces.stream import ColumnSource

    name = handle["shm"]
    with _SHM_LOCK:
        cached = _SHM_ATTACHMENTS.get(name)
        if cached is not None:
            _SHM_ATTACHMENTS.move_to_end(name)
            return cached[1]
        shm = shared_memory.SharedMemory(name=name)
        columns = {
            field: np.ndarray((length,), dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)
            for field, dtype, offset, length in handle["fields"]
        }
        source = ColumnSource(
            columns,
            region_keys=handle["region_keys"],
            workload_names=handle["workload_names"],
            name=handle["name"],
            seed=handle["seed"],
            horizon_s=handle["horizon_s"],
            label=handle["label"],
        )
        _SHM_ATTACHMENTS[name] = (shm, source)
        while len(_SHM_ATTACHMENTS) > _SHM_ATTACH_LIMIT:
            _stale, (stale_shm, _stale_source) = _SHM_ATTACHMENTS.popitem(last=False)
            stale_shm.close()
        return source


def _point_dataset(point: SweepPoint, source):
    """The sweep point's sustainability dataset (same recipe for all paths)."""
    import math

    from repro.sustainability.datasets import ElectricityMapsLikeProvider

    duration_days = (
        point.duration_days
        if point.duration_days is not None
        else source.horizon_s / 86_400.0
    )
    horizon_hours = max(int(math.ceil(duration_days * 24)) + 48, 72)
    return ElectricityMapsLikeProvider(horizon_hours=horizon_hours, seed=point.seed)


def _point_chaos(point: SweepPoint) -> str | None:
    """The chaos spec attached to the point's scenario family (if any)."""
    if point.trace_kind in _TRACE_KINDS:
        return None
    from repro.traces.scenarios import get_scenario

    return get_scenario(point.trace_kind).chaos


def _run_point(point: SweepPoint) -> SweepOutcome:
    """Simulate one sweep point (module-level so process pools can pickle it).

    The policy cell replays the shared chunked source without ever
    materializing the trace; ``batch`` cells keep per-job columns, ``stream``
    cells bounded-memory aggregates.
    """
    from repro.cluster.streaming import StreamingSimulator
    from repro.schedulers.registry import make_scheduler

    source = _point_source(point)
    result = StreamingSimulator(
        source,
        make_scheduler(point.scheduler, **dict(point.scheduler_kwargs)),
        dataset=_point_dataset(point, source),
        servers_per_region=point.servers_per_region,
        scheduling_interval_s=point.scheduling_interval_s,
        delay_tolerance=point.delay_tolerance,
        include_embodied=point.include_embodied,
        collect="full" if point.engine == "batch" else "aggregate",
        chaos=_point_chaos(point),
        chaos_seed=point.seed,
    ).run()
    return _outcome_from_result(point, result)


def _outcome_from_result(point: SweepPoint, result) -> SweepOutcome:
    return SweepOutcome(
        point=point,
        summary=result.summary(),
        total_carbon_g=result.total_carbon_g,
        total_water_l=result.total_water_l,
        mean_service_ratio=result.mean_service_ratio,
        violation_fraction=result.violation_fraction,
        num_jobs=result.num_jobs,
        digest=result.digest(),
    )


#: SweepPoint fields that define a *fusable cell group*: points agreeing on
#: all of these (i.e. differing only in the policy and its kwargs) can run
#: through one MultiPolicyRunner pass.
_FUSE_FIELDS = (
    "trace_kind", "rate_per_hour", "duration_days", "delay_tolerance",
    "servers_per_region", "scheduling_interval_s", "include_embodied", "seed",
)


def _fuse_key(point: SweepPoint) -> tuple:
    return tuple(getattr(point, name) for name in _FUSE_FIELDS)


def _run_fused_group(
    points: Sequence[SweepPoint], handle: dict | None = None
) -> list[SweepOutcome]:
    """Run one fused cell group (same workload + conditions, many policies).

    ``handle``, when given, points at a shared-memory workload packed by the
    parent (:func:`pack_shared_workload`); otherwise the worker builds the
    source from the point's parameters through the per-worker LRU cache.
    Results are the streaming engine's aggregates, decision-identical to the
    per-cell engines.
    """
    from repro.cluster.multi import MultiPolicyRunner
    from repro.schedulers.registry import make_scheduler

    points = list(points)
    first = points[0]
    source = attach_shared_workload(handle) if handle else _point_source(first)
    dataset = _point_dataset(first, source)
    schedulers = [
        (str(i), make_scheduler(p.scheduler, **dict(p.scheduler_kwargs)))
        for i, p in enumerate(points)
    ]
    results = MultiPolicyRunner(
        source,
        schedulers,
        dataset=dataset,
        collect="aggregate",
        servers_per_region=first.servers_per_region,
        scheduling_interval_s=first.scheduling_interval_s,
        delay_tolerance=first.delay_tolerance,
        include_embodied=first.include_embodied,
        chaos=_point_chaos(first),
        chaos_seed=first.seed,
    ).run()
    return [
        _outcome_from_result(point, results[str(i)])
        for i, point in enumerate(points)
    ]


def _run_sweep_fused(
    points: list[SweepPoint], workers: int | None, executor: str
) -> list[SweepOutcome]:
    """Fused execution plan: group cells, optionally pack workloads into shm."""
    groups: "collections.OrderedDict[tuple, list[int]]" = collections.OrderedDict()
    for index, point in enumerate(points):
        groups.setdefault(_fuse_key(point), []).append(index)
    tasks = [[points[i] for i in indices] for indices in groups.values()]

    segments = []
    handles: list[dict | None] = [None] * len(tasks)
    outcomes: list[SweepOutcome | None] = [None] * len(points)
    try:
        if executor == "process" and not (workers == 1 or len(tasks) <= 1):
            # Pack each distinct workload once; groups sharing a workload
            # (e.g. several delay tolerances) share one segment.
            by_workload: dict[tuple, dict] = {}
            for task_index, group in enumerate(tasks):
                key = _workload_key(group[0])
                handle = by_workload.get(key)
                if handle is None:
                    shm, handle = pack_shared_workload(_point_source(group[0]))
                    segments.append(shm)
                    by_workload[key] = handle
                handles[task_index] = handle
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                group_outcomes = list(pool.map(_run_fused_group, tasks, handles))
        elif executor == "thread" and not (workers == 1 or len(tasks) <= 1):
            with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
                group_outcomes = list(pool.map(_run_fused_group, tasks))
        else:
            group_outcomes = [_run_fused_group(task) for task in tasks]
    finally:
        # Per-segment best-effort teardown: one failing close()/unlink() must
        # not leave the remaining segments stranded in /dev/shm (and runs on
        # the failure path too — a raising policy cell still cleans up).
        for shm in segments:
            with contextlib.suppress(OSError):
                shm.close()
            with contextlib.suppress(OSError, FileNotFoundError):
                shm.unlink()

    for indices, group_result in zip(groups.values(), group_outcomes):
        for position, outcome in zip(indices, group_result):
            outcomes[position] = outcome
    return outcomes  # type: ignore[return-value]


def run_sweep(
    points: Sequence[SweepPoint],
    workers: int | None = None,
    executor: str = "process",
    fused: bool = False,
    transport: str | None = None,
    **fabric_kwargs,
) -> list[SweepOutcome]:
    """Simulate every point, sharding across workers; outcomes in input order.

    Parameters
    ----------
    points:
        Sweep points (typically from :func:`expand_grid`).
    workers:
        Worker count; ``None`` lets ``concurrent.futures`` pick, ``1`` is
        equivalent to ``executor="serial"``.
    executor:
        ``"process"`` (default — real parallelism for the CPU-bound
        simulations), ``"thread"`` (no spawn cost; useful for small sweeps
        and tests) or ``"serial"``.
    fused:
        Collapse cells that differ only in the policy into one-pass
        multi-policy tasks (:class:`~repro.cluster.multi.MultiPolicyRunner`),
        sharing trace generation and columnization across the group; with
        ``executor="process"`` each distinct workload is additionally packed
        into shared memory once and streamed zero-copy by the workers.
        Fused cells run the bounded-memory streaming engine regardless of
        ``point.engine`` (decisions are engine-invariant; summaries agree to
        float tolerance).
    transport:
        Route the sweep through the shard fabric
        (:func:`repro.analysis.fabric.run_fabric_sweep`) instead of the
        executor pool: ``"inprocess"``, ``"process"`` or ``"tcp"``.
        ``executor``/``fused`` are ignored (fabric shards are always fused
        slabs); extra keyword arguments — ``chunks_per_slab``,
        ``checkpoint_dir``, ``lease_timeout``, … — pass through.  Merged
        results are bit-identical (``StreamResult.digest``) to
        ``fused=True`` on one box.
    """
    if transport is not None:
        from repro.analysis.fabric import run_fabric_sweep

        return run_fabric_sweep(
            points, workers=workers, transport=transport, **fabric_kwargs
        )
    if fabric_kwargs:
        raise TypeError(
            f"{sorted(fabric_kwargs)} are fabric options: pass transport= as well"
        )
    if executor not in _EXECUTORS:
        raise ValueError(f"executor must be one of {_EXECUTORS}, got {executor!r}")
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    points = list(points)
    if fused:
        return _run_sweep_fused(points, workers, executor)
    if executor == "serial" or workers == 1 or len(points) <= 1:
        return [_run_point(point) for point in points]
    pool_cls = (
        concurrent.futures.ProcessPoolExecutor
        if executor == "process"
        else concurrent.futures.ThreadPoolExecutor
    )
    with pool_cls(max_workers=workers) as pool:
        return list(pool.map(_run_point, points))
