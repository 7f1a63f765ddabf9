"""Trace container: an immutable, time-ordered collection of jobs."""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable, Iterable, Iterator, Sequence
from pathlib import Path

import numpy as np

from repro._validation import ensure_positive
from repro.traces.job import Job

__all__ = ["Trace"]


class Trace:
    """A time-ordered collection of :class:`~repro.traces.job.Job` objects.

    Jobs are sorted by arrival time at construction; the container is
    read-only afterwards.  Provides the filtering, windowing and rescaling
    operations the simulator and the benchmark harness need, plus JSON-lines
    (de)serialization so generated traces can be persisted and shared.
    """

    def __init__(self, jobs: Iterable[Job], name: str = "trace") -> None:
        self._jobs: tuple[Job, ...] | None = tuple(
            sorted(jobs, key=lambda j: (j.arrival_time, j.job_id))
        )
        self._columns: dict | None = None
        self._horizon_hint: float | None = None
        self._job_metadata: Callable | None = None
        self.name = str(name)
        ids = [job.job_id for job in self._jobs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"trace {name!r} contains duplicate job ids")

    @classmethod
    def from_columns(
        cls,
        columns: dict,
        name: str = "trace",
        horizon_hint_s: float | None = None,
        job_metadata: Callable[[str], dict] | None = None,
    ) -> "Trace":
        """Build a trace directly from :meth:`to_columns`-shaped columns.

        The column dictionary becomes the trace's primary representation:
        the engine's trace sources consume it as-is, and the per-job
        :class:`Job` objects are only materialized lazily when an
        object-world consumer (iteration, ``filter``, JSON serialization)
        first touches them.  Columns must be sorted by
        ``(arrival_time, job_id)`` — generators emit them that way — and the
        constructor re-sorts them if they are not.

        ``horizon_hint_s`` records the workload's *declared* horizon (the
        generator's configured duration) so consumers sizing resources — the
        simulators' auto-built sustainability datasets — see the same value
        whether they work from this trace or from the stream it came from.
        ``job_metadata`` maps a workload name to the :attr:`Job.metadata`
        entries materialized jobs carry (generators tag suite/provenance).
        """
        job_ids = np.asarray(columns["job_id"], dtype=np.int64)
        arrivals = np.asarray(columns["arrival_time"], dtype=float)
        if len(np.unique(job_ids)) != len(job_ids):
            raise ValueError(f"trace {name!r} contains duplicate job ids")
        order = np.lexsort((job_ids, arrivals))
        if len(arrivals) and np.any(order != np.arange(len(order))):
            columns = {
                key: (
                    tuple(column[i] for i in order)
                    if isinstance(column, tuple)
                    else np.asarray(column)[order]
                )
                for key, column in columns.items()
            }
        trace = object.__new__(cls)
        trace._jobs = None
        trace._columns = dict(columns)
        trace._horizon_hint = None if horizon_hint_s is None else float(horizon_hint_s)
        trace._job_metadata = job_metadata
        trace.name = str(name)
        return trace

    def _sliced(self, rows, name: str) -> "Trace":
        """Column-world sub-trace (``rows`` = slice or index array)."""
        columns = self.to_columns()
        sliced = {
            key: (
                tuple(column[i] for i in rows)
                if isinstance(column, tuple) and not isinstance(rows, slice)
                else column[rows]
            )
            for key, column in columns.items()
        }
        return Trace.from_columns(sliced, name=name, job_metadata=self._job_metadata)

    # -- basic container protocol ---------------------------------------------------
    def _materialized(self) -> tuple[Job, ...]:
        """The ``Job`` tuple, built on first object-world access."""
        if self._jobs is None:
            columns = self._columns
            metadata_for = self._job_metadata
            self._jobs = tuple(
                Job(
                    job_id=int(columns["job_id"][i]),
                    workload=columns["workload"][i],
                    arrival_time=float(columns["arrival_time"][i]),
                    execution_time=float(columns["execution_time"][i]),
                    energy_kwh=float(columns["energy_kwh"][i]),
                    home_region=columns["home_region"][i],
                    package_gb=float(columns["package_gb"][i]),
                    servers_required=int(columns["servers_required"][i]),
                    true_execution_time=float(columns["realized_execution_time"][i]),
                    true_energy_kwh=float(columns["realized_energy_kwh"][i]),
                    metadata=(
                        dict(metadata_for(columns["workload"][i]))
                        if metadata_for is not None
                        else {}
                    ),
                )
                for i in range(len(columns["job_id"]))
            )
        return self._jobs

    def __len__(self) -> int:
        if self._jobs is None:
            return len(self._columns["job_id"])
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._materialized())

    def __getitem__(self, index: int) -> Job:
        return self._materialized()[index]

    def __repr__(self) -> str:
        horizon = self.horizon_s
        return f"Trace({self.name!r}, {len(self)} jobs, horizon {horizon / 3600.0:.1f} h)"

    @property
    def jobs(self) -> tuple[Job, ...]:
        return self._materialized()

    @property
    def horizon_s(self) -> float:
        """Time of the last arrival (0 for an empty trace)."""
        if self._jobs is None:
            arrivals = self._columns["arrival_time"]
            return float(arrivals[-1]) if len(arrivals) else 0.0
        return self._jobs[-1].arrival_time if self._jobs else 0.0

    @property
    def declared_horizon_s(self) -> float:
        """The workload's declared horizon (falls back to the last arrival).

        Traces materialized from a :class:`~repro.traces.stream.TraceSource`
        carry the generator's configured duration here, so resource sizing —
        in particular the simulators' auto-built sustainability datasets —
        is identical whether a consumer holds the stream or this trace.
        """
        if self._horizon_hint is not None:
            return self._horizon_hint
        return self.horizon_s

    # -- columnar view -----------------------------------------------------------------
    def to_columns(self) -> dict[str, np.ndarray | tuple]:
        """Columnar (structure-of-arrays) view of the trace, cached.

        One NumPy array (or tuple, for string fields) per job attribute,
        aligned with the trace's sorted job order.
        :class:`~repro.traces.stream.TraceView` chunks the trace from this,
        and the cache means sweeping many policies over one trace extracts
        the columns only once.  Callers must treat the arrays as read-only
        (the trace itself is immutable).
        """
        columns = self._columns
        if columns is None:
            jobs = self._materialized()
            n = len(jobs)
            columns = {
                "job_id": np.fromiter((j.job_id for j in jobs), dtype=np.int64, count=n),
                "arrival_time": np.fromiter(
                    (j.arrival_time for j in jobs), dtype=float, count=n
                ),
                "execution_time": np.fromiter(
                    (j.execution_time for j in jobs), dtype=float, count=n
                ),
                "realized_execution_time": np.fromiter(
                    (j.realized_execution_time for j in jobs), dtype=float, count=n
                ),
                "energy_kwh": np.fromiter(
                    (j.energy_kwh for j in jobs), dtype=float, count=n
                ),
                "realized_energy_kwh": np.fromiter(
                    (j.realized_energy_kwh for j in jobs), dtype=float, count=n
                ),
                "package_gb": np.fromiter(
                    (j.package_gb for j in jobs), dtype=float, count=n
                ),
                "servers_required": np.fromiter(
                    (j.servers_required for j in jobs), dtype=np.int64, count=n
                ),
                "home_region": tuple(j.home_region for j in jobs),
                "workload": tuple(j.workload for j in jobs),
            }
            self._columns = columns
        return columns

    # -- statistics --------------------------------------------------------------------
    def arrival_times(self) -> np.ndarray:
        return np.array(self.to_columns()["arrival_time"], dtype=float)

    def execution_times(self) -> np.ndarray:
        return np.array(self.to_columns()["execution_time"], dtype=float)

    def total_energy_kwh(self) -> float:
        return float(np.sum(self.to_columns()["energy_kwh"]))

    def mean_interarrival_s(self) -> float:
        """Mean inter-arrival time in seconds (NaN for traces with < 2 jobs)."""
        if len(self) < 2:
            return float("nan")
        return float(np.mean(np.diff(self.arrival_times())))

    def arrival_rate_per_hour(self) -> float:
        """Average arrival rate over the trace horizon."""
        if len(self) < 2 or self.horizon_s == 0.0:
            return float("nan")
        return len(self) / (self.horizon_s / 3600.0)

    def jobs_per_region(self) -> dict[str, int]:
        """Number of jobs submitted from each home region."""
        counts: dict[str, int] = {}
        for home in self.to_columns()["home_region"]:
            counts[home] = counts.get(home, 0) + 1
        return counts

    def jobs_per_workload(self) -> dict[str, int]:
        """Number of jobs per benchmark workload."""
        counts: dict[str, int] = {}
        for workload in self.to_columns()["workload"]:
            counts[workload] = counts.get(workload, 0) + 1
        return counts

    # -- slicing / transformation ----------------------------------------------------------
    def window(self, start_s: float, end_s: float) -> "Trace":
        """Jobs arriving in ``[start_s, end_s)`` (a column slice; no Job objects)."""
        if end_s < start_s:
            raise ValueError("window end must be >= start")
        arrivals = np.asarray(self.to_columns()["arrival_time"])
        lo = int(np.searchsorted(arrivals, start_s, side="left"))
        hi = int(np.searchsorted(arrivals, end_s, side="left"))
        return self._sliced(slice(lo, hi), name=f"{self.name}[{start_s:.0f}:{end_s:.0f}]")

    def filter(self, predicate: Callable[[Job], bool]) -> "Trace":
        """Jobs satisfying ``predicate``."""
        return Trace([job for job in self.jobs if predicate(job)], name=self.name)

    def head(self, count: int) -> "Trace":
        """The first ``count`` jobs by arrival time (a column slice; no Job objects)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        return self._sliced(slice(0, count), name=f"{self.name}[:{count}]")

    def scale_rate(self, factor: float) -> "Trace":
        """Divide inter-arrival times by ``factor`` (``2.0`` doubles the request rate).

        Used by the request-rate sensitivity study (the paper doubles the
        Borg trace's rate); job contents are unchanged.
        """
        factor = ensure_positive(factor, "factor")
        return Trace(
            [job.with_arrival_time(job.arrival_time / factor) for job in self.jobs],
            name=f"{self.name}@{factor:g}x",
        )

    def restricted_to_regions(self, region_keys: Sequence[str], reassign: bool = True) -> "Trace":
        """Remap jobs whose home region is unavailable onto the allowed regions.

        With ``reassign=False`` the jobs from unavailable regions are dropped
        instead.  Used by the region-availability sensitivity study (Fig. 12).
        """
        allowed = [key.strip().lower() for key in region_keys]
        if not allowed:
            raise ValueError("region_keys must not be empty")
        jobs: list[Job] = []
        for job in self.jobs:
            if job.home_region in allowed:
                jobs.append(job)
            elif reassign:
                target = allowed[job.job_id % len(allowed)]
                jobs.append(dataclasses.replace(job, home_region=target))
        return Trace(jobs, name=f"{self.name}|{'+'.join(allowed)}")

    # -- serialization ---------------------------------------------------------------------
    def to_jsonl(self, path: str | Path) -> None:
        """Write the trace as JSON-lines (one job per line)."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for job in self.jobs:
                record = dataclasses.asdict(job)
                record["metadata"] = dict(job.metadata)
                handle.write(json.dumps(record) + "\n")

    @classmethod
    def from_jsonl(cls, path: str | Path, name: str | None = None) -> "Trace":
        """Read a trace previously written with :meth:`to_jsonl`."""
        path = Path(path)
        jobs = []
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                jobs.append(Job(**record))
        return cls(jobs, name=name or path.stem)
