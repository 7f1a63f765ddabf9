"""Span recorder and the wrappers that attach it to ``repro``'s public entry points.

Tracing is installed from outside the program: :func:`install` replaces
module attributes and class methods with timing wrappers and
:meth:`Installation.remove` puts the originals back, so ``src/`` carries no
tracing code and untraced runs pay nothing.

Each thread keeps its own stack of open spans.  When a span closes, its
duration is added to its parent's child time, so a span's *self* time is
its duration minus the time its child spans cover.  Spans recorded on a
process's main thread form that process's *lane*: their self times add up
exactly to the lane's wall time.  Spans on other threads (the fabric
coordinator's request pump) and async spans (the gateway's ``submit``
coroutines, which interleave on one thread) are kept apart and never
enter that sum.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time

MAIN = "main"
AUX = "aux"
ASYNC = "async"


class Tracer:
    """Per-process span and counter buffer.

    ``spans`` maps ``(lane, name)`` to ``[count, total_s, self_s]``;
    ``counters`` maps a name to a number.  Both stay in memory until
    :meth:`dump` writes them out.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: dict[tuple[str, str], list[float]] = {}
        self.counters: dict[str, float] = {}

    def reset(self) -> None:
        """Forget every span and counter (a forked worker starts clean)."""
        self._local = threading.local()
        self.spans = {}
        self.counters = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def enter(self, name: str) -> None:
        self._stack().append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        stack = self._stack()
        name, start, child = stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        lane = MAIN if threading.current_thread() is threading.main_thread() else AUX
        self._add((lane, name), duration, duration - child)

    def interval(self, name: str, duration: float) -> None:
        """Record a span that is not nested on any stack (async work)."""
        self._add((ASYNC, name), duration, duration)

    def _add(self, key: tuple[str, str], duration: float, self_time: float) -> None:
        with self._lock:
            entry = self.spans.get(key)
            if entry is None:
                self.spans[key] = [1, duration, self_time]
            else:
                entry[0] += 1
                entry[1] += duration
                entry[2] += self_time

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "spans": [[lane, name, *values] for (lane, name), values in self.spans.items()],
                "counters": dict(self.counters),
            }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)


def merge_snapshots(snapshots) -> dict:
    """Sum several :meth:`Tracer.snapshot` payloads (one per process)."""
    spans: dict[tuple[str, str], list[float]] = {}
    counters: dict[str, float] = {}
    for snapshot in snapshots:
        for lane, name, count, total, self_time in snapshot["spans"]:
            entry = spans.setdefault((lane, name), [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += total
            entry[2] += self_time
        for name, value in snapshot["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {
        "spans": [[lane, name, *values] for (lane, name), values in spans.items()],
        "counters": counters,
    }


def span_table(snapshot: dict) -> dict[tuple[str, str], tuple[int, float, float]]:
    return {(lane, name): (count, total, self_time)
            for lane, name, count, total, self_time in snapshot["spans"]}


# -- wrappers ------------------------------------------------------------------------


def _timed(tracer: Tracer, name: str, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return function(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


def _timed_generator(tracer: Tracer, name: str, function):
    """Time each ``next()`` of the generator; count the items it yields."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        iterator = function(*args, **kwargs)
        try:
            while True:
                tracer.enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                tracer.count(name + ".items")
                yield item
        finally:
            iterator.close()

    return wrapper


def _timed_coroutine(tracer: Tracer, name: str, function):
    @functools.wraps(function)
    async def wrapper(*args, **kwargs):
        started = tracer.clock()
        try:
            return await function(*args, **kwargs)
        finally:
            tracer.interval(name, tracer.clock() - started)

    return wrapper


def _counted(tracer: Tracer, name: str, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return function(*args, **kwargs)

    return wrapper


class Installation:
    """The set of patched attributes, restorable in reverse order."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list = []

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``; keeps staticmethods static."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        static = isinstance(raw, staticmethod)
        original = raw.__func__ if static else raw
        replacement = make(original)
        setattr(owner, attr, staticmethod(replacement) if static else replacement)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def replace_item(self, mapping: dict, key, value) -> None:
        """Replace ``mapping[key]`` by ``value`` until :meth:`remove`."""
        original = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def span(self, owner, attr: str, name: str) -> None:
        tracer = self.tracer

        def make(original):
            if inspect.iscoroutinefunction(original):
                return _timed_coroutine(tracer, name, original)
            if inspect.isgeneratorfunction(original):
                return _timed_generator(tracer, name, original)
            return _timed(tracer, name, original)

        self.patch(owner, attr, make)

    def counter(self, owner, attr: str, name: str) -> None:
        self.patch(owner, attr, lambda original: _counted(self.tracer, name, original))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def _trace_source_classes():
    from repro.traces.stream import TraceSource

    seen, pending = [], [TraceSource]
    while pending:
        cls = pending.pop()
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return [cls for cls in seen if "iter_chunks" in cls.__dict__]


def install(tracer: Tracer, span_dir=None) -> Installation:
    """Wrap every layer entry point the benchmark reports on.

    ``span_dir``, when given, is where forked fabric workers write their
    span buffers as ``spans-<pid>.json`` when their worker loop ends.
    """
    import repro.analysis.fabric as fabric
    import repro.cluster.streaming as streaming
    import repro.core.decision as decision
    import repro.core.fastpath as fastpath
    import repro.schedulers.vectorized as vectorized
    from repro.analysis.shard import MergeableAggregates
    from repro.cluster.footprint import FootprintCalculator, RunningFootprintTotals
    from repro.cluster.metrics import RunningJobStats
    from repro.cluster.multi import MultiPolicyRunner
    from repro.service.gateway import AdmissionGateway

    # Scenario and generator modules define further TraceSource subclasses.
    import repro.traces.scenarios  # noqa: F401

    inst = Installation(tracer)
    for cls in _trace_source_classes():
        inst.span(cls, "iter_chunks", "traces.chunk")

    inst.span(streaming.StreamingSimulator, "advance", "engine.advance")
    inst.span(streaming.StreamingSimulator, "finalize", "engine.finalize")
    inst.span(streaming, "process_until", "kernel.process_until")

    # Engines resolve their fast path once at construction, so the registry
    # entries are wrapped before any engine is built.
    registry = vectorized._FAST_PATHS
    for scheduler_type, (fast_path, exact) in list(registry.items()):
        inst.replace_item(
            registry, scheduler_type, (_timed(tracer, "decision.fast_path", fast_path), exact)
        )
    inst.span(FootprintCalculator, "footprint_matrices_arrays", "decision.footprint_matrices")
    inst.patch(decision.DecisionController, "decide_arrays",
               lambda original: _soft_counting(tracer, original))
    inst.span(fastpath, "admit_ranked", "decision.slack_admit")
    inst.counter(fastpath, "cached_average_from", "decision.slack_lookups")
    inst.span(decision, "solve_standard_form", "milp.solve")

    inst.span(FootprintCalculator, "integrate_batch", "collect.integrate_batch")
    inst.span(RunningJobStats, "add", "collect.job_stats_add")
    inst.span(RunningFootprintTotals, "add", "collect.footprint_add")

    inst.patch(MultiPolicyRunner, "save_checkpoint",
               lambda original: _checkpoint_saving(tracer, original))
    inst.span(streaming.StreamingSimulator, "load_checkpoint", "checkpoint.load")

    inst.span(fabric, "run_shard", "fabric.run_shard")
    inst.span(MergeableAggregates, "absorb", "fabric.absorb")
    inst.patch(fabric.ShardQueue, "lease", lambda original: _lease_counting(tracer, original))
    inst.patch(fabric.ShardQueue, "complete",
               lambda original: _result_counting(tracer, "fabric.accepted", original))
    inst.patch(fabric.ShardQueue, "expire",
               lambda original: _length_counting(tracer, "fabric.expired_leases", original))
    if span_dir is not None:
        inst.patch(fabric, "worker_loop",
                   lambda original: _dumping_worker(tracer, span_dir, original))

    inst.span(AdmissionGateway, "submit", "gateway.submit")
    inst.span(streaming.StreamingSimulator, "admit", "gateway.admit")
    return inst


def _soft_counting(tracer: Tracer, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer.enter("decision.decide_arrays")
        try:
            regions, used_soft, used_fallback = original(*args, **kwargs)
        finally:
            tracer.exit()
        if used_soft:
            tracer.count("decision.soft_rounds")
        return regions, used_soft, used_fallback

    return wrapper


def _checkpoint_saving(tracer: Tracer, original):
    @functools.wraps(original)
    def wrapper(self, path, *args, **kwargs):
        tracer.enter("checkpoint.save")
        try:
            return original(self, path, *args, **kwargs)
        finally:
            tracer.exit()
            tracer.count("checkpoint.bytes", os.path.getsize(path))

    return wrapper


def _lease_counting(tracer: Tracer, original):
    leased: set[str] = set()

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        granted = original(self, *args, **kwargs)
        if granted is not None:
            key = granted[1].key()
            tracer.count("fabric.leases")
            if key in leased:
                tracer.count("fabric.duplicate_leases")
            leased.add(key)
        return granted

    return wrapper


def _result_counting(tracer: Tracer, name: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        if result:
            tracer.count(name)
        return result

    return wrapper


def _length_counting(tracer: Tracer, name: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        if result:
            tracer.count(name, len(result))
        return result

    return wrapper


def _dumping_worker(tracer: Tracer, span_dir, original):
    """Run a forked worker's loop on a clean buffer and write it out at exit."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer.reset()
        try:
            return original(*args, **kwargs)
        finally:
            tracer.dump(os.path.join(span_dir, f"spans-{os.getpid()}.json"))

    return wrapper
