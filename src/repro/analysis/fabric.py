"""Work-queue dispatcher for distributed sweeps: lease, run, merge exactly.

The fabric turns :mod:`repro.analysis.shard`'s specs into a running sweep:
a :class:`FabricCoordinator` owns the lease queue and the exact merge state,
workers — on any transport — loop *lease → run_shard → complete*, and the
coordinator reassembles outcomes bit-identical to a single-box fused run.

Three transports sit behind one tiny RPC surface
(``lease`` / ``heartbeat`` / ``complete`` / ``fail``):

* ``"inprocess"`` — worker threads calling the coordinator directly; the
  reference implementation the other transports must agree with (and the
  zero-dependency way to debug a sweep);
* ``"process"`` — local worker processes over multiprocessing queues; the
  sweep-executor seam of :func:`repro.analysis.parallel.run_sweep`, now a
  transport;
* ``"tcp"`` — a JSON-lines TCP server (the :mod:`repro.service.server`
  idiom) with workers connecting over sockets; workers may be spawned
  locally (loopback multi-node) or started on other machines with
  ``repro shard-worker --connect host:port``.

Fault model: every lease carries a deadline, workers heartbeat while a shard
runs, and a worker lost mid-shard (crash, kill, partition) simply stops
heartbeating — the lease expires, the shard returns to the queue, and the
next worker resumes from the lineage's last format-5 checkpoint instead of
restarting.  Stragglers past a multiple of the median shard duration get a
duplicate lease rather than being awaited; completions are idempotent and
first-complete-wins.  The TCP client retries with exponential backoff and
jitter and bounds every wait with a socket timeout, so a transient stall
degrades to a re-lease instead of hanging the sweep.
"""

from __future__ import annotations

import base64
import contextlib
import itertools
import json
import os
import pickle
import queue as queue_module
import random
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import OrderedDict
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.parallel import SweepOutcome, SweepPoint, _outcome_from_result
from repro.analysis.shard import (
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_CHUNK_SIZE,
    MergeableAggregates,
    ShardResult,
    ShardSpec,
    checkpoint_path,
    derive_shards,
    run_shard,
)

__all__ = [
    "ShardQueue",
    "FabricCoordinator",
    "FabricServer",
    "FabricClient",
    "run_fabric_sweep",
    "run_shard_worker",
    "worker_loop",
    "TRANSPORTS",
]

TRANSPORTS = ("inprocess", "process", "tcp")

_LEASE_TIMEOUT = 60.0
_STRAGGLER_FACTOR = 4.0
_MAX_FAILURES = 3


class _Entry:
    __slots__ = ("spec", "state", "leases", "failures", "first_leased_at")

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.state = "pending"  # pending | running | done | failed
        self.leases: dict[str, float] = {}  # lease id -> deadline
        self.failures = 0
        self.first_leased_at: float | None = None


class ShardQueue:
    """Thread-safe lease state machine over a set of shards.

    Shards move ``pending → running → done``; a lease that misses its
    deadline (no heartbeat) throws the shard back to ``pending`` — that *is*
    the re-dispatch path, there is no separate recovery machinery.  Each
    full lease loss counts toward ``max_failures``; a shard exceeding it
    poisons the queue (:attr:`error`) so a systematically crashing cell
    aborts the sweep instead of cycling forever.  Running shards that have
    outlived ``straggler_factor ×`` the median completed-shard duration are
    handed out a *duplicate* lease; :meth:`complete` is idempotent and the
    first result wins.
    """

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        lease_timeout: float = _LEASE_TIMEOUT,
        straggler_factor: float = _STRAGGLER_FACTOR,
        max_failures: int = _MAX_FAILURES,
        clock=time.monotonic,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        self.lease_timeout = float(lease_timeout)
        self.straggler_factor = float(straggler_factor)
        self.max_failures = int(max_failures)
        self.error: str | None = None
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lease_owner: dict[str, str] = {}  # lease id -> shard key (kept forever)
        self._lease_started: dict[str, float] = {}
        self._lease_counter = itertools.count()
        self._durations: list[float] = []
        for spec in specs:
            self.add(spec)

    # -- queue growth ------------------------------------------------------------------
    def add(self, spec: ShardSpec) -> None:
        """Enqueue a shard (initial derivation and dynamic continuations)."""
        key = spec.key()
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = _Entry(spec)

    # -- lease lifecycle ---------------------------------------------------------------
    def _expire_locked(self, now: float) -> list[ShardSpec]:
        expired = []
        for entry in self._entries.values():
            if entry.state != "running":
                continue
            stale = [lease for lease, deadline in entry.leases.items() if deadline < now]
            for lease in stale:
                del entry.leases[lease]
            if stale and not entry.leases:
                entry.failures += 1
                if entry.failures >= self.max_failures:
                    entry.state = "failed"
                    self.error = (
                        f"shard {entry.spec.key()} lost its lease "
                        f"{entry.failures} times (last worker never completed)"
                    )
                else:
                    entry.state = "pending"
                    expired.append(entry.spec)
        return expired

    def expire(self) -> list[ShardSpec]:
        """Drop overdue leases; returns the shards thrown back to pending."""
        with self._lock:
            return self._expire_locked(self._clock())

    def _grant_locked(self, entry: _Entry, worker: str, now: float) -> tuple[str, ShardSpec]:
        lease = f"L{next(self._lease_counter)}-{worker}"
        entry.state = "running"
        entry.leases[lease] = now + self.lease_timeout
        if entry.first_leased_at is None:
            entry.first_leased_at = now
        self._lease_owner[lease] = entry.spec.key()
        self._lease_started[lease] = now
        return lease, entry.spec

    def _straggler_threshold_locked(self) -> float | None:
        if not self._durations:
            return None
        return self.straggler_factor * max(
            statistics.median(self._durations), 1e-3
        )

    def lease(self, worker: str = "?") -> tuple[str, ShardSpec] | None:
        """Grant the next pending shard (or a straggler duplicate); None if idle."""
        with self._lock:
            now = self._clock()
            self._expire_locked(now)
            if self.error is not None:
                return None
            for entry in self._entries.values():
                if entry.state == "pending":
                    return self._grant_locked(entry, worker, now)
            threshold = self._straggler_threshold_locked()
            if threshold is not None:
                for entry in self._entries.values():
                    if (
                        entry.state == "running"
                        and len(entry.leases) == 1
                        and entry.first_leased_at is not None
                        and now - entry.first_leased_at > threshold
                    ):
                        return self._grant_locked(entry, worker, now)
            return None

    def heartbeat(self, lease: str) -> str:
        """Extend a lease; ``"ok"``, ``"done"`` (shard finished) or ``"lost"``."""
        with self._lock:
            key = self._lease_owner.get(lease)
            if key is None:
                return "lost"
            entry = self._entries.get(key)
            if entry is None:
                return "lost"
            if entry.state == "done":
                return "done"
            if lease in entry.leases:
                entry.leases[lease] = self._clock() + self.lease_timeout
                return "ok"
            return "lost"

    def complete(self, lease: str) -> bool:
        """First-complete-wins: True iff this lease's result should be applied.

        A worker whose lease expired (but which finished anyway) is still
        accepted when nobody else completed first — the work is
        deterministic, so the result is as good as any re-run's.
        """
        with self._lock:
            key = self._lease_owner.get(lease)
            if key is None:
                return False
            entry = self._entries.get(key)
            if entry is None or entry.state in ("done", "failed"):
                return False
            entry.state = "done"
            entry.leases.clear()
            started = self._lease_started.get(lease)
            if started is not None:
                self._durations.append(self._clock() - started)
            return True

    def fail(self, lease: str, error: str = "") -> None:
        """A worker reported a shard exception: requeue or poison the queue."""
        with self._lock:
            key = self._lease_owner.get(lease)
            if key is None:
                return
            entry = self._entries.get(key)
            if entry is None or entry.state != "running":
                return
            entry.leases.pop(lease, None)
            entry.failures += 1
            if entry.failures >= self.max_failures:
                entry.state = "failed"
                self.error = f"shard {key} failed {entry.failures} times: {error}"
            elif not entry.leases:
                entry.state = "pending"

    # -- progress ----------------------------------------------------------------------
    def all_done(self) -> bool:
        with self._lock:
            return all(entry.state == "done" for entry in self._entries.values())

    def counts(self) -> dict[str, int]:
        with self._lock:
            out = {"pending": 0, "running": 0, "done": 0, "failed": 0}
            for entry in self._entries.values():
                out[entry.state] += 1
            return out

    def specs(self) -> list[ShardSpec]:
        with self._lock:
            return [entry.spec for entry in self._entries.values()]


class FabricCoordinator:
    """The sweep-side brain: lease queue + exact merge + outcome assembly.

    Transport-agnostic: every transport funnels worker requests into
    :meth:`rpc` (thread-safe) and the coordinator neither knows nor cares
    whether the bytes came from a thread, a pipe or a socket — the
    scheduler-DB replay idiom: a durable spec store whose entries take the
    identical path regardless of which worker picks them up.
    """

    def __init__(
        self,
        points: Sequence[SweepPoint],
        checkpoint_dir,
        policies_per_shard: int = 1,
        chunks_per_slab: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        lease_timeout: float = _LEASE_TIMEOUT,
        straggler_factor: float = _STRAGGLER_FACTOR,
        max_failures: int = _MAX_FAILURES,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        self.points = list(points)
        self.checkpoint_dir = Path(checkpoint_dir)
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.checkpoint_every = int(checkpoint_every)
        self.queue = ShardQueue(
            derive_shards(
                self.points,
                policies_per_shard=policies_per_shard,
                chunks_per_slab=chunks_per_slab,
                chunk_size=chunk_size,
            ),
            lease_timeout=lease_timeout,
            straggler_factor=straggler_factor,
            max_failures=max_failures,
        )
        self.aggregates = MergeableAggregates()
        self._merge_lock = threading.Lock()

    # -- worker RPC surface ------------------------------------------------------------
    def rpc(self, request: dict) -> dict:
        op = request.get("op")
        if op == "lease":
            granted = self.queue.lease(str(request.get("worker", "?")))
            if granted is None:
                done = self.done()
                return {"ok": True, "idle": not done, "done": done}
            lease, spec = granted
            return {
                "ok": True,
                "lease": lease,
                "spec": spec,
                "checkpoint_every": self.checkpoint_every,
            }
        if op == "heartbeat":
            return {"ok": True, "status": self.queue.heartbeat(str(request["lease"]))}
        if op == "complete":
            result = request["result"]
            if not isinstance(result, ShardResult):
                return {"ok": False, "error": "complete needs a ShardResult payload"}
            accepted = self.queue.complete(str(request["lease"]))
            if accepted:
                with self._merge_lock:
                    self.aggregates.absorb(result)
                if not result.final:
                    self.queue.add(result.spec.continuation(result.chunks_done))
            return {"ok": True, "accepted": accepted}
        if op == "fail":
            self.queue.fail(str(request["lease"]), str(request.get("error", "")))
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    # -- sweep lifecycle ---------------------------------------------------------------
    def done(self) -> bool:
        return self.queue.error is not None or self.queue.all_done()

    def outcomes(self) -> list[SweepOutcome]:
        """Assemble per-point outcomes in input order (raises on a failed sweep)."""
        if self.queue.error is not None:
            raise RuntimeError(f"distributed sweep failed: {self.queue.error}")
        missing = self.aggregates.pending(range(len(self.points)))
        if missing:
            raise RuntimeError(
                f"distributed sweep incomplete: no final slab for points {missing}"
            )
        return [
            _outcome_from_result(point, self.aggregates.result(index))
            for index, point in enumerate(self.points)
        ]

    def cleanup_checkpoints(self) -> None:
        """Remove every lineage checkpoint this sweep may have written."""
        for spec in self.queue.specs():
            with contextlib.suppress(OSError):
                checkpoint_path(self.checkpoint_dir, spec).unlink()


# -- the worker side (transport-agnostic) -----------------------------------------------


def _heartbeat_pump(client, lease: str, interval: float, stop: threading.Event) -> None:
    while not stop.wait(interval):
        try:
            reply = client.rpc({"op": "heartbeat", "lease": lease})
        except Exception:
            return  # the RPC path retries internally; give up quietly past that
        if reply.get("status") == "done":
            return


def worker_loop(
    client,
    checkpoint_dir,
    worker: str = "worker",
    heartbeat_interval: float | None = None,
    idle_sleep: float = 0.05,
) -> int:
    """Lease shards until the coordinator reports the sweep done.

    ``client`` is anything with ``rpc(dict) -> dict`` — the in-process
    coordinator handle, a multiprocessing queue pair, or a TCP client.  A
    heartbeat thread keeps the lease alive while :func:`run_shard` blocks;
    exceptions turn into ``fail`` reports (the coordinator decides whether
    to re-lease or abort).  Returns the number of shards completed.
    """
    completed = 0
    while True:
        reply = client.rpc({"op": "lease", "worker": worker})
        if reply.get("done"):
            return completed
        spec = reply.get("spec")
        if spec is None:
            time.sleep(idle_sleep)
            continue
        lease = reply["lease"]
        stop = threading.Event()
        pump = None
        if heartbeat_interval:
            pump = threading.Thread(
                target=_heartbeat_pump,
                args=(client, lease, heartbeat_interval, stop),
                daemon=True,
            )
            pump.start()
        try:
            result = run_shard(
                spec,
                checkpoint_dir,
                checkpoint_every=int(reply.get("checkpoint_every", DEFAULT_CHECKPOINT_EVERY)),
            )
        except Exception as error:
            stop.set()
            client.rpc(
                {"op": "fail", "lease": lease, "error": f"{type(error).__name__}: {error}"}
            )
            continue
        finally:
            stop.set()
            if pump is not None:
                pump.join(timeout=1.0)
        client.rpc({"op": "complete", "lease": lease, "result": result})
        completed += 1


class _LocalClient:
    """In-process transport: the client *is* the coordinator."""

    def __init__(self, coordinator: FabricCoordinator) -> None:
        self._coordinator = coordinator

    def rpc(self, request: dict) -> dict:
        return self._coordinator.rpc(request)


# -- multiprocess transport -------------------------------------------------------------


class _QueueClient:
    """Worker-side RPC over a shared request queue + per-worker reply queue.

    Heartbeats are fire-and-forget (no reply) so the pump thread's traffic
    never interleaves with the main thread's request/reply pairs.
    """

    def __init__(self, requests, replies, worker_id: int) -> None:
        self._requests = requests
        self._replies = replies
        self._worker_id = worker_id
        self._lock = threading.Lock()

    def rpc(self, request: dict) -> dict:
        if request.get("op") == "heartbeat":
            self._requests.put((self._worker_id, request, False))
            return {"ok": True, "status": "ok"}
        with self._lock:
            self._requests.put((self._worker_id, request, True))
            return self._replies.get()


def _process_worker_main(
    worker_id: int, requests, replies, checkpoint_dir: str, heartbeat_interval: float
) -> None:
    client = _QueueClient(requests, replies, worker_id)
    worker_loop(
        client,
        checkpoint_dir,
        worker=f"proc-{worker_id}",
        heartbeat_interval=heartbeat_interval,
    )


def _serve_queue_requests(
    coordinator: FabricCoordinator, requests, replies: list, stop: threading.Event
) -> None:
    while not stop.is_set():
        try:
            worker_id, request, needs_reply = requests.get(timeout=0.1)
        except queue_module.Empty:
            continue
        reply = coordinator.rpc(request)
        if needs_reply:
            replies[worker_id].put(reply)


def _run_transport_process(
    coordinator: FabricCoordinator, workers: int, heartbeat_interval: float
) -> None:
    import multiprocessing as mp

    context = mp.get_context()
    requests = context.Queue()
    replies = [context.Queue() for _ in range(workers)]
    stop = threading.Event()
    pump = threading.Thread(
        target=_serve_queue_requests,
        args=(coordinator, requests, replies, stop),
        daemon=True,
    )
    pump.start()
    procs = [
        context.Process(
            target=_process_worker_main,
            args=(
                i,
                requests,
                replies[i],
                str(coordinator.checkpoint_dir),
                heartbeat_interval,
            ),
            daemon=True,
        )
        for i in range(workers)
    ]
    for proc in procs:
        proc.start()
    try:
        while not coordinator.done():
            coordinator.queue.expire()
            if all(not proc.is_alive() for proc in procs):
                raise RuntimeError(
                    "all fabric workers exited before the sweep completed"
                )
            time.sleep(0.05)
        # Let live workers observe "done" on their next lease and exit.
        for proc in procs:
            proc.join(timeout=5.0)
    finally:
        stop.set()
        pump.join(timeout=2.0)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)


# -- inprocess transport ----------------------------------------------------------------


def _run_transport_inprocess(coordinator: FabricCoordinator, workers: int) -> None:
    threads = [
        threading.Thread(
            target=worker_loop,
            args=(_LocalClient(coordinator), coordinator.checkpoint_dir),
            kwargs={"worker": f"thread-{i}"},
            daemon=True,
        )
        for i in range(workers)
    ]
    for thread in threads:
        thread.start()
    while not coordinator.done():
        coordinator.queue.expire()
        time.sleep(0.02)
    for thread in threads:
        thread.join(timeout=5.0)


# -- TCP transport ----------------------------------------------------------------------


def _encode_result(result: ShardResult) -> str:
    return base64.b64encode(pickle.dumps(result)).decode("ascii")


def _decode_result(blob: str) -> ShardResult:
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


class FabricServer:
    """JSON-lines TCP front end over a :class:`FabricCoordinator`.

    One request per line, one response per line, UTF-8 JSON — the
    :class:`repro.service.server.AdmissionServer` idiom.  Shard specs travel
    as plain JSON (:meth:`ShardSpec.as_dict`); shard results, which carry
    accumulator objects, travel as base64 pickles inside the JSON envelope.
    Runs its asyncio loop in a background thread so the coordinator's
    blocking main loop stays untouched.
    """

    def __init__(
        self, coordinator: FabricCoordinator, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.coordinator = coordinator
        self.host = host
        self.port = int(port)
        self._thread: threading.Thread | None = None
        self._loop = None
        self._server = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None

    # -- request handling (runs on the loop thread) ------------------------------------
    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "lease":
            reply = self.coordinator.rpc(request)
            spec = reply.pop("spec", None)
            if spec is not None:
                reply["spec"] = spec.as_dict()
            return reply
        if op == "complete":
            request = dict(request)
            request["result"] = _decode_result(request["result"])
            return self.coordinator.rpc(request)
        return self.coordinator.rpc(request)

    async def _handle(self, reader, writer):
        import asyncio

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    # Shard work is CPU-trivial here (queue ops + merges);
                    # run in the default executor so a large result unpickle
                    # never starves the accept loop.
                    response = await asyncio.get_running_loop().run_in_executor(
                        None, self._dispatch, request
                    )
                except (KeyError, ValueError, TypeError, RuntimeError) as error:
                    response = {"ok": False, "error": f"{type(error).__name__}: {error}"}
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _main(self, started: threading.Event) -> None:
        import asyncio

        self._loop = asyncio.get_running_loop()
        # Completed-shard lines carry base64-pickled accumulators — far past
        # asyncio's default 64 KiB readline limit.
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=1 << 28
        )
        self.port = self._server.sockets[0].getsockname()[1]
        started.set()
        async with self._server:
            with contextlib.suppress(asyncio.CancelledError):
                await asyncio.Event().wait()

    def _thread_main(self) -> None:
        import asyncio

        try:
            asyncio.run(self._main(self._ready))
        except BaseException as error:  # surfaces in start()/stop()
            self._failure = error
            self._ready.set()

    def start(self) -> "FabricServer":
        self._thread = threading.Thread(target=self._thread_main, daemon=True)
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._failure is not None:
            raise RuntimeError(f"fabric server failed to start: {self._failure}")
        if self._server is None:
            raise RuntimeError("fabric server did not come up within 10s")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._cancel_all)
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def _cancel_all(self) -> None:
        import asyncio

        for task in asyncio.all_tasks(self._loop):
            task.cancel()


class FabricClient:
    """Blocking JSON-lines TCP client with retry, backoff + jitter, and timeouts.

    Every RPC is bounded by ``timeout`` (socket-level), so a stalled
    coordinator read raises instead of hanging the worker; transient
    connect/send/recv failures reconnect and retry with exponential backoff
    and multiplicative jitter.  ``complete`` retries are safe: the
    coordinator's first-complete-wins makes re-delivery idempotent.
    Thread-safe (one in-flight RPC at a time).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        retries: int = 5,
        backoff_base: float = 0.1,
        backoff_cap: float = 5.0,
        seed: int | None = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._file = None

    def _connect(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.settimeout(self.timeout)
        self._sock = sock
        self._file = sock.makefile("rwb")

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._file is not None:
            with contextlib.suppress(OSError):
                self._file.close()
            self._file = None
        if self._sock is not None:
            with contextlib.suppress(OSError):
                self._sock.close()
            self._sock = None

    def _backoff(self, attempt: int) -> float:
        # Full-jitter exponential backoff: uniform in (0, base * 2^attempt],
        # capped — avoids thundering-herd re-lease storms after a
        # coordinator hiccup.
        span = min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))
        return span * (0.5 + 0.5 * self._rng.random())

    def rpc(self, request: dict) -> dict:
        if request.get("op") == "complete" and isinstance(
            request.get("result"), ShardResult
        ):
            request = dict(request)
            request["result"] = _encode_result(request["result"])
        line = json.dumps(request).encode() + b"\n"
        last_error: Exception | None = None
        with self._lock:
            for attempt in range(self.retries + 1):
                try:
                    self._connect()
                    self._file.write(line)
                    self._file.flush()
                    reply = self._file.readline()
                    if not reply:
                        raise ConnectionError("coordinator closed the connection")
                    return json.loads(reply)
                except (OSError, ValueError, ConnectionError) as error:
                    last_error = error
                    self._close_locked()
                    if attempt >= self.retries:
                        break
                    time.sleep(self._backoff(attempt))
        raise ConnectionError(
            f"fabric RPC to {self.host}:{self.port} failed after "
            f"{self.retries + 1} attempts: {last_error}"
        )


class _TcpWorkerClient(FabricClient):
    """Worker-facing TCP client that re-hydrates lease specs from JSON."""

    def rpc(self, request: dict) -> dict:
        reply = super().rpc(request)
        spec = reply.get("spec")
        if spec is not None:
            reply["spec"] = ShardSpec.from_dict(spec)
        return reply


def run_shard_worker(
    host: str,
    port: int,
    checkpoint_dir,
    worker: str = "",
    heartbeat_interval: float | None = 5.0,
    timeout: float = 60.0,
    retries: int = 5,
) -> int:
    """Connect to a fabric coordinator and work shards until the sweep ends.

    The entry point behind ``repro shard-worker --connect host:port`` —
    run it on as many machines as you like; every worker needs the same
    code version (checkpoints and specs are pickled/replayed) but rebuilds
    workloads locally from the spec parameters, so no trace data crosses
    the wire.  Returns the number of shards this worker completed.
    """
    client = _TcpWorkerClient(host, port, timeout=timeout, retries=retries)
    name = worker or f"{socket.gethostname()}-{os.getpid()}"
    try:
        return worker_loop(
            client,
            checkpoint_dir,
            worker=name,
            heartbeat_interval=heartbeat_interval,
        )
    finally:
        client.close()


def _spawn_local_tcp_workers(
    port: int, workers: int, checkpoint_dir, heartbeat_interval: float
) -> list:
    """Local worker subprocesses for the TCP-loopback (simulated multi-node) case."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src_root, env.get("PYTHONPATH")) if part
    )
    procs = []
    for index in range(workers):
        procs.append(
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "shard-worker",
                    "--connect",
                    f"127.0.0.1:{port}",
                    "--checkpoint-dir",
                    str(checkpoint_dir),
                    "--worker",
                    f"tcp-{index}",
                    "--heartbeat-interval",
                    str(heartbeat_interval),
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
        )
    return procs


def _run_transport_tcp(
    coordinator: FabricCoordinator, workers: int, heartbeat_interval: float
) -> None:
    server = FabricServer(coordinator).start()
    procs = []
    try:
        procs = _spawn_local_tcp_workers(
            server.port, workers, coordinator.checkpoint_dir, heartbeat_interval
        )
        while not coordinator.done():
            coordinator.queue.expire()
            if all(proc.poll() is not None for proc in procs):
                raise RuntimeError(
                    "all fabric workers exited before the sweep completed"
                )
            time.sleep(0.05)
        for proc in procs:
            with contextlib.suppress(subprocess.TimeoutExpired):
                proc.wait(timeout=5.0)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
                with contextlib.suppress(subprocess.TimeoutExpired):
                    proc.wait(timeout=2.0)
                if proc.poll() is None:
                    proc.kill()
        server.stop()


# -- entry point ------------------------------------------------------------------------


def run_fabric_sweep(
    points: Sequence[SweepPoint],
    workers: int | None = None,
    transport: str = "process",
    policies_per_shard: int = 1,
    chunks_per_slab: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    checkpoint_dir=None,
    lease_timeout: float = _LEASE_TIMEOUT,
    heartbeat_interval: float | None = None,
    straggler_factor: float = _STRAGGLER_FACTOR,
    max_failures: int = _MAX_FAILURES,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    cleanup: bool = True,
) -> list[SweepOutcome]:
    """Run a sweep through the shard fabric; outcomes in input order.

    The distributed counterpart of
    :func:`repro.analysis.parallel.run_sweep` — same points in, same
    outcomes out, and the assembled aggregates are *bit-identical*
    (``StreamResult.digest``) to ``run_sweep(fused=True)`` at any worker
    count, transport and shard order.  ``checkpoint_dir`` must be shared by
    all workers (a local path for local transports, a shared filesystem for
    real multi-node TCP); ``None`` uses a sweep-lifetime temp directory.
    """
    if transport not in TRANSPORTS:
        raise ValueError(f"transport must be one of {TRANSPORTS}, got {transport!r}")
    points = list(points)
    if not points:
        return []
    if workers is None:
        workers = max(1, min(4, os.cpu_count() or 1))
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if heartbeat_interval is None:
        heartbeat_interval = max(0.5, lease_timeout / 3.0)

    with contextlib.ExitStack() as stack:
        if checkpoint_dir is None:
            checkpoint_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-fabric-")
            )
        coordinator = FabricCoordinator(
            points,
            checkpoint_dir,
            policies_per_shard=policies_per_shard,
            chunks_per_slab=chunks_per_slab,
            chunk_size=chunk_size,
            lease_timeout=lease_timeout,
            straggler_factor=straggler_factor,
            max_failures=max_failures,
            checkpoint_every=checkpoint_every,
        )
        if transport == "inprocess":
            _run_transport_inprocess(coordinator, workers)
        elif transport == "process":
            _run_transport_process(coordinator, workers, heartbeat_interval)
        else:
            _run_transport_tcp(coordinator, workers, heartbeat_interval)
        try:
            return coordinator.outcomes()
        finally:
            if cleanup:
                coordinator.cleanup_checkpoints()
