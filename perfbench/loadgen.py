"""Load generator for ``gateway-tcp``: one client, one connection.

In an open-loop phase batch ``i`` is due at ``start + i * BATCH_JOBS / rate``
and is sent at its due time whatever the replies are doing; a sender that
falls behind sends at once and its lateness is recorded.  The server answers
the requests of one connection in order, so replies are matched to batches
first in, first out.  Latency runs from a batch's *due* time to its reply,
so a stall also charges the batches queued behind it.  The closed-loop
saturation phase instead sends a batch whenever one of a few in flight is
answered, and counts the jobs answered per second.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import subprocess
import sys
import time

import benchstats
import gatewayconfig as config

HERE = os.path.dirname(os.path.abspath(__file__))


class Phase:
    """One fixed offered rate: what was sent, when it was due, what came back."""

    def __init__(self, rate: float, batches: list[list[dict]], warmup: int) -> None:
        self.rate = rate
        self.batches = batches
        self.warmup = warmup
        self.due: list[float] = []
        self.sent: list[float] = []
        self.replied: list[float | None] = [None] * len(batches)
        self.valid: list[bool] = [False] * len(batches)
        self.gave_up_at = 0.0

    def latencies_ms(self) -> list[float]:
        """Measured batches' latency from due time; failures count as given up."""
        out = []
        for i in range(self.warmup, len(self.batches)):
            end = self.replied[i]
            if end is None or not self.valid[i] or end > self.gave_up_at:
                end = max(self.gave_up_at, self.due[i])
            out.append(1000.0 * (end - self.due[i]))
        return out

    def all_replied(self) -> bool:
        return all(r is not None for r in self.replied)

    def round_trip_total_s(self) -> float:
        """Client round trips of every answered batch, warm-up included."""
        return sum(
            replied - sent for replied, sent in zip(self.replied, self.sent)
            if replied is not None
        )

    def late_ms(self) -> list[float]:
        return [1000.0 * (sent - due) for sent, due in zip(self.sent, self.due)]

    def failed_jobs(self) -> int:
        """Jobs of batches never answered, refused, or not decided exactly once."""
        return sum(len(batch) for batch, ok in zip(self.batches, self.valid) if not ok)

    def jobs(self) -> int:
        return sum(len(batch) for batch in self.batches)

    def throughput_jobs_per_s(self) -> float:
        """Jobs answered per wall second over the measured batches."""
        first = self.warmup
        done = [r for r in self.replied[first:] if r is not None]
        if not done:
            return 0.0
        jobs = sum(len(b) for b, ok in zip(self.batches[first:], self.valid[first:]) if ok)
        return jobs / (max(done) - self.due[first])

    def backlog_growth_ms(self) -> float:
        """Median latency of the last quarter of measured batches minus the first's."""
        latencies = self.latencies_ms()
        quarter = max(1, len(latencies) // 4)
        return statistics.median(latencies[-quarter:]) - statistics.median(latencies[:quarter])

    def sustained(self) -> bool:
        """Every batch answered validly, tail latency within the limit, no growing backlog."""
        _p, tail, _beyond = benchstats.tail_percentile(self.latencies_ms())
        return (
            all(self.valid) and tail <= config.LATENCY_LIMIT_MS
            and self.backlog_growth_ms() <= config.BACKLOG_GROWTH_MS
        )


class Saturation:
    """The closed-loop phase: batches sent as earlier ones are answered."""

    def __init__(self) -> None:
        self.batches: list[list[dict]] = []
        self.replied: list[float] = []
        self.valid: list[bool] = []
        self.warmup = config.WARMUP_BATCHES

    def jobs(self) -> int:
        return sum(len(batch) for batch in self.batches)

    def failed_jobs(self) -> int:
        """Jobs of batches never answered, refused, or not decided exactly once."""
        answered = len(self.valid)
        return (sum(len(b) for b, ok in zip(self.batches, self.valid) if not ok)
                + sum(len(b) for b in self.batches[answered:]))

    def all_replied(self) -> bool:
        return len(self.replied) == len(self.batches)

    def throughput_jobs_per_s(self) -> float:
        """Validly answered jobs per wall second after the warm-up replies."""
        first = self.warmup
        if len(self.replied) <= first + 1:
            return 0.0
        jobs = sum(len(b) for b, ok in zip(self.batches[first + 1:], self.valid[first + 1:])
                   if ok)
        return jobs / (self.replied[-1] - self.replied[first])


class ServerResult:
    """The finalized engine counters a server reports, shaped like a result."""

    def __init__(self, report: dict) -> None:
        self.kernel_stats = report.get("kernel_stats")
        self.solver_stats = report.get("solver_stats")


def phase_batches(rate: float, seconds: float) -> int:
    return config.WARMUP_BATCHES + max(1, round(seconds * rate / config.BATCH_JOBS))


def server_problems(report: dict, submitted: int) -> list[str]:
    """The server decided each submitted job once and holds nothing back."""
    if not report:
        return ["the gateway server sent no final report"]
    stats = report["stats"]
    problems = []
    if not (report["num_jobs"] == stats["decided"] == stats["submitted"] == submitted):
        problems.append(
            f"submitted {submitted} jobs; server saw {stats['submitted']}, decided "
            f"{stats['decided']}, finished {report['num_jobs']}"
        )
    if stats["unclaimed"] or stats["outstanding"]:
        problems.append(
            f"{stats['unclaimed']} unclaimed and {stats['outstanding']} outstanding decisions"
        )
    return problems


def describe(phase: Phase) -> dict:
    latencies = sorted(phase.latencies_ms())
    tail_p, tail, beyond = benchstats.tail_percentile(latencies)
    late = phase.late_ms()
    return {
        "offered_jobs_per_s": phase.rate,
        "batches": len(phase.batches),
        "warmup_excluded": phase.warmup,
        "samples": len(latencies),
        "p50_ms": benchstats.nearest_rank(latencies, 50.0),
        "tail_percentile": tail_p,
        "tail_ms": tail,
        "beyond_tail": beyond,
        "backlog_growth_ms": phase.backlog_growth_ms(),
        "sustained": phase.sustained(),
        "answered_jobs_per_s": phase.throughput_jobs_per_s(),
        "late_mean_ms": sum(late) / len(late),
        "late_max_ms": max(late),
        "failed_jobs": phase.failed_jobs(),
    }


def job_batches(seed: int):
    """Batches of ``BATCH_JOBS`` wire-format jobs, in recorded-trace order."""
    source = config.recorded_source(seed)
    batch: list[dict] = []
    for chunk in source.iter_chunks(4096):
        keys, names = chunk.region_keys, chunk.workload_names
        for i in range(chunk.n):
            batch.append({
                "job_id": int(chunk.job_id[i]),
                "workload": names[int(chunk.workload_idx[i])],
                "home_region": keys[int(chunk.home_idx[i])],
                "execution_time": float(chunk.exec_est[i]),
                "energy_kwh": float(chunk.energy_est[i]),
                "package_gb": float(chunk.package_gb[i]),
                "servers_required": int(chunk.servers[i]),
            })
            if len(batch) == config.BATCH_JOBS:
                yield batch
                batch = []
    raise RuntimeError("the recorded trace ran out of jobs")


def check_reply(batch: list[dict], reply: dict, regions: set[str]) -> bool:
    """Every job of the batch decided exactly once, into a served region."""
    if not reply.get("ok"):
        return False
    decided = [row[0] for row in reply.get("decisions", [])]
    if sorted(decided) != sorted(job["job_id"] for job in batch):
        return False
    return all(row[1] in regions for row in reply["decisions"])


async def run_phase(reader, writer, phase: Phase, regions: set[str]) -> None:
    interval = config.BATCH_JOBS / phase.rate
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.01
    phase.due = [start + i * interval for i in range(len(phase.batches))]

    async def receive() -> None:
        for i, batch in enumerate(phase.batches):
            line = await reader.readline()
            if not line:
                return
            phase.replied[i] = loop.time()
            phase.valid[i] = check_reply(batch, json.loads(line), regions)

    receiver = asyncio.ensure_future(receive())
    for due, batch in zip(phase.due, phase.batches):
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.sent.append(loop.time())
        writer.write(json.dumps({"op": "submit", "jobs": batch}).encode() + b"\n")
    deadline = phase.due[-1] + config.DRAIN_TIMEOUT_S
    done, _pending = await asyncio.wait([receiver], timeout=max(0.0, deadline - loop.time()))
    phase.gave_up_at = loop.time()
    if not done:
        # Past the limit already; let the backlog drain so the server can
        # be shut down cleanly, but these late replies count as over the limit.
        await asyncio.wait([receiver], timeout=config.FLUSH_TIMEOUT_S)
        if not receiver.done():
            receiver.cancel()


def start_server(seed: int, trace: bool, probe: bool = False) -> tuple[subprocess.Popen, dict]:
    command = [sys.executable, os.path.join(HERE, "serve.py"), "--seed", str(seed)]
    if trace:
        command.append("--trace")
    if probe:
        command.append("--probe")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if not line:
        proc.wait(timeout=30)
        raise RuntimeError(f"gateway server exited with code {proc.returncode} before serving")
    return proc, json.loads(line)


def probe_setup_s(seed: int) -> float:
    """Wall seconds from spawning a server to its listening socket."""
    started = time.perf_counter()
    proc, _ready = start_server(seed, trace=False, probe=True)
    elapsed = time.perf_counter() - started
    proc.wait(timeout=30)
    return elapsed


async def run_saturation(reader, writer, batches, regions: set[str],
                         seconds: float) -> Saturation:
    """Keep ``SATURATION_WINDOW`` batches in flight for ``seconds`` after the warm-up."""
    loop = asyncio.get_running_loop()
    saturation = Saturation()
    stop_at = None

    def send() -> None:
        batch = next(batches)
        saturation.batches.append(batch)
        writer.write(json.dumps({"op": "submit", "jobs": batch}).encode() + b"\n")

    for _ in range(config.SATURATION_WINDOW):
        send()
    while len(saturation.replied) < len(saturation.batches):
        try:
            line = await asyncio.wait_for(reader.readline(), timeout=config.DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            return saturation
        if not line:
            return saturation
        now = loop.time()
        batch = saturation.batches[len(saturation.replied)]
        saturation.replied.append(now)
        saturation.valid.append(check_reply(batch, json.loads(line), regions))
        if len(saturation.replied) == saturation.warmup + 1:
            stop_at = now + seconds
        if stop_at is None or now < stop_at:
            send()
    return saturation


class Session:
    """One connection to the server and the recorded batches it sends, in order."""

    def __init__(self, reader, writer, seed: int, regions: set[str]) -> None:
        self.reader = reader
        self.writer = writer
        self.regions = regions
        self.batches = job_batches(seed)
        self.phases: list[Phase] = []
        self.saturation: Saturation | None = None

    def healthy(self) -> bool:
        """Every batch sent so far was answered (well-formed or not)."""
        phases = self.phases + ([self.saturation] if self.saturation else [])
        return all(phase.all_replied() for phase in phases)

    async def open_loop(self, rate: float, seconds: float) -> Phase:
        count = phase_batches(rate, seconds)
        phase = Phase(rate, [next(self.batches) for _ in range(count)], config.WARMUP_BATCHES)
        self.phases.append(phase)
        await run_phase(self.reader, self.writer, phase, self.regions)
        return phase

    async def saturate(self, seconds: float) -> Saturation:
        self.saturation = await run_saturation(
            self.reader, self.writer, self.batches, self.regions, seconds
        )
        return self.saturation

    def jobs(self) -> int:
        return sum(phase.jobs() for phase in self.phases) + (
            self.saturation.jobs() if self.saturation else 0)

    def failed_jobs(self) -> int:
        return sum(phase.failed_jobs() for phase in self.phases) + (
            self.saturation.failed_jobs() if self.saturation else 0)

    def max_sustained_jobs_per_s(self) -> float:
        """The highest offered rate a phase sustained; 0 when none did."""
        return max((phase.rate for phase in self.phases if phase.sustained()), default=0.0)


async def reference_plan(session: Session, seconds: float) -> None:
    """The reference rate alone, for ``seconds`` after its warm-up."""
    await session.open_loop(config.REFERENCE_JOBS_PER_S, max(1.0, seconds))


async def capacity_plan(session: Session, seconds: float) -> None:
    """Reference rate, saturation, then a bisection of the sustainable rate.

    The bisection phases get ``SEARCH_PHASE_S`` each and saturation
    ``SATURATION_S``; the reference rate gets the rest of ``seconds``.
    """
    search_s = config.SEARCH_STEPS * config.SEARCH_PHASE_S
    await reference_plan(session, seconds - config.SATURATION_S - search_s)
    if not session.healthy():
        return
    capacity = (await session.saturate(config.SATURATION_S)).throughput_jobs_per_s()
    if not session.healthy() or capacity <= 0.0:
        return
    low, high = config.SEARCH_LOW * capacity, config.SEARCH_HIGH * capacity
    for _ in range(config.SEARCH_STEPS):
        rate = (low + high) / 2.0
        phase = await session.open_loop(rate, config.SEARCH_PHASE_S)
        if not session.healthy():
            return
        if phase.sustained():
            low = rate
        else:
            high = rate


async def drive(port: int, seed: int, regions: set[str], plan, seconds: float) -> Session:
    """Run ``plan`` over one connection; shut the server down if it kept up."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    session = Session(reader, writer, seed, regions)
    try:
        await plan(session, seconds)
        if session.healthy():
            writer.write(json.dumps({"op": "shutdown"}).encode() + b"\n")
            await writer.drain()
            await asyncio.wait_for(reader.readline(), timeout=30)
    finally:
        writer.close()
    return session


def serve_and_drive(seed: int, plan, seconds: float, trace: bool):
    """Start a server, run ``plan`` against it; ``(session, ready line, server report)``.

    With two or more CPUs the server and this client are pinned to different
    ones, so the load generator never competes with what it measures.
    """
    proc, ready = start_server(seed, trace)
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(proc.pid, {cpus[-1]})
        os.sched_setaffinity(0, {cpus[0]})
    out = ""
    try:
        session = asyncio.run(drive(ready["port"], seed, set(ready["regions"]), plan, seconds))
        if session.healthy():
            out, _ = proc.communicate(timeout=60)
    finally:
        os.sched_setaffinity(0, cpus)
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = [line for line in out.splitlines() if line.strip()]
    report = json.loads(lines[-1]) if lines else {}
    return session, ready, report
