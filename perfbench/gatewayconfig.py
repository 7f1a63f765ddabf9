"""Settings shared by the ``gateway-tcp`` server (:mod:`serve`) and its load generator.

Time on the server is a ``WallClock`` running ``CLOCK_RATE`` simulated
seconds per wall second, so the engine's 300 s scheduling round passes every
3.1 ms of wall time; with the 2 ms self-tick, the wait for a round stays well
under the latency limit, so latency measures the program and not the
simulated round cadence.  The cadence is deliberately not a divisor of the
send interval (12.5 ms at the reference rate): with a commensurate one every request
of a run waits the same share of a round, a share fixed at random when the
server starts, and the p50 came out bimodal across runs.

The servers are sized from the recorded trace at the paper's 15%
utilization for the *reference* offered rate: the trace's simulated arrival
rate equals ``REFERENCE_JOBS_PER_S`` wall jobs per second mapped through the
clock rate.  Faster phases therefore load the same cluster harder.

A run offers load in three kinds of phase on one connection, in order: the
open-loop reference rate (the decision latencies), a closed-loop saturation
phase (the jobs per second the server answers when never idle), and an
open-loop bisection of the offered rate around that capacity (the highest
rate that meets the latency limit).
"""

from __future__ import annotations

POLICY = "waterwise"
CLOCK_RATE = 96_774.0
TICK_INTERVAL_S = 0.002
TARGET_UTILIZATION = 0.15
DELAY_TOLERANCE = 0.25

#: Jobs per submitted batch (one request line, one reply line).  Single-job
#: batches give the most latency samples per offered job.
BATCH_JOBS = 1
#: Offered rate at which the decision latencies are reported: under half of
#: the 140-210 jobs/s one server process answers on a 2-core box, so a
#: third slower machine still keeps up.
REFERENCE_JOBS_PER_S = 80.0
#: The latency limit on the tail percentile (see ``benchstats.tail_percentile``).
#: The reference rate's p99 is 10-25 ms, but reached 59 ms while the host
#: stole 6% of the CPU; an overloaded rate's backlog runs to seconds.
LATENCY_LIMIT_MS = 200.0
#: A phase leaves a growing backlog when the median latency of its last
#: quarter exceeds that of its first quarter by more than this.  Over a
#: 1.75 s phase that catches a rate 4% above capacity; host stalls of
#: 20-60 ms make a smaller margin fail sustainable rates at random.
BACKLOG_GROWTH_MS = 50.0
#: Batches sent at the start of every phase and left out of its measures.
WARMUP_BATCHES = 50

#: Measured wall seconds of the closed-loop saturation phase.
SATURATION_S = 3.0
#: Requests the saturation phase keeps in flight.  The server answers the
#: requests of one connection one at a time, so a few queued ones keep it
#: from ever waiting for the client.
SATURATION_WINDOW = 4

#: Bisection of the offered rate, as shares of the saturation throughput.
#: Four halvings of [0.5, 1.25] place the edge within 5% of capacity, and
#: leave the reference rate 15 s of a 25 s run: its p50 spread over 10 runs
#: grows as its share of the run shrinks.
SEARCH_LOW = 0.5
SEARCH_HIGH = 1.25
SEARCH_STEPS = 4
#: Measured wall seconds of each bisection phase.  An overloaded one leaves
#: a backlog of at most a quarter of this, which drains before the next.
SEARCH_PHASE_S = 1.75
#: Wall seconds to wait for the replies of a phase after its last send;
#: later replies count as over the limit.
DRAIN_TIMEOUT_S = 2.0
#: Further wall seconds allowed for an overloaded phase's backlog to drain.
FLUSH_TIMEOUT_S = 20.0

#: Simulated arrival rate of the recorded trace (jobs per simulated hour).
SIM_RATE_PER_HOUR = 3600.0 * REFERENCE_JOBS_PER_S / CLOCK_RATE
#: Recorded trace length: more jobs than one run submits at the top rate.
TRACE_DAYS = 250.0
#: Dataset horizon covering two minutes of served wall time.
SIM_HORIZON_S = 120.0 * CLOCK_RATE


def recorded_source(seed: int):
    """The recorded ``diurnal`` trace the load generator draws its batches from."""
    from repro.traces.scenarios import scenario_source

    return scenario_source(
        "diurnal", seed=seed, rate_per_hour=SIM_RATE_PER_HOUR, duration_days=TRACE_DAYS
    )
