"""Tests for the parallel sweep runner: determinism and worker invariance."""

import dataclasses

import pytest

from repro.analysis.parallel import (
    SweepPoint,
    derive_seed,
    expand_grid,
    run_sweep,
)

# Small enough that the whole module stays in the seconds range even with a
# process pool on a single-core machine.
TINY = dict(rate_per_hour=30.0, duration_days=0.1, servers_per_region=10)


def stable_summary(outcome):
    """Summary without wall-clock fields (decision times vary run to run)."""
    summary = dict(outcome.summary)
    summary.pop("mean_decision_time_s")
    return summary


def tiny_points():
    return expand_grid(
        scheduler=["baseline", "round-robin"],
        delay_tolerance=[0.0, 0.5],
        **TINY,
    )


class TestGridExpansion:
    def test_cross_product_size_and_order_stability(self):
        points = tiny_points()
        assert len(points) == 4
        assert points == tiny_points()  # identical on re-expansion
        assert [ (p.scheduler, p.delay_tolerance) for p in points ] == [
            ("baseline", 0.0), ("baseline", 0.5),
            ("round-robin", 0.0), ("round-robin", 0.5),
        ]

    def test_scalar_values_and_mappings_accepted(self):
        points = expand_grid(
            scheduler="baseline",
            scheduler_kwargs={},
            delay_tolerance=[0.1, 0.2],
            **TINY,
        )
        assert len(points) == 2
        assert all(p.scheduler == "baseline" for p in points)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(TypeError, match="unknown sweep parameters"):
            expand_grid(schedulr=["baseline"])

    def test_invalid_point_values_rejected(self):
        with pytest.raises(ValueError, match="trace_kind"):
            SweepPoint(trace_kind="nonexistent")
        with pytest.raises(ValueError, match="engine"):
            SweepPoint(engine="gpu")

    def test_scenario_trace_kinds_are_valid(self):
        point = SweepPoint(trace_kind="heavy-tail")
        assert point.trace_kind == "heavy-tail"
        assert "heavy-tail" in point.label()

    def test_family_default_rate_only_for_scenarios(self):
        # None = "keep the scenario family's natural rate/length"; the
        # classic generators have no family defaults to fall back to.
        point = SweepPoint(trace_kind="ml-training", rate_per_hour=None, duration_days=None)
        assert "rate=auto" in point.label()
        with pytest.raises(ValueError, match="family default"):
            SweepPoint(trace_kind="borg", rate_per_hour=None)


class TestDeterministicSeeding:
    def test_seed_is_content_based_not_order_based(self):
        a = derive_seed(42, trace_kind="borg", rate_per_hour=30.0, duration_days=0.1)
        b = derive_seed(42, duration_days=0.1, rate_per_hour=30.0, trace_kind="borg")
        assert a == b

    def test_seed_changes_with_workload_and_base(self):
        base = derive_seed(42, trace_kind="borg", rate_per_hour=30.0, duration_days=0.1)
        assert derive_seed(42, trace_kind="borg", rate_per_hour=60.0, duration_days=0.1) != base
        assert derive_seed(42, trace_kind="alibaba", rate_per_hour=30.0, duration_days=0.1) != base
        assert derive_seed(43, trace_kind="borg", rate_per_hour=30.0, duration_days=0.1) != base

    def test_policy_knobs_do_not_change_the_workload(self):
        # Every (scheduler, tolerance) cell of a sweep must replay the SAME
        # jobs against the SAME intensities, or cross-policy savings would
        # compare different workloads.
        points = tiny_points()
        assert len({p.seed for p in points}) == 1
        outcomes = run_sweep(points, executor="serial")
        assert len({o.num_jobs for o in outcomes}) == 1  # literally the same trace
        # Baseline ignores the tolerance, so its two cells are identical runs.
        by_key = {(o.point.scheduler, o.point.delay_tolerance): o for o in outcomes}
        assert (
            by_key[("baseline", 0.0)].total_carbon_g
            == by_key[("baseline", 0.5)].total_carbon_g
        )

    def test_different_workloads_get_distinct_seeds(self):
        points = expand_grid(
            scheduler="baseline",
            rate_per_hour=[20.0, 30.0],
            trace_kind=["borg", "alibaba"],
            duration_days=0.1,
        )
        assert len({p.seed for p in points}) == len(points) == 4

    def test_same_parameters_same_workload_across_grids(self):
        # The same workload parameters get the same seed even when they
        # appear in differently shaped grids or are left at their defaults.
        wide = expand_grid(scheduler=["baseline", "round-robin"], delay_tolerance=[0.0], **TINY)
        narrow = expand_grid(scheduler="baseline", delay_tolerance=[0.0], **TINY)
        assert wide[0].seed == narrow[0].seed
        implicit = expand_grid(scheduler="baseline", delay_tolerance=[0.0])
        explicit = expand_grid(
            scheduler="baseline", delay_tolerance=[0.0],
            trace_kind="borg", rate_per_hour=40.0, duration_days=0.25,
        )
        assert implicit[0].seed == explicit[0].seed


class TestRunSweep:
    def test_serial_results_in_input_order(self):
        points = tiny_points()
        outcomes = run_sweep(points, executor="serial")
        assert [o.point for o in outcomes] == points
        assert all(o.num_jobs > 0 for o in outcomes)
        assert all(o.total_carbon_g > 0.0 for o in outcomes)

    def test_worker_count_invariance_with_threads(self):
        points = tiny_points()
        one = run_sweep(points, workers=1, executor="thread")
        many = run_sweep(points, workers=4, executor="thread")
        assert [stable_summary(o) for o in one] == [stable_summary(o) for o in many]
        assert [o.total_carbon_g for o in one] == [o.total_carbon_g for o in many]
        assert [o.total_water_l for o in one] == [o.total_water_l for o in many]

    def test_worker_count_invariance_with_processes(self):
        # Two points keep the spawn cost tolerable on tiny CI machines while
        # still exercising real cross-process determinism (seeded datasets
        # must not depend on per-process state such as hash randomization).
        points = tiny_points()[:2]
        serial = run_sweep(points, executor="serial")
        procs = run_sweep(points, workers=2, executor="process")
        assert [stable_summary(o) for o in serial] == [stable_summary(o) for o in procs]
        assert [o.total_carbon_g for o in serial] == [o.total_carbon_g for o in procs]

    def test_batch_and_scalar_engines_agree(self):
        # A batch sweep cell against the object-world oracle on the point's
        # own workload and dataset.
        from repro.analysis import parallel
        from repro.schedulers import make_scheduler
        from tests.oracles.simulator import Simulator

        point = expand_grid(scheduler=["baseline"], delay_tolerance=[0.25], **TINY)[0]
        batch_outcome = run_sweep([point], executor="serial")[0]
        source = parallel._point_source(point)
        scalar_outcome = Simulator(
            source.materialize(),
            make_scheduler(point.scheduler),
            dataset=parallel._point_dataset(point, source),
            servers_per_region=point.servers_per_region,
            scheduling_interval_s=point.scheduling_interval_s,
            delay_tolerance=point.delay_tolerance,
        ).run()
        assert batch_outcome.num_jobs == scalar_outcome.num_jobs
        assert batch_outcome.total_carbon_g == pytest.approx(
            scalar_outcome.total_carbon_g, rel=1e-9
        )
        assert batch_outcome.total_water_l == pytest.approx(
            scalar_outcome.total_water_l, rel=1e-9
        )

    def test_stream_engine_agrees_with_batch(self):
        # The bounded-memory sweep cells must report the same figures of
        # merit as the materialized batch cells for the identical workload.
        batch_points = expand_grid(
            scheduler=["baseline", "waterwise"], delay_tolerance=[0.25], **TINY
        )
        stream_points = [dataclasses.replace(p, engine="stream") for p in batch_points]
        for batch_outcome, stream_outcome in zip(
            run_sweep(batch_points, executor="serial"),
            run_sweep(stream_points, executor="serial"),
        ):
            assert stream_outcome.num_jobs == batch_outcome.num_jobs
            assert stream_outcome.total_carbon_g == pytest.approx(
                batch_outcome.total_carbon_g, rel=1e-9
            )
            assert stream_outcome.total_water_l == pytest.approx(
                batch_outcome.total_water_l, rel=1e-9
            )
            assert stream_outcome.mean_service_ratio == pytest.approx(
                batch_outcome.mean_service_ratio, rel=1e-9
            )
            assert stream_outcome.violation_fraction == batch_outcome.violation_fraction

    def test_stream_engine_is_worker_invariant(self):
        points = expand_grid(
            scheduler=["baseline", "round-robin"], delay_tolerance=[0.25],
            engine="stream", **TINY,
        )
        serial = run_sweep(points, executor="serial")
        threaded = run_sweep(points, workers=2, executor="thread")
        assert [stable_summary(o) for o in serial] == [stable_summary(o) for o in threaded]

    def test_validation(self):
        with pytest.raises(ValueError, match="executor"):
            run_sweep([], executor="cluster")
        with pytest.raises(ValueError, match="workers"):
            run_sweep([], workers=0)


class TestWorkloadCacheSafety:
    def test_mixed_workload_thread_sweep_is_deterministic(self):
        # Concurrent cells of *different* workloads share no state: a
        # threaded sweep equals the serial one (a per-worker workload cache
        # once let threads read each other's trace mid-update).
        points = expand_grid(
            scheduler=["baseline", "least-load"],
            trace_kind=["borg", "alibaba", "diurnal"],
            rate_per_hour=30.0, duration_days=0.1, servers_per_region=10,
        )
        serial = run_sweep(points, executor="serial")
        for _ in range(3):
            threaded = run_sweep(points, workers=6, executor="thread")
            assert [stable_summary(o) for o in threaded] == [
                stable_summary(o) for o in serial
            ]


class TestSharedMemoryCleanup:
    """Fused process sweeps must never strand /dev/shm segments."""

    @staticmethod
    def _recording_pack(created):
        from repro.analysis import parallel

        real_pack = parallel.pack_shared_workload

        def spying_pack(source, chunk_size=8192):
            shm, handle = real_pack(source, chunk_size=chunk_size)
            created.append(shm.name)
            return shm, handle

        return spying_pack

    @staticmethod
    def _assert_unlinked(names):
        from multiprocessing import shared_memory

        assert names, "the sweep never reached the shm packing path"
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_failing_cell_leaves_no_stale_segments(self, monkeypatch):
        from repro.analysis import parallel

        # Two fused groups over two distinct workloads so the parent packs
        # shm segments; the second group's policy does not exist, so its
        # worker raises mid-sweep.
        good = expand_grid(
            scheduler=["baseline"], trace_kind="borg",
            rate_per_hour=20.0, duration_days=0.05, servers_per_region=4,
        )
        bad = [dataclasses.replace(good[0], scheduler="no-such-policy",
                                   trace_kind="alibaba")]
        created = []
        monkeypatch.setattr(
            parallel, "pack_shared_workload", self._recording_pack(created)
        )
        with pytest.raises(Exception):
            parallel.run_sweep(
                good + bad, workers=2, executor="process", fused=True
            )
        self._assert_unlinked(created)

    def test_successful_fused_sweep_unlinks_segments(self, monkeypatch):
        from repro.analysis import parallel

        points = expand_grid(
            scheduler=["baseline"], trace_kind=["borg", "alibaba"],
            rate_per_hour=20.0, duration_days=0.05, servers_per_region=4,
        )
        created = []
        monkeypatch.setattr(
            parallel, "pack_shared_workload", self._recording_pack(created)
        )
        outcomes = parallel.run_sweep(
            points, workers=2, executor="process", fused=True
        )
        assert all(o.num_jobs > 0 for o in outcomes)
        self._assert_unlinked(created)

    def test_pack_failure_unlinks_its_own_segment(self, monkeypatch):
        from multiprocessing import shared_memory

        from repro.analysis.parallel import pack_shared_workload
        from repro.traces.borg import BorgTraceGenerator

        class ExplodingSource:
            """Raises from a property read *after* the segment is created."""

            def __init__(self):
                self._inner = BorgTraceGenerator(
                    rate_per_hour=20.0, duration_days=0.02, seed=1
                )
                self.name = "exploding"
                self.seed = 1
                self.label = None

            def iter_chunks(self, chunk_size=None, skip_jobs=0):
                return self._inner.iter_chunks(chunk_size, skip_jobs=skip_jobs)

            @property
            def horizon_s(self):
                raise RuntimeError("metadata read failed")

        created = []
        real_shm = shared_memory.SharedMemory

        def recording_shm(*args, **kwargs):
            shm = real_shm(*args, **kwargs)
            if kwargs.get("create"):
                created.append(shm.name)
            return shm

        monkeypatch.setattr(shared_memory, "SharedMemory", recording_shm)
        with pytest.raises(RuntimeError, match="metadata read failed"):
            pack_shared_workload(ExplodingSource())
        monkeypatch.undo()
        assert len(created) == 1
        with pytest.raises(FileNotFoundError):
            real_shm(name=created[0])
