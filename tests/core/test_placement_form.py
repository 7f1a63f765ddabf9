"""The array-built placement form: blocks, laziness and memory.

:func:`repro.core.objective.build_placement_form` leaves the constraint
blocks to a CSR recipe that runs only when a backend reads them.  These tests
hold the blocks it produces — CSR and densified — to the dense oracle in
``tests/oracles/placement_form.py`` and to the object model's
``Problem.to_standard_form()``, element by element.
"""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WaterWiseConfig, build_placement_problem
from repro.core.objective import build_placement_form
from repro.milp.solver import solve_standard_form
from repro.milp.sparse import SparseConstraints
from tests.oracles.placement_form import dense_placement_blocks

from .conftest import make_job


def _instance(rng, m_jobs, n_regions):
    cost = rng.uniform(0.0, 2.0, (m_jobs, n_regions))
    latency = rng.uniform(0.0, 1.2, (m_jobs, n_regions))
    # Each job's home region costs no transfer: a zero coefficient.
    latency[np.arange(m_jobs), rng.integers(0, n_regions, m_jobs)] = 0.0
    tolerance = rng.uniform(0.0, 1.0, m_jobs)
    servers = rng.integers(1, 4, m_jobs)
    capacity = rng.integers(0, 3 * m_jobs, n_regions)
    return cost, latency, tolerance, servers, capacity


def _assert_csr_equal(actual, expected):
    assert actual.shape == expected.shape
    for field in ("indptr", "indices", "data"):
        mine, theirs = getattr(actual, field), getattr(expected, field)
        assert mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes()


class TestBlocks:
    @settings(max_examples=60, deadline=None)
    @given(
        m_jobs=st.integers(1, 12),
        n_regions=st.integers(1, 6),
        soft=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_match_the_dense_oracle_byte_for_byte(self, m_jobs, n_regions, soft, seed):
        cost, latency, tolerance, servers, capacity = _instance(
            np.random.default_rng(seed), m_jobs, n_regions
        )
        form = build_placement_form(
            cost, latency, tolerance, servers, capacity, WaterWiseConfig(), soft=soft
        )
        a_ub, a_eq = dense_placement_blocks(latency, servers, soft)
        # CSR first: it must be what the dense blocks would have converted to.
        expected = SparseConstraints.from_arrays(a_ub, a_eq)
        _assert_csr_equal(form.sparse().a_ub, expected.a_ub)
        _assert_csr_equal(form.sparse().a_eq, expected.a_eq)
        for mine, theirs in ((form.a_ub, a_ub), (form.a_eq, a_eq)):
            assert mine.shape == theirs.shape and mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()
        assert form.num_constraints == a_ub.shape[0] + a_eq.shape[0]

    @pytest.mark.parametrize("soft", [False, True])
    def test_equal_the_object_model_element_by_element(self, make_context, soft):
        jobs = [
            make_job(i, region=["zurich", "mumbai", "milan"][i % 3],
                     exec_time=900.0 * (1 + i % 4), servers_required=1 + i % 2)
            for i in range(7)
        ]
        context = make_context(
            capacity={"zurich": 3, "madrid": 5, "oregon": 1, "milan": 4, "mumbai": 2},
            wait_times={0: 120.0, 3: 600.0},
        )
        config = WaterWiseConfig()
        model = build_placement_problem(jobs, context, config, soft=soft)
        reference = model.problem.to_standard_form()

        keys = tuple(context.region_keys)
        transfer = np.array([[context.transfer_time(j, k) for k in keys] for j in jobs])
        exec_times = np.array([j.execution_time for j in jobs])
        waited = np.array([context.wait_time(j) for j in jobs])
        form = build_placement_form(
            model.cost,
            transfer / exec_times[:, None],
            np.maximum(0.0, context.delay_tolerance - waited / exec_times),
            np.array([j.servers_required for j in jobs]),
            np.array([context.capacity[k] for k in keys]),
            config,
            soft=soft,
        )
        for field in ("c", "a_ub", "b_ub", "a_eq", "b_eq", "lower", "upper", "integrality"):
            np.testing.assert_array_equal(getattr(form, field), getattr(reference, field))
        assert form.c0 == reference.c0 and form.maximize == reference.maximize

    def test_structured_solve_builds_no_blocks(self):
        cost, latency, tolerance, servers, capacity = _instance(
            np.random.default_rng(4), 30, 5
        )
        form = build_placement_form(
            cost, latency, tolerance, servers, capacity, WaterWiseConfig(), soft=True
        )
        status, *_rest, used, _seconds = solve_standard_form(form, solver="auto")
        assert status.is_success and used == "structured"
        assert not {"a_ub", "a_eq", "_sparse"} & set(vars(form))

    def test_lazy_form_pickles_and_densifies_after_loading(self):
        cost, latency, tolerance, servers, capacity = _instance(
            np.random.default_rng(5), 4, 3
        )
        form = build_placement_form(
            cost, latency, tolerance, servers, capacity, WaterWiseConfig(), soft=True
        )
        clone = pickle.loads(pickle.dumps(form))
        a_ub, a_eq = dense_placement_blocks(latency, servers, soft=True)
        assert clone.a_ub.tobytes() == a_ub.tobytes()
        assert clone.a_eq.tobytes() == a_eq.tobytes()

    def test_missing_attributes_still_raise(self):
        form = build_placement_form(
            np.ones((1, 2)), np.zeros((1, 2)), np.ones(1), np.ones(1), np.ones(2),
            WaterWiseConfig(),
        )
        with pytest.raises(AttributeError):
            form.not_a_field  # noqa: B018


def test_large_soft_form_stays_small():
    # Dense blocks for M=2000, N=5 in soft mode would take about 640 MB.
    m_jobs, n_regions = 2000, 5
    cost, latency, tolerance, servers, capacity = _instance(
        np.random.default_rng(6), m_jobs, n_regions
    )
    config = WaterWiseConfig()
    tracemalloc.start()
    try:
        form = build_placement_form(
            cost, latency, tolerance, servers, capacity, config, soft=True
        )
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert form.num_variables == 2 * m_jobs * n_regions
    assert form.num_constraints == 2 * m_jobs + n_regions
