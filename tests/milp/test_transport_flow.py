"""The min-cost-flow relaxation of capacity-bound placement rounds.

:func:`repro.milp.structure.solve_placement` answers every round whose
per-job argmin overloads a region with a min-cost flow over the region graph
(:func:`repro.milp.structure._transport_flow`).  Hypothesis checks it on
hard and soft forms against exhaustive enumeration, which needs no SciPy,
and against HiGHS on the same LP relaxation, which skips without SciPy.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import WaterWiseConfig
from repro.core.objective import build_placement_form
from repro.milp.session import SolverSession
from repro.milp.status import SolveStatus
from repro.milp.structure import _transport_flow, detect_placement, solve_placement

from .placement_oracles import (
    brute_force,
    effective_cost,
    flow_objective,
    highs_milp,
    highs_relaxation,
    relative_gap,
)

_SETTINGS = dict(max_examples=60, deadline=None)
_REL = 1e-9


@st.composite
def placement_forms(draw, unit_servers=False):
    """Small hard or soft placement forms, mostly with binding capacity."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Coarse costs make ties, which the tie rule must survive.
    cost = rng.integers(0, 6, (m, n)) / 4.0 if draw(st.booleans()) else rng.uniform(0, 2, (m, n))
    latency = rng.uniform(0, 1.2, (m, n))
    tolerance = rng.uniform(0.2, 1.0, m)
    if unit_servers:
        servers = np.ones(m)
    else:
        servers = rng.integers(0, 4, m).astype(float)
    capacity = rng.integers(0, max(2, int(servers.sum())), n).astype(float)
    soft = draw(st.booleans())
    form = build_placement_form(
        cost, latency, tolerance, servers, capacity,
        WaterWiseConfig(penalty_weight=draw(st.sampled_from([0.5, 10.0]))), soft=soft,
    )
    return form, detect_placement(form)


def _argmin_flow(eff_cost, servers, capacity):
    chosen = np.argmin(eff_cost, axis=1)
    loads = np.bincount(chosen, weights=servers, minlength=eff_cost.shape[1])
    return _transport_flow(eff_cost, servers, capacity, chosen, loads)


def _chosen(x, struct):
    m, n = struct.m_jobs, struct.n_regions
    placements = x[: m * n].reshape(m, n)
    assert np.array_equal(placements.sum(axis=1), np.ones(m))
    return np.argmax(placements, axis=1)


class TestAgainstEnumeration:
    @settings(**_SETTINGS)
    @given(placement_forms())
    def test_optimum_and_status_match_brute_force(self, case):
        form, struct = case
        eff_cost, _allowed = effective_cost(struct)
        feasible, best = brute_force(eff_cost, struct.servers, struct.capacity)
        status, x, objective, *_ = solve_placement(form, struct)
        assert (status is SolveStatus.OPTIMAL) == feasible, status
        if not feasible:
            assert status is SolveStatus.INFEASIBLE
            return
        assert relative_gap(objective, best) <= _REL

        chosen = _chosen(x, struct)
        loads = np.bincount(chosen, weights=struct.servers, minlength=struct.n_regions)
        assert (loads <= struct.capacity + 1e-9).all()
        picked = struct.latency_ratio[np.arange(struct.m_jobs), chosen]
        if not struct.soft:
            # Forbidden placements are never used.
            assert (picked <= struct.tolerance + 1e-9).all()

    @settings(**_SETTINGS)
    @given(placement_forms(unit_servers=True))
    def test_unit_server_rounds_never_branch(self, case):
        # With one server per job the flow is a 0/1 assignment: no round
        # falls back to branch & bound.
        form, struct = case
        session = SolverSession()
        solve_placement(form, struct, session=session)
        assert session.stats.structured_bb == 0

    @settings(**_SETTINGS)
    @given(placement_forms())
    def test_flow_respects_capacity_and_forbidden_placements(self, case):
        _form, struct = case
        eff_cost, allowed = effective_cost(struct)
        if not allowed.any(axis=1).all():
            return  # rejected before the flow runs
        flow, _augmentations = _argmin_flow(eff_cost, struct.servers, struct.capacity)
        if flow is None:
            feasible, _best = brute_force(eff_cost, struct.servers, struct.capacity)
            assert not feasible
            return
        loads = np.zeros(struct.n_regions)
        for j, placed in enumerate(flow):
            assert abs(sum(placed.values()) - struct.servers[j]) <= 1e-9
            for region, units in placed.items():
                assert allowed[j, region]
                loads[region] += units
        assert (loads <= struct.capacity + 1e-9).all()

    def test_zero_server_jobs_stay_at_their_argmin(self):
        # Jobs that use no servers never move, however full their region is.
        eff_cost = np.array([[0.0, 3.0], [0.0, 1.0], [0.0, 5.0]])
        servers = np.array([0.0, 1.0, 0.0])
        flow, augmentations = _argmin_flow(eff_cost, servers, np.array([0.0, 1.0]))
        assert flow == [{0: 0.0}, {1: 1.0}, {0: 0.0}]
        assert augmentations == 1

    def test_excess_with_nowhere_to_go_is_infeasible(self):
        eff_cost = np.array([[0.0, np.inf], [0.0, 1.0]])
        flow, _augmentations = _argmin_flow(eff_cost, np.ones(2), np.array([1.0, 0.0]))
        assert flow is None


class TestTieRule:
    def test_equal_cost_moves_take_the_lowest_job_index(self):
        # Two tied groups of moves, each long enough that an unstable sort of
        # the arc heaps could reorder it.
        m = 24
        eff_cost = np.array([[0.0, 2.0 if j % 3 == 0 else 1.0] for j in range(m)])
        flow, _augmentations = _argmin_flow(eff_cost, np.ones(m), np.array([12.0, 24.0]))
        moved = [j for j, placed in enumerate(flow) if placed == {1: 1.0}]
        assert moved == [j for j in range(m) if j % 3][:12]

    def test_equally_short_targets_take_the_lowest_region_index(self):
        eff_cost = np.array([[0.0, 2.0, 1.0, 1.0], [0.0, 5.0, 5.0, 5.0]])
        capacity = np.array([1.0, 1.0, 1.0, 1.0])
        flow, _augmentations = _argmin_flow(eff_cost, np.ones(2), capacity)
        assert flow == [{2: 1.0}, {0: 1.0}]


class TestFractionalFallback:
    @staticmethod
    def _split_case(padding=0):
        # Job 0 (2 servers) can move only one server into region 1; the
        # relaxation splits it (cost 1), the MILP must move job 1 instead
        # (cost 10).  Zero-server padding jobs only grow the form.
        cost = np.array([[0.0, 2.0], [0.0, 10.0]] + [[1.0, 2.0]] * padding)
        servers = np.array([2.0, 1.0] + [0.0] * padding)
        m = len(servers)
        form = build_placement_form(
            cost, np.zeros((m, 2)), np.ones(m), servers, np.array([2.0, 1.0]),
            WaterWiseConfig(),
        )
        return form, detect_placement(form), 10.0 + padding

    def test_split_relaxation_reaches_native_branch_and_bound(self):
        form, struct, expected = self._split_case()
        eff_cost, _allowed = effective_cost(struct)
        flow, _augmentations = _argmin_flow(eff_cost, struct.servers, struct.capacity)
        assert flow[0] == {0: 1.0, 1: 1.0}
        assert flow_objective(eff_cost, struct.servers, flow) == pytest.approx(1.0)

        session = SolverSession()
        status, x, objective, *_ = solve_placement(form, struct, session=session)
        assert status is SolveStatus.OPTIMAL
        assert objective == pytest.approx(expected)
        assert list(_chosen(x, struct)) == [0, 1]
        assert session.stats.structured_lp == session.stats.structured_bb == 1
        assert brute_force(eff_cost, struct.servers, struct.capacity) == (True, expected)

    def test_large_split_round_matches_scipy_milp(self):
        pytest.importorskip("scipy")
        form, struct, expected = self._split_case(padding=30)
        assert form.num_variables > 48
        session = SolverSession()
        status, _x, objective, *_ = solve_placement(form, struct, session=session)
        assert status is SolveStatus.OPTIMAL
        assert session.stats.structured_bb == 1
        eff_cost, _allowed = effective_cost(struct)
        feasible, reference = highs_milp(eff_cost, struct.servers, struct.capacity)
        assert feasible
        assert relative_gap(objective, reference) <= _REL
        assert objective == pytest.approx(expected)

    @settings(**_SETTINGS)
    @given(placement_forms())
    def test_split_rounds_match_scipy_milp(self, case):
        pytest.importorskip("scipy")
        form, struct = case
        session = SolverSession()
        status, _x, objective, *_ = solve_placement(form, struct, session=session)
        if not session.stats.structured_bb:
            return
        eff_cost, _allowed = effective_cost(struct)
        feasible, reference = highs_milp(eff_cost, struct.servers, struct.capacity)
        assert (status is SolveStatus.OPTIMAL) == feasible
        if feasible:
            assert relative_gap(objective, reference) <= _REL


class TestAgainstHighs:
    @settings(**_SETTINGS)
    @given(placement_forms())
    def test_relaxation_objective_and_status_match_highs(self, case):
        pytest.importorskip("scipy")
        _form, struct = case
        eff_cost, allowed = effective_cost(struct)
        if not allowed.any(axis=1).all():
            return  # rejected before the flow runs
        flow, _augmentations = _argmin_flow(eff_cost, struct.servers, struct.capacity)
        feasible, reference = highs_relaxation(eff_cost, struct.servers, struct.capacity)
        assert (flow is not None) == feasible
        if feasible:
            objective = flow_objective(eff_cost, struct.servers, flow)
            assert relative_gap(objective, reference) <= _REL
