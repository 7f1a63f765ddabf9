"""Replay every capacity-bound WaterWise round against HiGHS.

Two short diurnal WaterWise streams run with the min-cost-flow relaxation in
place: one at the paper's 15% utilization, and one overloaded at 60 servers
per region, where the slack manager sheds load and rounds turn soft.  Every
round whose per-job argmin overloads a region is captured, and its flow
objective must equal HiGHS's LP optimum on the same relaxation within 1e-9
relative, with the same feasibility verdict.
"""

import pytest

from repro.cluster.capacity import servers_for_target_utilization
from repro.cluster.multi import MultiPolicyRunner
from repro.core import fastpath
from repro.milp import solver, structure
from repro.schedulers import make_scheduler
from repro.sustainability.datasets import ElectricityMapsLikeProvider
from repro.traces.scenarios import scenario_source

from ..milp.placement_oracles import flow_objective, highs_relaxation, relative_gap

pytest.importorskip("scipy")


def _capacity_bound_rounds(monkeypatch, days: float, servers_per_region: int | None):
    """``(eff_cost, servers, capacity, flow, soft)`` of every capacity-bound
    round, and how many rounds the slack manager shed load in."""
    rounds = []
    slack_rounds = []
    admit = fastpath.admit_ranked

    def counting_admit(*args, **kwargs):
        slack_rounds.append(1)
        return admit(*args, **kwargs)

    monkeypatch.setattr(fastpath, "admit_ranked", counting_admit)
    flow_of = structure._transport_flow
    solve = solver.solve_placement

    def recording_flow(eff_cost, servers, capacity, chosen, loads):
        flow, augmentations = flow_of(eff_cost, servers, capacity, chosen, loads)
        rounds.append([eff_cost.copy(), servers.copy(), capacity.copy(), flow, None])
        return flow, augmentations

    def tagging_solve(form, struct, **kwargs):
        seen = len(rounds)
        result = solve(form, struct, **kwargs)
        for record in rounds[seen:]:
            record[4] = struct.soft
        return result

    monkeypatch.setattr(structure, "_transport_flow", recording_flow)
    monkeypatch.setattr(solver, "solve_placement", tagging_solve)

    source = scenario_source("diurnal", seed=3, rate_per_hour=1400.0, duration_days=days)
    dataset = ElectricityMapsLikeProvider(horizon_hours=72, seed=3)
    if servers_per_region is None:
        servers_per_region = servers_for_target_utilization(
            source, dataset.region_keys, target_utilization=0.15
        )
    runner = MultiPolicyRunner(
        source, [("waterwise", make_scheduler("waterwise"))], dataset=dataset,
        servers_per_region=servers_per_region, delay_tolerance=0.25,
    )
    result = runner.run()["waterwise"]
    assert result.solver_stats["structured_lp"] == len(rounds)
    assert result.solver_stats["structured_bb"] == 0
    return rounds, len(slack_rounds)


def _assert_flow_matches_highs(rounds):
    for eff_cost, servers, capacity, flow, _soft in rounds:
        feasible, reference = highs_relaxation(eff_cost, servers, capacity)
        assert (flow is not None) == feasible
        if feasible:
            objective = flow_objective(eff_cost, servers, flow)
            assert relative_gap(objective, reference) <= 1e-9, (objective, reference)


def test_paper_utilization_rounds_match_highs(monkeypatch):
    rounds, _slack_rounds = _capacity_bound_rounds(
        monkeypatch, days=0.3, servers_per_region=None
    )
    assert len(rounds) >= 10
    _assert_flow_matches_highs(rounds)


def test_overloaded_soft_and_slack_rounds_match_highs(monkeypatch):
    rounds, slack_rounds = _capacity_bound_rounds(monkeypatch, days=0.6, servers_per_region=60)
    assert slack_rounds >= 10
    assert sum(1 for record in rounds if record[4]) >= 10, "no soft rounds were replayed"
    assert sum(1 for record in rounds if not record[4]) >= 10
    _assert_flow_matches_highs(rounds)
