from __future__ import annotations

import json
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeclubs import (
    DayEvent,
    FormationPolicy,
    PreconditionError,
    ScenarioConfig,
    TARGET_FIRST,
    TARGET_STABLE,
    choose_club,
    evaluate_lagged_day,
    find_clubs,
    formation,
    generate_payoff_matrix,
    improving_coalitions,
    is_nash,
    run_formation,
    se_candidates,
    sort_coalitions,
    static_variant,
    terminal_coalitions,
)
from routeclubs.calibration import DEFAULT_GRID
from routeclubs.fixtures import table1_completed
from routeclubs.stability import build_club_graph


@pytest.fixture(scope="module")
def first_club(adaptive_matrix):
    return sort_coalitions(find_clubs(adaptive_matrix, 0))[0]


@pytest.fixture(scope="module")
def days(scenario, adaptive_matrix, first_club):
    policy = FormationPolicy(leader=min(first_club))
    return run_formation(scenario, adaptive_matrix, policy)


class TestChooseClub:
    def test_first_mode_takes_smallest_club_with_leader(self, adaptive_matrix, first_club):
        leader = min(first_club)
        policy = FormationPolicy(leader=leader, target_selection=TARGET_FIRST)
        assert choose_club(adaptive_matrix, policy) == first_club

    def test_leader_outside_every_club_is_an_error(self, adaptive_matrix, first_club):
        outsider = next(p for p in adaptive_matrix.av_ids if p not in first_club)
        policy = FormationPolicy(leader=outsider)
        with pytest.raises(PreconditionError, match="no club contains leader"):
            choose_club(adaptive_matrix, policy)

    def test_stability_mode_on_fixture_falls_back_to_root(self):
        # the stable leaf {0,1,5,6} exists, but player 0 would be worse
        # off there than at the all-on-route-0 action, so the leader
        # settles for the root club
        g = table1_completed()
        policy = FormationPolicy(leader=1, target_selection=TARGET_STABLE)
        assert g.payoff(0, g.indicator({0, 1, 5, 6})) < g.payoff(0, 0)
        assert choose_club(g, policy) == frozenset({1, 5, 6})

    def test_first_mode_on_fixture(self):
        g = table1_completed()
        policy = FormationPolicy(leader=1, target_selection=TARGET_FIRST)
        assert choose_club(g, policy) == frozenset({1, 5, 6})

    def test_stability_mode_takes_qualifying_leaf(self, adaptive_matrix, first_club):
        policy = FormationPolicy(leader=min(first_club), target_selection=TARGET_STABLE)
        chosen = choose_club(adaptive_matrix, policy)
        graph = build_club_graph(adaptive_matrix, first_club)
        candidates = [
            leaf for leaf in sort_coalitions(se_candidates(adaptive_matrix, graph))
            if all(adaptive_matrix.payoff(i, adaptive_matrix.indicator(leaf))
                   > adaptive_matrix.payoff(i, 0) for i in leaf)
        ]
        assert chosen == (candidates[0] if candidates else first_club)


class TestDefaultLeader:
    def test_least_member_of_the_first_club(self):
        # the club of two sorts first; the least member over all clubs is 5
        assert formation.default_leader({frozenset({8, 9}), frozenset({5, 6, 7})}) == 8

    def test_no_club_is_an_error(self):
        with pytest.raises(PreconditionError, match="^no club exists; nothing to form$"):
            formation.default_leader(())


class TestRunFormation:
    def test_day_zero_is_the_equilibrium(self, days):
        assert days[0].day == 0
        assert days[0].action == 0
        assert days[0].event is DayEvent.EQUILIBRIUM

    def test_day_one_club_deviates_under_lagged_plan(self, days, adaptive_matrix, first_club):
        assert days[1].action == adaptive_matrix.indicator(first_club)
        assert days[1].event is DayEvent.CLUB_DEVIATES
        assert days[1].plan == days[0].plan

    def test_day_two_signal_adapts(self, days):
        assert days[2].event is DayEvent.SIGNAL_ADAPTS
        assert days[2].action == days[1].action
        assert days[2].plan != days[1].plan

    def test_club_members_hold_from_day_one(self, days, adaptive_matrix, first_club):
        mask = adaptive_matrix.indicator(first_club)
        for record in days[1:]:
            assert record.action & mask == mask

    def test_plan_always_derives_from_yesterday(self, days, scenario):
        from routeclubs.traffic import signal_plan
        for yesterday, today in zip(days, days[1:]):
            assert today.plan == signal_plan(yesterday.action.bit_count(), scenario.supply_mode)

    def test_switches_strictly_improve_under_the_decision_model(self, days, scenario):
        for yesterday, today in zip(days, days[1:]):
            if today.event is not DayEvent.BEST_RESPONSE:
                continue
            if today.from_route == today.to_route:
                assert today.action == yesterday.action
                continue
            bit = 1 << scenario.av_ids.index(today.player)
            stay = evaluate_lagged_day(scenario, yesterday.action, yesterday.action)
            flip = evaluate_lagged_day(scenario, yesterday.action ^ bit, yesterday.action)
            assert flip.travel_times[today.player] < stay.travel_times[today.player]

    def test_converges_to_restricted_nash(self, days, scenario, adaptive_matrix, first_club):
        assert days[-1].event is DayEvent.CONVERGED
        final = days[-1].action
        for player in adaptive_matrix.av_ids:
            if player in first_club:
                continue
            bit = 1 << adaptive_matrix.bit(player)
            stay = evaluate_lagged_day(scenario, final, final).travel_times[player]
            flip = evaluate_lagged_day(scenario, final ^ bit, final).travel_times[player]
            assert stay <= flip

    def test_converged_action_is_nash_in_the_matrix(self, days, adaptive_matrix):
        assert is_nash(adaptive_matrix, days[-1].action)

    def test_converged_strong_action_would_be_a_candidate_leaf(self, days, adaptive_matrix, first_club):
        final = days[-1].action
        converged = adaptive_matrix.members_of(final)
        graph = build_club_graph(adaptive_matrix, first_club)
        assert converged in terminal_coalitions(graph)
        strong = not improving_coalitions(adaptive_matrix, final)
        assert (converged in se_candidates(adaptive_matrix, graph)) == strong

    def test_truncation_at_max_days(self, scenario, adaptive_matrix, first_club):
        policy = FormationPolicy(leader=min(first_club), max_days=1)
        short = run_formation(scenario, adaptive_matrix, policy)
        assert [r.day for r in short] == [0, 1]
        assert short[-1].event is not DayEvent.CONVERGED

    def test_static_supply_is_rejected(self, scenario, static_matrix, first_club):
        policy = FormationPolicy(leader=min(first_club))
        with pytest.raises(PreconditionError, match="static"):
            run_formation(static_variant(scenario), static_matrix, policy)

    def test_mismatched_matrix_is_rejected(self, scenario, first_club):
        from conftest import random_game
        import random
        policy = FormationPolicy(leader=0)
        with pytest.raises(PreconditionError, match="does not match"):
            run_formation(scenario, random_game(random.Random(1)), policy)

    def test_non_nash_day_zero_is_rejected(self):
        # a DEFAULT_GRID point that calibration's quick check rejects
        cfg = replace(ScenarioConfig(), departure_headway=0.5, free_flow_r1_to_j=21.0,
                      saturation_headway=1.5, signal_offset=0.0)
        g = generate_payoff_matrix(cfg)
        assert not is_nash(g, 0)
        with pytest.raises(PreconditionError,
                           match="^joint action 0000000000 is not a Nash equilibrium$"):
            run_formation(cfg, g, FormationPolicy(leader=0))

    def test_hashless_matrix_is_rejected(self, scenario, adaptive_matrix, first_club):
        policy = FormationPolicy(leader=min(first_club))
        with pytest.raises(PreconditionError, match="does not match the scenario$"):
            run_formation(scenario, replace(adaptive_matrix, scenario_hash=""), policy)

    def test_payoffs_recorded_for_every_player(self, days, scenario):
        for record in days:
            assert len(record.payoffs) == scenario.n_total
            assert all(v <= 0 for v in record.payoffs)


# DEFAULT_GRID points that calibration accepts, besides the canonical one
ACCEPTED_GRID_POINTS = (
    dict(departure_headway=1.0, free_flow_r1_to_j=37.0, saturation_headway=1.5,
         signal_offset=35.5),
    dict(departure_headway=0.5, free_flow_r1_to_j=29.0, saturation_headway=1.5,
         signal_offset=20.5),
    dict(departure_headway=0.75, free_flow_r1_to_j=26.0, saturation_headway=1.5,
         signal_offset=27.5),
)


def all_replays(cfg, g):
    """The replay of every club member as leader, under both policies."""
    leaders = sorted({p for club in find_clubs(g, 0) for p in club})
    return [run_formation(cfg, g, FormationPolicy(leader=leader, target_selection=mode))
            for leader in leaders for mode in (TARGET_FIRST, TARGET_STABLE)]


class TestPricingFromTheMatrix:
    @pytest.fixture(scope="class", params=range(len(ACCEPTED_GRID_POINTS) + 1),
                    ids=["canonical", "grid0", "grid1", "grid2"])
    def replays(self, request, scenario, adaptive_matrix):
        if request.param == 0:
            return scenario, all_replays(scenario, adaptive_matrix)
        cfg = replace(ScenarioConfig(), **ACCEPTED_GRID_POINTS[request.param - 1])
        return cfg, all_replays(cfg, generate_payoff_matrix(cfg))

    def test_payoffs_equal_the_lagged_simulation(self, replays):
        cfg, runs = replays
        for days in runs:
            for yesterday, today in zip([days[0]] + days, days):
                lagged = evaluate_lagged_day(cfg, today.action, yesterday.action)
                assert today.payoffs == tuple(-t for t in lagged.travel_times)

    def test_decisions_follow_the_simulated_stay_and_flip(self, replays):
        cfg, runs = replays
        for days in runs:
            for yesterday, today in zip(days, days[1:]):
                if today.event is not DayEvent.BEST_RESPONSE:
                    continue
                x, bit = yesterday.action, 1 << cfg.av_ids.index(today.player)
                stay = evaluate_lagged_day(cfg, x, x).travel_times[today.player]
                flip = evaluate_lagged_day(cfg, x ^ bit, x).travel_times[today.player]
                assert today.action == (x ^ bit if flip < stay else x)

    def test_one_simulation_per_canonical_replay(self, scenario, adaptive_matrix, monkeypatch):
        calls = []
        original = formation.evaluate_lagged_day
        monkeypatch.setattr(formation, "evaluate_lagged_day",
                            lambda *args: calls.append(args) or original(*args))
        for leader in (7, 8, 9):
            for mode in (TARGET_FIRST, TARGET_STABLE):
                calls.clear()
                days = run_formation(scenario, adaptive_matrix,
                                     FormationPolicy(leader=leader, target_selection=mode))
                # the club's deviation on day 1, under the plan of day 0
                assert calls == [(scenario, days[1].action, 0)]


class TestPolicyValidation:
    def test_unknown_mode(self):
        with pytest.raises(PreconditionError, match="target selection"):
            FormationPolicy(leader=0, target_selection="greedy")

    def test_max_days_must_be_positive(self):
        with pytest.raises(PreconditionError, match="max_days"):
            FormationPolicy(leader=0, max_days=0)


@pytest.fixture(scope="module")
def club_grid_points():
    # the DEFAULT_GRID points with a Nash x0 and a club are the ones perfbench/expected.json
    # records as accepted (verdict "a"), about 6% of the grid
    grid = json.loads((Path(__file__).parents[1] / "perfbench" / "expected.json").read_text())["grid"]
    names = sorted(DEFAULT_GRID)
    points = product(*(DEFAULT_GRID[n] for n in names))
    return [dict(zip(names, p)) for p, verdict in zip(points, grid["verdicts"]) if verdict == "a"]


class TestReplayBound:
    # By the causality law, the club keeps three or more on route 1, so the surge plan
    # holds from day 2 on, only day 1 is simulated, and each free player settles in the
    # first round: one round of moves, one quiet round and four other records at most.
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_replay_converges_fast_on_one_simulation(self, club_grid_points, data):
        cfg = replace(ScenarioConfig(), **data.draw(st.sampled_from(club_grid_points)))
        g = generate_payoff_matrix(cfg)
        calls = []
        original = formation.evaluate_lagged_day
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(formation, "evaluate_lagged_day",
                          lambda *args: calls.append(args) or original(*args))
            runs = all_replays(cfg, g)
        # one simulation per replay: the club's deviation on day 1, under the plan of day 0
        assert runs and calls == [(cfg, days[1].action, 0) for days in runs]
        for days in runs:
            assert days[-1].event is DayEvent.CONVERGED
            assert len(days) <= 4 + 2 * (g.n_av - days[1].action.bit_count())
