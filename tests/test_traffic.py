from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from routeclubs import (
    ScenarioConfig,
    SignalPlan,
    evaluate_lagged_day,
    find_clubs,
    generate_payoff_matrix,
    improving_coalitions,
    is_nash,
    is_strong,
    signal_plan,
    simulate,
    static_variant,
)
from routeclubs import traffic
from routeclubs.errors import PreconditionError
from routeclubs.game import MAX_AV_PLAYERS
from routeclubs.calibration import _x0_quick_nash
from routeclubs.traffic import lead_vehicle_time, scenario_hash


def single_vehicle_config(**overrides):
    params = dict(n_total=1, av_ids=(0,), departure_headway=2.0,
                  free_flow_r0_to_j=20.0, free_flow_r1_to_j=30.0,
                  free_flow_j_to_b=5.0, saturation_headway=2.0)
    params.update(overrides)
    return ScenarioConfig(**params)


@st.composite
def scenarios(draw):
    """Small scenarios with shuffled ids, awkward quanta and both supply modes."""
    n_total = draw(st.integers(1, 8), label="n_total")
    players = draw(st.permutations(range(n_total)), label="players")
    av_ids = tuple(players[:draw(st.integers(1, n_total), label="n_av")])
    r0 = draw(st.sampled_from((5.0, 20.0, 22.5)), label="r0")
    return ScenarioConfig(
        n_total=n_total,
        av_ids=av_ids,
        departure_headway=draw(st.sampled_from((0.5, 0.75, 1.0, 2.0, 3.0, 7.3))),
        free_flow_r0_to_j=r0,
        free_flow_r1_to_j=r0 + draw(st.sampled_from((0.5, 1.0, 10.0, 18.0))),
        free_flow_j_to_b=draw(st.sampled_from((0.1, 5.0))),
        saturation_headway=draw(st.sampled_from((1.5, 2.0, 4.0))),
        payoff_quantum=draw(st.sampled_from((0.1, 0.3, 0.5, 1.0, 2.5, 10.0))),
        supply_mode=draw(st.sampled_from(("static", "adaptive"))),
        signal_offset=draw(st.floats(0.0, 60.0)),
        human_slot_period=draw(st.integers(1, 4), label="human_slot_period"),
    )


class TestSignalPlan:
    def test_adaptive_base_split_below_threshold(self):
        plan = signal_plan(0, "adaptive")
        assert (plan.green_west, plan.green_south) == (21.0, 19.0)
        assert signal_plan(2, "adaptive").green_south == 19.0

    def test_adaptive_surge_at_threshold(self):
        plan = signal_plan(3, "adaptive")
        assert (plan.green_west, plan.green_south) == (9.0, 31.0)

    def test_static_ignores_demand(self):
        plan = signal_plan(10, "static")
        assert (plan.green_west, plan.green_south) == (21.0, 19.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            signal_plan(-1, "adaptive")

    @pytest.mark.parametrize("mode", ["static", "adaptive"])
    def test_config_plan_counts_route_1_bits(self, mode):
        cfg = replace(ScenarioConfig(), supply_mode=mode)
        for action in (0, 0b1, 0b11, 0b111, 0b1011000000, 1023):
            assert cfg.plan(action) == signal_plan(action.bit_count(), mode)

    def test_splits_fill_the_cycle(self):
        for demand in range(6):
            plan = signal_plan(demand, "adaptive")
            assert plan.green_west + plan.green_south + 2 * plan.intergreen == plan.cycle

    def test_built_plan_must_fill_the_fixed_cycle(self):
        assert (SignalPlan(30.0, 10.0).cycle, SignalPlan(30.0, 10.0).intergreen) == (50.0, 5.0)
        with pytest.raises(ValueError, match="fill the cycle"):
            SignalPlan(21.0, 20.0)
        with pytest.raises(TypeError):  # the cycle and intergreens are constants
            SignalPlan(21.0, 19.0, 60.0)


class TestScenarioConfig:
    def test_default_interleave_every_third_departure_human(self):
        order = [player for player, _, _ in ScenarioConfig().schedule]
        human_slots = [slot for slot, player in enumerate(order) if player >= 10]
        assert human_slots == [2, 5, 8, 11, 14]
        assert [p for p in order if p < 10] == list(range(10))

    def test_route_one_must_be_longer(self):
        with pytest.raises(ValueError, match="longer"):
            ScenarioConfig(free_flow_r0_to_j=30.0, free_flow_r1_to_j=30.0)

    def test_av_ids_must_be_in_range(self):
        with pytest.raises(ValueError, match="av_ids"):
            ScenarioConfig(av_ids=(0, 99))


class TestSimulate:
    def test_single_vehicle_green_on_arrival(self):
        cfg = single_vehicle_config(signal_offset=10.0)
        plan = signal_plan(0, "adaptive")
        out = simulate(cfg, 0, plan)
        assert out.travel_times == (25.0,)
        assert oracle.simulate(cfg, 0, plan) == ((25.0,), (1, 0), (25.0, None))

    def test_single_vehicle_arriving_as_red_starts(self):
        # stop line reached exactly when the west green ends: wait the
        # full red, 5 + 19 + 5 seconds
        cfg = single_vehicle_config(signal_offset=49.0)
        plan = signal_plan(0, "adaptive")
        out = simulate(cfg, 0, plan)
        assert out.travel_times == (25.0 + 5 + 19 + 5,)

    def test_travel_time_never_below_free_flow(self, scenario, adaptive_matrix):
        plan = signal_plan(0, scenario.supply_mode)
        for action in (0, 1, 7, 1023):
            out = simulate(scenario, action, signal_plan(action.bit_count(), "adaptive"))
            for player, t in enumerate(out.travel_times):
                on_route1 = player in scenario.av_ids and \
                    action >> scenario.av_ids.index(player) & 1
                free_flow = (scenario.free_flow_r1_to_j if on_route1
                             else scenario.free_flow_r0_to_j) + scenario.free_flow_j_to_b
                assert t >= free_flow

    def test_fifo_exit_order_per_route(self, scenario):
        plan = signal_plan(3, "adaptive")
        for action in (0, 7, 21, 1023):
            out = simulate(scenario, action, plan)
            departures = {player: t for player, t, _ in scenario.schedule}
            for r in (0, 1):
                on_route = [p for p in range(scenario.n_total)
                            if (p in scenario.av_ids
                                and action >> scenario.av_ids.index(p) & 1) == bool(r)]
                on_route.sort(key=lambda p: departures[p])
                exits = [departures[p] + out.travel_times[p] for p in on_route]
                assert exits == sorted(exits)

    def test_deterministic(self, scenario):
        plan = signal_plan(5, "adaptive")
        assert simulate(scenario, 37, plan) == simulate(scenario, 37, plan)

    def test_conservation(self, scenario):
        plan = signal_plan(9, "adaptive")
        out = simulate(scenario, 511, plan)
        times, counts, _ = oracle.simulate(scenario, 511, plan)
        assert len(out.travel_times) == scenario.n_total
        assert out.travel_times == times
        assert sum(counts) == scenario.n_total

    def test_quantization(self):
        cfg = single_vehicle_config(payoff_quantum=10.0, signal_offset=49.0)
        out = simulate(cfg, 0, signal_plan(0, "adaptive"))
        assert out.travel_times[0] % 10.0 == 0.0

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, data):
        cfg = data.draw(scenarios(), label="cfg")
        plan = signal_plan(data.draw(st.integers(0, 4), label="demand"),
                           data.draw(st.sampled_from(("static", "adaptive")), label="mode"))
        action = data.draw(st.integers(0, (1 << cfg.n_av) - 1), label="action")
        out = simulate(cfg, action, plan)
        times, counts, means = oracle.simulate(cfg, action, plan)
        assert out.travel_times == times
        # the package keeps no per-route aggregates; derive them from its times
        route1 = {p for k, p in enumerate(cfg.av_ids) if action >> k & 1}
        assert counts == (cfg.n_total - len(route1), len(route1))
        for r, (count, mean) in enumerate(zip(counts, means)):
            total = sum(t for p, t in enumerate(out.travel_times) if (p in route1) == r)
            assert mean == (total / count if count else None)

    def test_dropped_config_is_collected(self):
        # the departure schedule lives on the config, not in a cache that pins it
        cfg = ScenarioConfig()
        simulate(cfg, 5, signal_plan(2, cfg.supply_mode))
        alive = weakref.ref(cfg)
        del cfg
        gc.collect()
        assert alive() is None

    def test_queue_builds_from_first_to_last_departure(self, scenario):
        out = simulate(scenario, 0, signal_plan(0, scenario.supply_mode))
        departures = {player: t for player, t, _ in scenario.schedule}
        order = sorted(range(scenario.n_total), key=lambda p: departures[p])
        assert out.travel_times[order[0]] < out.travel_times[order[-1]]


class TestLeadVehicleTime:
    # the green windows lie more than an intergreen apart, so the two routes
    # can tie only at a coarser quantum: here both take 40 s, and x0 is Nash
    @example(single_vehicle_config(payoff_quantum=10.0, signal_offset=36.0))
    @given(scenarios())
    @settings(max_examples=150, deadline=None)
    def test_is_the_solo_flip_time_and_decides_x0(self, cfg):
        for player, departure, bit in cfg.schedule:
            if bit >= 0:
                plan = cfg.plan(1 << bit)
                solo = simulate(cfg, 1 << bit, plan).travel_times[player]
                assert lead_vehicle_time(cfg, departure, plan) == solo
        assert _x0_quick_nash(cfg) == is_nash(generate_payoff_matrix(cfg), 0)


class TestCausality:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_first_mover_of_a_coalition_gets_its_solo_flip_payoff(self, data):
        # a vehicle's time depends only on its route, the plan and the routes
        # of earlier departures; so when y = x ^ 1_C and x ^ 1_k share a plan,
        # C's first-departing member k is paid the same at both
        cfg = data.draw(scenarios(), label="cfg")
        g = generate_payoff_matrix(cfg)
        departs = {player: t for player, t, _ in cfg.schedule}
        x = data.draw(st.integers(0, (1 << cfg.n_av) - 1), label="x")
        for coalition in range(1, 1 << cfg.n_av):
            k = min(g.members_of(coalition), key=departs.__getitem__)
            y, solo = x ^ coalition, x ^ 1 << g.bit(k)
            if cfg.plan(y) == cfg.plan(solo):
                assert g.entries[y][k] == g.entries[solo][k], (x, coalition)


class TestGeneratePayoffMatrix:
    def test_complete_1024_actions(self, adaptive_matrix):
        assert len(adaptive_matrix.entries) == 1024
        assert adaptive_matrix.complete
        assert adaptive_matrix.n_players == 15

    def test_static_x0_is_strong(self, static_matrix):
        assert is_strong(static_matrix, 0)
        assert improving_coalitions(static_matrix, 0) == frozenset()

    def test_adaptive_x0_nash_optimal_with_clubs(self, scenario, adaptive_matrix):
        g = adaptive_matrix
        assert is_nash(g, 0)
        av_total = {a: sum(g.av_payoffs(a)) for a in g.actions()}
        assert av_total[0] == max(av_total.values())
        clubs = find_clubs(g, 0)
        assert clubs and any(2 <= len(c) <= 4 for c in clubs)

    def test_cap_refuses_blowup(self, scenario, monkeypatch):
        n = MAX_AV_PLAYERS + 1
        cap = (rf"^{n} strategic players span 2\*\*{n} joint actions, "
               rf"over the cap of {MAX_AV_PLAYERS} strategic players$")
        wide = replace(scenario, n_total=n + 4, av_ids=tuple(range(n)))

        def no_simulation(*args):
            raise AssertionError("simulated past the cap")

        monkeypatch.setattr(traffic, "simulate", no_simulation)
        with pytest.raises(PreconditionError, match=cap):
            generate_payoff_matrix(wide)

    def test_metadata(self, scenario, adaptive_matrix):
        assert adaptive_matrix.supply_mode == "adaptive"
        assert adaptive_matrix.quantum == scenario.payoff_quantum
        assert adaptive_matrix.scenario_hash == scenario_hash(scenario)


class TestStaticMonotonicity:
    def test_one_more_vehicle_never_speeds_incumbents(self, scenario):
        # over every single-bit pair (x, y = x | bit): y adds the flipped
        # player to route 1, equivalently x adds it to route 0; incumbents
        # of the receiving route must not get faster
        cfg = static_variant(scenario)
        plan = signal_plan(0, "static")
        tts = [simulate(cfg, a, plan).travel_times for a in range(1024)]
        bit_of = {p: k for k, p in enumerate(cfg.av_ids)}
        for x in range(1024):
            for k in range(10):
                if x >> k & 1:
                    continue
                y = x | 1 << k
                joiner = cfg.av_ids[k]
                for p in range(cfg.n_total):
                    if p == joiner:
                        continue
                    on_route1 = p in bit_of and x >> bit_of[p] & 1
                    if on_route1:
                        assert tts[y][p] >= tts[x][p]
                    else:
                        assert tts[x][p] >= tts[y][p]


class TestFifoViolationUnderAdaptation:
    def test_three_deviators_beat_a_lone_one_for_someone(self, scenario):
        cfg = scenario
        witnesses = []
        for k in range(10):
            solo = evaluate_lagged_day(cfg, 1 << k, 1 << k).travel_times
            for j1 in range(10):
                for j2 in range(j1 + 1, 10):
                    if k in (j1, j2):
                        continue
                    trio = 1 << k | 1 << j1 | 1 << j2
                    tts = evaluate_lagged_day(cfg, trio, trio).travel_times
                    player = cfg.av_ids[k]
                    if tts[player] < solo[player]:
                        witnesses.append((player, solo[player], tts[player]))
        assert witnesses, "adaptation should let a fuller route 1 run faster"


class TestLaggedDay:
    def test_club_deviates_before_the_light_adapts(self, scenario, adaptive_matrix):
        club = next(iter(find_clubs(adaptive_matrix, 0)))
        x1 = adaptive_matrix.indicator(club)
        lagged = evaluate_lagged_day(scenario, x1, 0)
        steady = evaluate_lagged_day(scenario, x1, x1)
        assert lagged != steady

    def test_steady_state_uses_surge_plan(self, scenario):
        x = 0b111
        steady = evaluate_lagged_day(scenario, x, x)
        direct = simulate(scenario, x, signal_plan(3, "adaptive"))
        assert steady == direct

    def test_empty_history_keeps_base_plan(self, scenario):
        lagged = evaluate_lagged_day(scenario, 0, 0)
        static = simulate(static_variant(scenario), 0, signal_plan(0, "static"))
        assert lagged.travel_times == static.travel_times
