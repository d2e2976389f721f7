"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion. Criterion 5 pins the strong-action count of the calibrated
adaptive matrix exactly: it must equal the naive oracle's count and the
``strong_actions`` recorded in the bundled calibration report. Under the
point-queue kernel that count is zero (README, "Known limitation");
criterion 3 covers the strong equilibrium that static supply delivers.
"""

from __future__ import annotations

import csv
import json
import random
import time
from contextlib import contextmanager
from importlib import resources

import pytest

import oracle
from conftest import random_game
from routeclubs import (
    EquilibriumTag,
    build_club_graph,
    classify_all,
    export_scatter,
    find_clubs,
    generate_payoff_matrix,
    improving_coalitions,
    is_internally_stable,
    is_nash,
    is_strong,
    joiners,
    load_matrix,
    run_formation,
    save_matrix,
    se_candidates,
    terminal_coalitions,
)
from routeclubs.fixtures import TABLE1_ROW_MEANS, table1_completed, table1_partial
from routeclubs.formation import DayEvent, FormationPolicy
from routeclubs.traffic import signal_plan, simulate, static_variant


@contextmanager
def criterion(number: int, title: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {title}: FAIL "
              f"({time.perf_counter() - started:.2f}s)")
        raise
    print(f"[criterion {number}] {title}: PASS "
          f"({time.perf_counter() - started:.2f}s)")


def test_criterion_1_golden_fixture():
    with criterion(1, "bundled partial fixture reproduces the club arithmetic"):
        started = time.perf_counter()
        g = table1_partial()

        # (a) joint deviation of {1,5,6} strictly helps every member
        club = g.indicator({1, 5, 6})
        assert (g.payoff(1, 0), g.payoff(1, club)) == (-58, -52)
        assert (g.payoff(5, 0), g.payoff(5, club)) == (-59, -52)
        assert (g.payoff(6, 0), g.payoff(6, club)) == (-59, -57)

        # (b) exactly players 0 and 7 want to join
        assert joiners(g, {1, 5, 6}) == {0, 7}

        # (c) the five-member extension is internally unstable via player 7
        assert not is_internally_stable(g, {0, 1, 5, 6, 7})
        assert g.payoff(7, g.indicator({0, 1, 5, 6, 7})) == -71
        assert g.payoff(7, g.indicator({0, 1, 5, 6})) == -60

        # (d) recorded row means over all ten strategic players
        expected = {"00000": -48.3, "01110": -56.6, "01111": -55.8,
                    "11111": -55.1, "11110": -54.4}
        for action_string, mean in expected.items():
            assert abs(TABLE1_ROW_MEANS[action_string] - mean) <= 0.05

        assert time.perf_counter() - started < 1.0


def test_criterion_2_club_graph_reproduction():
    with criterion(2, "club graph shows two leaves, one strong, one unstable"):
        started = time.perf_counter()
        g = table1_completed()
        graph = build_club_graph(g, {1, 5, 6})
        leaves = terminal_coalitions(graph)
        assert len(leaves) == 2

        stable_leaf = frozenset({0, 1, 5, 6})
        unstable_leaf = frozenset({0, 1, 5, 6, 7})
        assert leaves == {stable_leaf, unstable_leaf}
        assert graph.nodes[stable_leaf].is_nash_state
        assert graph.nodes[unstable_leaf].internally_stable is False
        assert se_candidates(g, graph) == {stable_leaf}

        assert time.perf_counter() - started < 1.0


def test_criterion_3_static_supply_is_strong(scenario):
    with criterion(3, "static supply leaves the all-on-route-0 action strong"):
        started = time.perf_counter()
        g = generate_payoff_matrix(static_variant(scenario))
        assert len(g.entries) == 1024
        assert improving_coalitions(g, 0) == frozenset()
        assert is_strong(g, 0)
        assert time.perf_counter() - started < 10.0


def test_criterion_4_emergence_under_adaptation(scenario, adaptive_matrix):
    with criterion(4, "adaptive supply: equilibrium, optimality, clubs, convergence"):
        g = adaptive_matrix
        assert is_nash(g, 0)

        # total payoff of the strategic players is maximized at the
        # all-on-route-0 action
        av_totals = {a: sum(g.av_payoffs(a)) for a in g.actions()}
        assert av_totals[0] == max(av_totals.values())

        clubs = find_clubs(g, 0)
        assert clubs
        assert any(2 <= len(c) <= 4 for c in clubs)

        leader = min(min(c) for c in clubs)
        days = run_formation(scenario, g, FormationPolicy(leader=leader))
        assert days[-1].event is DayEvent.CONVERGED
        assert is_nash(g, days[-1].action)


def test_criterion_5_full_classification(adaptive_matrix, static_matrix, tmp_path):
    with criterion(5, "full classification, scatter export, strong action count"):
        started = time.perf_counter()
        g = adaptive_matrix
        classification = classify_all(g)
        assert len(classification) == 1024

        csv_path = tmp_path / "scatter.csv"
        export_scatter(g, classification, csv_path)
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1024
        assert time.perf_counter() - started < 60.0

        strong = {a for a, c in classification.items()
                  if c.tag is EquilibriumTag.STRONG_NASH}
        print(f"[criterion 5] strong action count: {len(strong)}")

        # strong implies Nash, so the slow coalition search of the oracle
        # only needs to run on the oracle's Nash actions
        oracle_nash = {x for x in g.actions() if oracle.nash(g, x)}
        oracle_strong = {x for x in oracle_nash if oracle.strong(g, x)}
        for action, cls in classification.items():
            assert (cls.tag is not EquilibriumTag.NOT_NASH) == (action in oracle_nash), (
                f"action {g.action_string(action)} is tagged {cls.tag.value}, "
                f"but the oracle's Nash verdict is {action in oracle_nash}")
        assert strong == oracle_strong, (
            f"classify_all tags {sorted(map(g.action_string, strong))} "
            f"STRONG_NASH, the oracle finds "
            f"{sorted(map(g.action_string, oracle_strong))}")

        # the calibration search records the strong actions of the frozen
        # scenario through is_nash/is_strong, a code path of its own
        report = json.loads(resources.files("routeclubs.data")
                            .joinpath("calibration_report.json").read_text())
        assert strong == set(report["strong_actions"]), (
            f"strong action count {len(strong)} differs from the "
            f"{len(report['strong_actions'])} recorded in "
            "src/routeclubs/data/calibration_report.json; the README section "
            "'Known limitation' explains why the point-queue kernel yields "
            "none, and re-freezing the calibration records a new count")

        for row in rows:
            action = g.parse_action(row["action"])
            assert row["class"] == classification[action].tag.value, (
                f"scatter row {row['action']} has class {row['class']}")

        # the zero count above is meaningful only if classify_all can emit
        # STRONG_NASH at all: static supply makes the all-on-route-0
        # action strong
        assert classify_all(static_matrix)[0].tag is EquilibriumTag.STRONG_NASH, (
            "classify_all does not tag the all-on-route-0 action of the "
            "static-supply matrix STRONG_NASH (criterion 3 shows it is strong)")


def test_criterion_6_oracle_equivalence():
    with criterion(6, "1000 random games match the naive oracle exactly"):
        rng = random.Random(20260808)
        graphs_checked = 0
        for index in range(1000):
            g = random_game(rng, with_humans=index % 3 == 0)
            n_actions = 1 << g.n_av
            for x in range(n_actions):
                assert improving_coalitions(g, x) == oracle.improving(g, x)
                assert is_nash(g, x) == oracle.nash(g, x)
                assert is_strong(g, x) == oracle.strong(g, x)
            if index % 5 == 0:
                root = frozenset(rng.sample(sorted(g.av_ids),
                                            rng.randint(1, g.n_av - 1)))
                graph = build_club_graph(g, root)
                nodes, edges = oracle.closure(g, root)
                assert set(graph.nodes) == nodes
                assert set(graph.edges) == edges
                assert terminal_coalitions(graph) == oracle.leaf_set(g, root)
                graphs_checked += 1
        assert graphs_checked >= 200


def test_criterion_7_invariant_suite(scenario, adaptive_matrix, static_matrix, tmp_path):
    with criterion(7, "cross-cutting invariants"):
        rng = random.Random(7777)

        # strong implies Nash on every matrix we touch
        for g in (adaptive_matrix, static_matrix, table1_completed()):
            for x in rng.sample(range(1 << g.n_av), min(40, 1 << g.n_av)):
                if is_strong(g, x):
                    assert is_nash(g, x)
        for _ in range(50):
            g = random_game(rng)
            for x in range(1 << g.n_av):
                if is_strong(g, x):
                    assert is_nash(g, x)

        # deviating twice restores the action and touches only the members
        g = adaptive_matrix
        for _ in range(500):
            action = rng.randrange(1024)
            members = set(rng.sample(g.av_ids, rng.randint(1, 4)))
            once = action ^ g.indicator(members)
            assert once ^ g.indicator(members) == action
            assert all(once >> b & 1 == action >> b & 1
                       for b in range(10) if g.av_ids[b] not in members)

        # positive affine rescaling never changes the classification
        from routeclubs import PayoffMatrix
        for _ in range(20):
            g = random_game(rng)
            rescaled = PayoffMatrix(
                n_players=g.n_players, av_ids=g.av_ids,
                entries={a: tuple(2.5 * v - 7.0 for v in row)
                         for a, row in g.entries.items()})
            assert classify_all(g) == classify_all(rescaled)

        # static congestion monotonicity over every single-bit pair
        cfg = static_variant(scenario)
        plan = signal_plan(0, "static")
        tts = [simulate(cfg, a, plan).travel_times for a in range(1024)]
        bit_of = {p: k for k, p in enumerate(cfg.av_ids)}
        for x in range(1024):
            for k in range(10):
                if x >> k & 1:
                    continue
                y = x | 1 << k
                for p in range(cfg.n_total):
                    if p == cfg.av_ids[k]:
                        continue
                    if p in bit_of and x >> bit_of[p] & 1:
                        assert tts[y][p] >= tts[x][p]
                    else:
                        assert tts[x][p] >= tts[y][p]

        # adaptation must admit a faster-when-fuller witness on route 1
        surge = signal_plan(3, "adaptive")
        base = signal_plan(1, "adaptive")
        witness = False
        for k in range(10):
            solo = simulate(scenario, 1 << k, base).travel_times[scenario.av_ids[k]]
            for j1 in range(10):
                for j2 in range(j1 + 1, 10):
                    if k in (j1, j2):
                        continue
                    trio = 1 << k | 1 << j1 | 1 << j2
                    full = simulate(scenario, trio, surge).travel_times[scenario.av_ids[k]]
                    if full < solo:
                        witness = True
        assert witness

        # matrix files restore bit-exactly
        path = tmp_path / "roundtrip.matrix"
        save_matrix(adaptive_matrix, path)
        assert load_matrix(path) == adaptive_matrix
        save_matrix(table1_partial(), path)
        assert load_matrix(path) == table1_partial()
