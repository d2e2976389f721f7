from __future__ import annotations

import json
import os
import random
from dataclasses import replace
from functools import partial
from importlib import resources
from pathlib import Path

import pytest

from routeclubs import ScenarioConfig, canonical_scenario, generate_payoff_matrix, is_nash
from routeclubs import calibration, cli
from routeclubs.calibration import (DEFAULT_GRID, STAGES, CandidateReport, _x0_quick_nash,
                                    calibrate, evaluate_candidate)
from routeclubs.cli import main
from routeclubs.formation import DayEvent, DayRecord

# the grid column through the bundled scenario: every offset at its
# headways and route-1 length
COLUMN = {"departure_headway": (0.5,), "saturation_headway": (1.5,),
          "free_flow_r1_to_j": (40.0,), "signal_offset": DEFAULT_GRID["signal_offset"]}


@pytest.mark.parametrize("mode", ["static", "adaptive"])
def test_quick_nash_agrees_with_the_matrix(mode):
    # evaluate_candidate takes the quick check's verdict on x0 without asking
    # the matrix again, so the two must never disagree
    rng = random.Random(19)
    names = sorted(DEFAULT_GRID)
    points = [canonical_scenario()] + [
        replace(ScenarioConfig(), **{n: rng.choice(DEFAULT_GRID[n]) for n in names})
        for _ in range(12)
    ]
    verdicts = set()
    for cfg in points:
        cfg = replace(cfg, supply_mode=mode)
        verdict = _x0_quick_nash(cfg)
        assert verdict == is_nash(generate_payoff_matrix(cfg), 0), cfg
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_grid_points_the_scenario_refuses_are_skipped():
    # route 1 at 15 s would be shorter than route 0's 20 s
    _, summary = calibrate(grid={"free_flow_r1_to_j": (15.0, 25.0)})
    assert summary["tried"] == 1


def test_column_verdicts():
    # q: quick Nash rejection, r: rejected later, a: accepted; by offset
    reports = [evaluate_candidate(replace(ScenarioConfig(), departure_headway=0.5,
                                          saturation_headway=1.5, free_flow_r1_to_j=40.0,
                                          signal_offset=o))
               for o in COLUMN["signal_offset"]]
    verdicts = "".join("a" if r.accepted else "r" if r.x0_nash else "q" for r in reports)
    assert verdicts == "q" * 38 + "r" * 23 + "a" * 30 + "q" * 9


def test_column_calibration_picks_the_bundled_scenario():
    best, summary = calibrate(grid=COLUMN)
    assert summary["stage_failures"] == {"x0_nash": 47, "x0_av_optimal": 0, "clubs": 23,
                                         "formation": 0}
    assert tuple(summary["stage_failures"]) == STAGES
    assert summary["accepted"] == 30
    assert summary["accepted_with_strong_action"] == 0
    assert best.cfg == canonical_scenario()


@pytest.mark.parametrize("club, stage", [({7, 8}, None), ({5, 6, 7, 8, 9}, "clubs")])
def test_club_window_is_two_to_four(monkeypatch, club, stage):
    # the formation replay still finds the matrix's own club {7,8,9}
    monkeypatch.setattr(calibration, "find_clubs", lambda g, x: {frozenset(club)})
    assert evaluate_candidate(canonical_scenario()).failed_stage == stage


def test_a_club_of_four_alone_is_accepted(monkeypatch):
    # the grid's clubs of four all sit beside clubs of three, as {6,7,8,9}
    # does here; drop the threes
    cfg = replace(ScenarioConfig(), departure_headway=0.75, free_flow_r1_to_j=21.0,
                  saturation_headway=1.5, signal_offset=19.0)
    find_clubs = calibration.find_clubs
    monkeypatch.setattr(calibration, "find_clubs",
                        lambda g, x: {c for c in find_clubs(g, x) if len(c) == 4})
    report = evaluate_candidate(cfg)
    assert (report.failed_stage, report.club_sizes) == (None, (4,))


def test_x0_that_is_nash_but_not_av_optimal_fails_its_stage():
    # all eleven humans depart first and the three strategic players last;
    # found by random draws, as no grid point fails this stage
    cfg = replace(canonical_scenario(), human_slot_period=1, n_total=14, av_ids=(0, 1, 2))
    assert _x0_quick_nash(cfg)
    assert evaluate_candidate(cfg).failed_stage == "x0_av_optimal"


def test_one_strategic_player_reaches_the_clubs_stage():
    # flipping is the only other action, so a Nash x0 is av-optimal too;
    # one column is still summed as a row of one
    report = evaluate_candidate(replace(canonical_scenario(), av_ids=(9,)))
    assert (report.failed_stage, report.club_sizes) == ("clubs", ())


def _replay_ending(event, pick_action):
    """A stand-in for run_formation whose one-day log ends as given."""
    def replay(cfg, g, policy):
        action = pick_action(g)
        return [DayRecord(day=0, action=action, plan=cfg.plan(action),
                          payoffs=g.entries[action], event=event)]
    return replay


@pytest.mark.parametrize("event, pick_action", [
    (DayEvent.BEST_RESPONSE, lambda g: 0),
    (DayEvent.CONVERGED, lambda g: next(x for x in g.actions() if not is_nash(g, x))),
], ids=["not_converged", "converged_off_nash"])
def test_replay_that_misses_a_nash_end_fails_formation(monkeypatch, event, pick_action):
    # no scenario on the grid fails this stage under the real replay
    monkeypatch.setattr(calibration, "run_formation", _replay_ending(event, pick_action))
    assert evaluate_candidate(canonical_scenario()).failed_stage == "formation"


def test_replay_is_led_by_the_default_leader(monkeypatch):
    # the least member over all clubs is 5, but {8, 9} is the first club
    monkeypatch.setattr(calibration, "find_clubs",
                        lambda g, x: {frozenset({8, 9}), frozenset({5, 6, 7})})
    leaders = []

    def replay(cfg, g, policy):
        leaders.append(policy.leader)
        return _replay_ending(DayEvent.CONVERGED, lambda g: 0)(cfg, g, policy)

    monkeypatch.setattr(calibration, "run_formation", replay)
    assert evaluate_candidate(canonical_scenario()).accepted
    assert leaders == [8]


def test_score_prefers_a_club_of_three():
    cfg = canonical_scenario()
    pair = [CandidateReport(cfg, None, club_sizes=(size,), n_clubs=1) for size in (2, 3)]
    for order in (pair, pair[::-1]):
        assert max(order, key=CandidateReport.score).club_sizes == (3,)


def _data_files() -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in resources.files("routeclubs.data").iterdir()
            if f.is_file()}


class TestCalibrateCommand:
    @pytest.fixture
    def offsets(self, monkeypatch):
        def use(*values):
            grid = dict(COLUMN, signal_offset=values)
            monkeypatch.setattr(calibration, "calibrate", partial(calibrate, grid))
        return use

    def test_writes_the_bundled_scenario(self, offsets, tmp_path):
        # a quick rejection, a club failure and the bundled point
        offsets(0.0, 19.0, 30.5)
        bundled = _data_files()
        out = tmp_path / "calibration"
        assert main(["calibrate", "--out", str(out)]) == 0
        scenario = (out / "canonical_scenario.json").read_bytes()
        assert scenario == bundled["canonical_scenario.json"]
        report = json.loads((out / "calibration_report.json").read_text())
        assert report["search"]["stage_failures"] == {"x0_nash": 1, "x0_av_optimal": 0,
                                                      "clubs": 1, "formation": 0}
        assert _data_files() == bundled

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["the_file", "under_the_file"])
    def test_out_at_a_file_exits_2_before_the_scan(self, monkeypatch, tmp_path, capsys, below):
        calls = []
        monkeypatch.setattr(calibration, "calibrate", lambda *args: calls.append(args))
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        out = taken.joinpath(*below)
        assert main(["calibrate", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out {out} is a file or lies under one\n"
        assert calls == []
        assert taken.read_text() == "a file\n"

    def test_out_it_may_not_write_exits_2_before_the_scan(self, monkeypatch, tmp_path, capsys):
        # the tests may run as root, whom permission bits do not stop
        def calibrate(*args):
            pytest.fail("calibrate ran")
        asked = []

        def access(path, mode):
            asked.append((Path(path), mode))
            return False

        monkeypatch.setattr(calibration, "calibrate", calibrate)
        monkeypatch.setattr(cli.os, "access", access)
        out = tmp_path / "new" / "calibration"
        assert main(["calibrate", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out {out}: cannot write into {tmp_path}\n"
        assert asked == [(tmp_path, os.W_OK | os.X_OK)]
        assert list(tmp_path.iterdir()) == []

    def test_no_accepted_point_exits_3(self, offsets, tmp_path, capsys):
        offsets(0.0)
        bundled = _data_files()
        out = tmp_path / "calibration"
        assert main(["calibrate", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        assert _data_files() == bundled
