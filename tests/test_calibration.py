from __future__ import annotations

import json
import random
from dataclasses import replace
from functools import partial
from importlib import resources

import pytest

from routeclubs import ScenarioConfig, canonical_scenario, generate_payoff_matrix, is_nash
from routeclubs import calibration
from routeclubs.calibration import (DEFAULT_GRID, STAGES, CandidateReport, _x0_quick_nash,
                                    calibrate, evaluate_candidate)
from routeclubs.cli import main

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

    def test_no_accepted_point_exits_3(self, offsets, tmp_path, capsys):
        offsets(0.0)
        bundled = _data_files()
        out = tmp_path / "calibration"
        assert main(["calibrate", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        assert _data_files() == bundled
