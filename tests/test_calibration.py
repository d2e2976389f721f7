from __future__ import annotations

import random
from dataclasses import replace

import pytest

from routeclubs import ScenarioConfig, canonical_scenario, generate_payoff_matrix, is_nash
from routeclubs.calibration import DEFAULT_GRID, _x0_quick_nash, calibrate


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
