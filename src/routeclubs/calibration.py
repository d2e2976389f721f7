"""Scenario calibration: find demand/geometry/phase settings that show clubs.

The queue kernel replaces a microscopic simulator, so the seconds it
produces are its own; what must hold is the shape of the phenomenon.
A scenario qualifies when it passes every stage of
:func:`evaluate_candidate`.

Strong-equilibrium existence is additionally measured and reported but
is not an acceptance gate: under this kernel's crisp signal windows, a
missed cycle costs a full 50 s, which makes every deviated state either
desperate to absorb more joiners or profitable to abandon as a group;
exhaustive sweeps over headway, saturation, route-1 length, and signal
offset found no configuration with clubs and a strong action at once.

``routeclubs calibrate --out DIR`` scans the default grid and writes
the best hit and a search report into DIR.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path
from typing import Sequence

from .formation import DayEvent, FormationPolicy, run_formation
from .game import find_clubs, is_nash, is_strong
from .traffic import (
    ScenarioConfig,
    generate_payoff_matrix,
    save_scenario,
    signal_plan,
    simulate,
)

# Whole-second headways, detour lengths and offsets as the starting
# grid, plus the extensions that turned out to matter: sub-saturation
# departure headways (platooned demand) and a saturation headway that
# lets the full platoon clear one green window.
DEFAULT_GRID = {
    "departure_headway": (0.5, 0.75, 1.0, 2.0, 3.0, 4.0),
    "saturation_headway": (1.5, 2.0),
    "free_flow_r1_to_j": tuple(float(v) for v in range(21, 41)),
    "signal_offset": tuple(0.5 * v for v in range(100)),
}

# the stages of the acceptance rule, in the order evaluate_candidate checks them
STAGES = ("x0_nash", "x0_av_optimal", "clubs", "formation")


@dataclass(frozen=True)
class CandidateReport:
    """Outcome of checking one grid point.

    ``failed_stage`` is the first stage of ``STAGES`` it failed, or None.
    ``x0_all_optimal`` and ``strong_actions`` are computed only when None.
    """

    cfg: ScenarioConfig
    failed_stage: str | None
    x0_all_optimal: bool = False
    club_sizes: tuple[int, ...] = ()
    n_clubs: int = 0
    strong_actions: tuple[int, ...] = ()

    @property
    def accepted(self) -> bool:
        return self.failed_stage is None

    @property
    def x0_nash(self) -> bool:
        return self.failed_stage != "x0_nash"

    def score(self) -> tuple:
        """Higher is better among accepted candidates."""
        return (
            bool(self.strong_actions),
            self.x0_all_optimal,
            3 in self.club_sizes,
            -self.n_clubs,
            # a clearly longer route 1 keeps the scenario away from the
            # r1 > r0 validation boundary
            self.cfg.free_flow_r1_to_j - self.cfg.free_flow_r0_to_j,
        )


def _x0_quick_nash(cfg: ScenarioConfig) -> bool:
    """Nash check at the all-on-route-0 action from 11 simulations."""
    base = simulate(cfg, 0, signal_plan(0, cfg.supply_mode)).travel_times
    solo_plan = signal_plan(1, cfg.supply_mode)
    for k, player in enumerate(cfg.av_ids):
        if simulate(cfg, 1 << k, solo_plan).travel_times[player] < base[player]:
            return False
    return True


def evaluate_candidate(cfg: ScenarioConfig) -> CandidateReport:
    """Check one scenario's adaptive-mode matrix, stage by stage in ``STAGES`` order.

    The first stage that fails ends the check. x0 must be Nash and
    maximize the strategic players' total payoff, a club of size 2 to 4
    must exist at x0, and the formation replay led by the least club
    member must converge onto a Nash action.
    """
    if not _x0_quick_nash(cfg):
        return CandidateReport(cfg, "x0_nash")
    g = generate_payoff_matrix(cfg)
    if sum(g.av_payoffs(0)) < max(sum(g.av_payoffs(a)) for a in g.actions()):
        return CandidateReport(cfg, "x0_av_optimal")
    clubs = find_clubs(g, 0)
    sizes = tuple(sorted({len(c) for c in clubs}))
    if not any(2 <= s <= 4 for s in sizes):
        return CandidateReport(cfg, "clubs", club_sizes=sizes, n_clubs=len(clubs))
    leader = min(min(c) for c in clubs)
    last = run_formation(cfg, g, FormationPolicy(leader=leader))[-1]
    if last.event is not DayEvent.CONVERGED or not is_nash(g, last.action):
        return CandidateReport(cfg, "formation", club_sizes=sizes, n_clubs=len(clubs))
    return CandidateReport(
        cfg, None,
        x0_all_optimal=sum(g.entries[0]) >= max(map(sum, g.entries.values())),
        club_sizes=sizes, n_clubs=len(clubs),
        strong_actions=tuple(x for x in g.actions() if is_nash(g, x) and is_strong(g, x)),
    )


def calibrate(grid: dict[str, Sequence[float]] | None = None) -> tuple[CandidateReport | None, dict]:
    """Scan the grid over the default scenario; return the best accepted candidate and a report."""
    grid = grid or DEFAULT_GRID
    names = sorted(grid)
    started = time.perf_counter()
    tried = 0
    accepted: list[CandidateReport] = []
    stage_fail = dict.fromkeys(STAGES, 0)
    for values in product(*(grid[n] for n in names)):
        try:
            cfg = replace(ScenarioConfig(), **dict(zip(names, values)))
        except ValueError:  # a point ScenarioConfig refuses
            continue
        tried += 1
        report = evaluate_candidate(cfg)
        if report.accepted:
            accepted.append(report)
        else:
            stage_fail[report.failed_stage] += 1
    best = max(accepted, key=CandidateReport.score) if accepted else None
    summary = {
        "grid": {n: list(grid[n]) for n in names},
        "tried": tried,
        "stage_failures": stage_fail,
        "accepted": len(accepted),
        "accepted_with_strong_action": sum(bool(r.strong_actions) for r in accepted),
        "elapsed_seconds": round(time.perf_counter() - started, 1),
    }
    return best, summary


def freeze(report: CandidateReport, data_dir: str | Path, summary: dict) -> None:
    """Write the canonical scenario file and the search report into ``data_dir``."""
    data_dir = Path(data_dir)
    save_scenario(report.cfg, data_dir / "canonical_scenario.json")
    payload = {
        "club_sizes": list(report.club_sizes),
        "n_clubs": report.n_clubs,
        "x0_all_optimal": report.x0_all_optimal,
        "strong_actions": list(report.strong_actions),
        "search": summary,
    }
    (data_dir / "calibration_report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
