"""Scenario calibration: find demand/geometry/phase settings that show clubs.

The queue kernel replaces a microscopic simulator, so the seconds it
produces are its own; what must hold is the shape of the phenomenon.
A scenario qualifies when it passes every stage of
:func:`evaluate_candidate`.

Strong actions are counted and reported, not required. By the causality
law (README, "Known limitation"), a coalition improves on a Nash action
only if its joint flip gets another plan than its first departure's solo
flip: a club at x0 has at least ``ROUTE1_SURGE_THRESHOLD`` members, and a
Nash action with four or more on route 1 is strong unless a group return
below the threshold pays. The report records none among 1,401 accepted.

``routeclubs calibrate --out DIR`` scans the default grid and writes
the best hit and a search report into DIR.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from .formation import DayEvent, FormationPolicy, default_leader, run_formation
from .game import find_clubs, is_nash, is_strong
from .traffic import (
    ScenarioConfig,
    generate_payoff_matrix,
    lead_vehicle_time,
    save_scenario,
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
    """Nash check at the all-on-route-0 action from one simulated day.

    A strategic player's time after its solo flip is
    :func:`~routeclubs.traffic.lead_vehicle_time`: alone on route 1,
    nothing delays it. So x0 is Nash when no such time beats the
    player's time in x0. It gives :func:`is_nash`'s verdict at x0
    without the matrix, and quick rejections are 89% of the
    calibration scan.
    """
    base = simulate(cfg, 0, cfg.plan(0)).travel_times
    solo_plan = cfg.plan(1)
    for player, departure, bit in cfg.schedule:
        if bit >= 0 and lead_vehicle_time(cfg, departure, solo_plan) < base[player]:
            return False
    return True


def evaluate_candidate(cfg: ScenarioConfig) -> CandidateReport:
    """Check one scenario's adaptive-mode matrix, stage by stage in ``STAGES`` order.

    The first stage that fails ends the check. x0 must be Nash and
    maximize the strategic players' total payoff, a club of size 2 to 4
    must exist at x0, and the formation replay led by
    :func:`~routeclubs.formation.default_leader` must converge onto a Nash action.
    """
    if not _x0_quick_nash(cfg):
        return CandidateReport(cfg, "x0_nash")
    g = generate_payoff_matrix(cfg)
    # one tuple of strategic payoffs per row, in av_ids order as av_payoffs
    av_rows = zip(*[map(itemgetter(g.column(p)), g.entries.values()) for p in g.av_ids])
    if sum(g.av_payoffs(0)) < max(map(sum, av_rows)):
        return CandidateReport(cfg, "x0_av_optimal")
    clubs = find_clubs(g, 0)
    sizes = tuple(sorted({len(c) for c in clubs}))
    if not any(2 <= s <= 4 for s in sizes):
        return CandidateReport(cfg, "clubs", club_sizes=sizes, n_clubs=len(clubs))
    last = run_formation(cfg, g, FormationPolicy(leader=default_leader(clubs)))[-1]
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
            cfg = ScenarioConfig(**dict(zip(names, values)))
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
