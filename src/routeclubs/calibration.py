"""Scenario calibration: find demand/geometry/phase settings that show clubs.

The queue kernel replaces a microscopic simulator, so the seconds it
produces are its own; what must hold is the shape of the phenomenon.
A scenario qualifies when its adaptive-mode matrix simultaneously has:

  1. the all-on-route-0 action as a Nash equilibrium,
  2. that action maximizing the strategic players' total payoff,
  3. at least one club of size 2 to 4 at it, and
  4. a formation replay converging onto a Nash action.

Strong-equilibrium existence is additionally measured and reported but
is not an acceptance gate: under this kernel's crisp signal windows, a
missed cycle costs a full 50 s, which makes every deviated state either
desperate to absorb more joiners or profitable to abandon as a group;
exhaustive sweeps over headway, saturation, route-1 length, and signal
offset found no configuration with clubs and a strong action at once.

``python -m routeclubs.calibration`` scans the default grid, freezes
the best hit into the package data directory and writes a search
report next to it.
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


@dataclass(frozen=True)
class CandidateReport:
    """Outcome of checking one grid point."""

    cfg: ScenarioConfig
    x0_nash: bool
    x0_av_optimal: bool = False
    x0_all_optimal: bool = False
    club_sizes: tuple[int, ...] = ()
    n_clubs: int = 0
    strong_actions: tuple[int, ...] = ()
    formation_converged: bool = False
    final_action_nash: bool = False

    @property
    def accepted(self) -> bool:
        return (self.x0_nash and self.x0_av_optimal
                and any(2 <= s <= 4 for s in self.club_sizes)
                and self.formation_converged and self.final_action_nash)

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
    for k in range(cfg.n_av):
        player = cfg.av_ids[k]
        if simulate(cfg, 1 << k, solo_plan).travel_times[player] < base[player]:
            return False
    return True


def evaluate_candidate(cfg: ScenarioConfig) -> CandidateReport:
    """Full check of one scenario against the acceptance conditions."""
    if not _x0_quick_nash(cfg):
        return CandidateReport(cfg=cfg, x0_nash=False)
    g = generate_payoff_matrix(cfg)

    av_totals = {a: sum(g.av_payoffs(a)) for a in g.actions()}
    all_totals = {a: sum(g.entries[a]) for a in g.actions()}
    x0_av_optimal = av_totals[0] >= max(av_totals.values())
    x0_all_optimal = all_totals[0] >= max(all_totals.values())

    clubs = find_clubs(g, 0)
    club_sizes = tuple(sorted({len(c) for c in clubs}))

    strong = tuple(
        x for x in g.actions()
        if is_nash(g, x) and is_strong(g, x)
    )

    formation_converged = False
    final_action_nash = False
    if clubs and x0_av_optimal:
        leader = min(min(c) for c in clubs)
        days = run_formation(cfg, g, FormationPolicy(leader=leader))
        formation_converged = days[-1].event is DayEvent.CONVERGED
        final_action_nash = is_nash(g, days[-1].action)

    return CandidateReport(
        cfg=cfg, x0_nash=True,
        x0_av_optimal=x0_av_optimal, x0_all_optimal=x0_all_optimal,
        club_sizes=club_sizes, n_clubs=len(clubs),
        strong_actions=strong,
        formation_converged=formation_converged,
        final_action_nash=final_action_nash,
    )


def calibrate(base: ScenarioConfig | None = None,
              grid: dict[str, Sequence[float]] | None = None,
              stop_after: int | None = None,
              ) -> tuple[CandidateReport | None, dict]:
    """Scan the grid; return the best accepted candidate and a report.

    ``stop_after`` caps the number of accepted candidates collected
    before ranking (None scans the whole grid).
    """
    base = base or ScenarioConfig()
    grid = grid or DEFAULT_GRID
    names = sorted(grid)
    started = time.perf_counter()
    tried = 0
    accepted: list[CandidateReport] = []
    stage_fail = {"x0_nash": 0, "x0_av_optimal": 0, "clubs": 0, "formation": 0}
    with_strong = 0
    for values in product(*(grid[n] for n in names)):
        try:
            cfg = replace(base, **dict(zip(names, values)))
        except ValueError:  # a point ScenarioConfig refuses
            continue
        tried += 1
        report = evaluate_candidate(cfg)
        if not report.x0_nash:
            stage_fail["x0_nash"] += 1
            continue
        if not report.x0_av_optimal:
            stage_fail["x0_av_optimal"] += 1
            continue
        if not any(2 <= s <= 4 for s in report.club_sizes):
            stage_fail["clubs"] += 1
            continue
        if not (report.formation_converged and report.final_action_nash):
            stage_fail["formation"] += 1
            continue
        accepted.append(report)
        if report.strong_actions:
            with_strong += 1
        if stop_after is not None and len(accepted) >= stop_after:
            break
    best = max(accepted, key=CandidateReport.score) if accepted else None
    summary = {
        "grid": {n: list(grid[n]) for n in names},
        "tried": tried,
        "stage_failures": stage_fail,
        "accepted": len(accepted),
        "accepted_with_strong_action": with_strong,
        "elapsed_seconds": round(time.perf_counter() - started, 1),
    }
    return best, summary


def freeze(report: CandidateReport, data_dir: str | Path,
           summary: dict | None = None) -> None:
    """Write the canonical scenario file (and search report) into ``data_dir``."""
    data_dir = Path(data_dir)
    save_scenario(report.cfg, data_dir / "canonical_scenario.json")
    payload = {
        "club_sizes": list(report.club_sizes),
        "n_clubs": report.n_clubs,
        "x0_all_optimal": report.x0_all_optimal,
        "strong_actions": list(report.strong_actions),
        "search": summary or {},
    }
    (data_dir / "calibration_report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main() -> int:
    best, summary = calibrate()
    print(json.dumps(summary, indent=2, sort_keys=True))
    if best is None:
        print("calibration failed: no grid point satisfies all conditions")
        return 1
    data_dir = Path(__file__).parent / "data"
    freeze(best, data_dir, summary)
    print(f"frozen scenario: {best.cfg}")
    print(f"clubs: {best.n_clubs} (sizes {best.club_sizes}); "
          f"strong actions: {len(best.strong_actions)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
