"""Day-by-day replay of club formation.

One leader, knowing the full payoff matrix, picks a club and invites
its members overnight. The club deviates the next morning while the
signal still runs yesterday's plan; the plan catches up a day later.
From then on the remaining strategic players, who only ever see
yesterday's traffic, take turns adjusting their route, one per day,
until a full round passes with nobody moving.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Literal

from .errors import PreconditionError
from .game import Coalition, PayoffMatrix, find_clubs, sort_coalitions
from .stability import build_club_graph, se_candidates
from .traffic import (
    ScenarioConfig,
    SignalPlan,
    evaluate_lagged_day,
    scenario_hash,
)

TARGET_FIRST = "first_club_containing_leader"
TARGET_STABLE = "stability_seeking"
TargetSelection = Literal["first_club_containing_leader", "stability_seeking"]


class DayEvent(Enum):
    EQUILIBRIUM = "equilibrium"
    CLUB_DEVIATES = "club_deviates"
    SIGNAL_ADAPTS = "signal_adapts"
    BEST_RESPONSE = "best_response"
    CONVERGED = "converged"


@dataclass(frozen=True)
class FormationPolicy:
    """Who leads, which club they aim for, and how long the replay may run."""

    leader: int
    target_selection: TargetSelection = TARGET_FIRST
    max_days: int = 60

    def __post_init__(self) -> None:
        if self.target_selection not in (TARGET_FIRST, TARGET_STABLE):
            raise PreconditionError(f"unknown target selection {self.target_selection!r}")
        if self.max_days < 1:
            raise PreconditionError("max_days must be at least 1")


@dataclass(frozen=True)
class DayRecord:
    """State of one day: the action driven, the plan in force, the payoffs.

    The plan of day d always derives from the action of day d-1. For
    best-response days, ``player`` is whose turn it was and the route
    fields record its decision (equal routes mean it stayed put).
    """

    day: int
    action: int
    plan: SignalPlan
    payoffs: tuple[float, ...]
    event: DayEvent
    player: int | None = None
    from_route: int | None = None
    to_route: int | None = None


def default_leader(clubs: Iterable[Coalition]) -> int:
    """Least member of the club :func:`sort_coalitions` puts first: the default leader."""
    ordered = sort_coalitions(clubs)
    if not ordered:
        raise PreconditionError("no club exists; nothing to form")
    return min(ordered[0])


def choose_club(g: PayoffMatrix, policy: FormationPolicy) -> Coalition:
    """Club the leader invites, per the policy's target selection.

    The first-club mode takes the smallest club (by size, then members)
    containing the leader. The stability-seeking mode walks the club
    graph from that root and prefers a terminal leaf that no coalition
    can improve upon, provided every leaf member strictly gains over the
    all-on-route-0 equilibrium; otherwise it falls back to the root.
    """
    clubs = [c for c in find_clubs(g, 0) if policy.leader in c]
    if not clubs:
        raise PreconditionError(f"no club contains leader {policy.leader}")
    root = sort_coalitions(clubs)[0]
    if policy.target_selection == TARGET_FIRST:
        return root
    graph = build_club_graph(g, root)
    base = g.require(0)
    for leaf in sort_coalitions(se_candidates(g, graph)):
        if all(g.payoff(i, g.indicator(leaf)) > base[g.column(i)] for i in leaf):
            return leaf
    return root


def _check_scenario(cfg: ScenarioConfig, g: PayoffMatrix) -> None:
    """Refuse static supply, and a matrix that is not this scenario's own."""
    if cfg.supply_mode != "adaptive":
        raise PreconditionError("formation needs adaptive supply; a static signal admits no clubs")
    if (g.n_players != cfg.n_total or g.av_ids != cfg.av_ids
            or g.player_ids != tuple(range(cfg.n_total))):
        raise PreconditionError("payoff matrix does not match the scenario's players")
    if g.scenario_hash != scenario_hash(cfg):
        raise PreconditionError("payoff matrix does not match the scenario")


def run_formation(cfg: ScenarioConfig, g: PayoffMatrix,
                  policy: FormationPolicy) -> list[DayRecord]:
    """Replay the formation process as a list of day records.

    Day 0 is the all-on-route-0 equilibrium. Day 1 the club deviates
    under the still-unadapted plan. Day 2 the plan catches up. From day
    3 on, the non-invited strategic players best-respond one per day in
    ``av_ids`` order, which is departure order and not id order, each
    judging both routes against yesterday's traffic under yesterday's
    plan; club members hold their action. The replay stops once a full
    round passes without a switch (event ``CONVERGED``) or when
    ``max_days`` runs out.

    ``g`` must be this scenario's matrix, by ``scenario_hash``. A day
    is read from it when yesterday's plan is the one today's action
    calls for, and simulated only when the plan lags a change. Like
    :func:`find_clubs`, it refuses a day 0 that is not Nash.
    """
    _check_scenario(cfg, g)
    club = choose_club(g, policy)

    records: list[DayRecord] = []

    def price(today: int, yesterday: int) -> tuple[float, ...]:
        """Payoffs of today's action under the plan derived from yesterday's."""
        if cfg.plan(yesterday) == cfg.plan(today):
            return g.entries[today]
        return tuple(-t for t in evaluate_lagged_day(cfg, today, yesterday).travel_times)

    def record(day: int, action: int, yesterday: int, event: DayEvent,
               player: int | None = None, from_route: int | None = None,
               to_route: int | None = None) -> None:
        records.append(DayRecord(
            day=day, action=action, plan=cfg.plan(yesterday),
            payoffs=price(action, yesterday), event=event, player=player,
            from_route=from_route, to_route=to_route,
        ))

    x0 = 0
    record(0, x0, x0, DayEvent.EQUILIBRIUM)
    x1 = g.indicator(club)
    record(1, x1, x0, DayEvent.CLUB_DEVIATES)
    if policy.max_days < 2:
        return records
    record(2, x1, x1, DayEvent.SIGNAL_ADAPTS)

    free = [p for p in g.av_ids if p not in club]
    day = 3
    quiet_days = 0
    while day <= policy.max_days:
        if not free or quiet_days >= len(free):
            record(day, records[-1].action, records[-1].action, DayEvent.CONVERGED)
            break
        player = free[(day - 3) % len(free)]
        yesterday = records[-1].action
        bit = g.bit(player)
        flipped = yesterday ^ 1 << bit
        if price(flipped, yesterday)[player] > g.entries[yesterday][player]:
            today, quiet_days = flipped, 0
        else:
            today, quiet_days = yesterday, quiet_days + 1
        record(day, today, yesterday, DayEvent.BEST_RESPONSE, player=player,
               from_route=yesterday >> bit & 1, to_route=today >> bit & 1)
        day += 1
    return records
