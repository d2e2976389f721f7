"""Deterministic point-queue model of the two-route signalized network.

All vehicles leave one origin on a fixed schedule and head for one
destination. Route 0 is the short western approach to a signalized
junction, route 1 the longer southern approach; past the junction both
share a final leg. At the stop line vehicles stack in a vertical queue
and discharge one saturation headway apart whenever their inlet shows
green.

The signal runs a fixed 50 s cycle with two 5 s intergreens. Under
static supply the remaining 40 s split 21/19 between the western and
southern inlets no matter what. Under adaptive supply the southern
green grows to 31 s (west drops to 9 s) once at least three vehicles
demand route 1 - with a one-day lag, so today's plan reflects
yesterday's flows.

Human-driven vehicles are pinned to route 0; the strategic players pick
per joint action. Travel times are quantized to the configured payoff
resolution so that downstream strict/weak payoff comparisons never
hinge on float noise.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from importlib import resources
from math import floor
from pathlib import Path
from typing import Literal

from .errors import FormatError, PreconditionError
from .game import MAX_AV_PLAYERS, PayoffMatrix

SupplyMode = Literal["static", "adaptive"]

CYCLE_SECONDS = 50.0
INTERGREEN_SECONDS = 5.0
BASE_SPLIT = (21.0, 19.0)
SURGE_SPLIT = (9.0, 31.0)
ROUTE1_SURGE_THRESHOLD = 3

_CANONICAL_RESOURCE = "canonical_scenario.json"


@dataclass(frozen=True)
class SignalPlan:
    """Green split of one cycle: west green, intergreen, south green, intergreen."""

    green_west: float
    green_south: float
    cycle: float = CYCLE_SECONDS
    intergreen: float = INTERGREEN_SECONDS

    def __post_init__(self) -> None:
        if min(self.green_west, self.green_south) <= 0:
            raise ValueError("green phases must be positive")
        if abs(self.green_west + self.green_south + 2 * self.intergreen - self.cycle) > 1e-9:
            raise ValueError("green phases plus intergreens must fill the cycle")

    @property
    def south_start(self) -> float:
        """Offset of the southern green within the cycle, west green starting at 0."""
        return self.green_west + self.intergreen


def signal_plan(route1_demand: int, mode: SupplyMode) -> SignalPlan:
    """Green split given the route-1 demand the controller has seen."""
    if route1_demand < 0:
        raise ValueError("route1_demand must be non-negative")
    if mode not in ("static", "adaptive"):
        raise ValueError(f"unknown supply mode {mode!r}")
    if mode == "adaptive" and route1_demand >= ROUTE1_SURGE_THRESHOLD:
        return SignalPlan(*SURGE_SPLIT)
    return SignalPlan(*BASE_SPLIT)


@dataclass(frozen=True)
class ScenarioConfig:
    """Demand, geometry and supply settings of one scenario.

    ``human_slot_period`` interleaves human-driven vehicles into the
    departure order: every period-th departure slot is taken by the next
    human, the rest by strategic vehicles in id order. ``signal_offset``
    shifts the signal clock against the departure clock (west green
    starts at ``signal_offset`` on the shared clock).
    """

    n_total: int = 15
    av_ids: tuple[int, ...] = tuple(range(10))
    departure_headway: float = 2.0
    free_flow_r0_to_j: float = 20.0
    free_flow_r1_to_j: float = 30.0
    free_flow_j_to_b: float = 5.0
    saturation_headway: float = 2.0
    payoff_quantum: float = 1.0
    supply_mode: SupplyMode = "adaptive"
    signal_offset: float = 0.0
    human_slot_period: int = 3

    def __post_init__(self) -> None:
        if self.n_total < 1:
            raise ValueError("n_total must be at least 1")
        av = tuple(self.av_ids)
        if not av or len(set(av)) != len(av):
            raise ValueError("av_ids must be non-empty and free of duplicates")
        if not all(0 <= p < self.n_total for p in av):
            raise ValueError("av_ids must lie in [0, n_total)")
        if self.free_flow_r1_to_j <= self.free_flow_r0_to_j:
            raise ValueError("route 1 must be longer than route 0")
        for name in ("departure_headway", "free_flow_r0_to_j", "free_flow_r1_to_j",
                     "free_flow_j_to_b", "saturation_headway", "payoff_quantum"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.supply_mode not in ("static", "adaptive"):
            raise ValueError(f"unknown supply mode {self.supply_mode!r}")
        if self.human_slot_period < 1:
            raise ValueError("human_slot_period must be at least 1")
        object.__setattr__(self, "av_ids", av)

    @property
    def n_av(self) -> int:
        return len(self.av_ids)

    def departure_order(self) -> tuple[int, ...]:
        """Player id occupying each departure slot, earliest slot first."""
        humans = [p for p in range(self.n_total) if p not in set(self.av_ids)]
        avs = list(self.av_ids)
        order = []
        for slot in range(self.n_total):
            human_turn = humans and (slot + 1) % self.human_slot_period == 0
            if human_turn or not avs:
                order.append(humans.pop(0))
            else:
                order.append(avs.pop(0))
        return tuple(order)

    def departure_times(self) -> tuple[float, ...]:
        """Departure time per player id."""
        times = [0.0] * self.n_total
        for slot, player in enumerate(self.departure_order()):
            times[player] = slot * self.departure_headway
        return tuple(times)


@dataclass(frozen=True)
class SimOutcome:
    """Per-vehicle travel times plus per-route aggregates for one day."""

    travel_times: tuple[float, ...]
    route_counts: tuple[int, int]
    route_mean_times: tuple[float | None, float | None]


def _next_green_instant(t: float, window_start: float, window_len: float,
                        cycle: float) -> float:
    phase = (t - window_start) % cycle
    if phase < window_len:
        return t
    return t + cycle - phase


def _quantize(value: float, quantum: float) -> float:
    return floor(value / quantum + 0.5) * quantum


def simulate(cfg: ScenarioConfig, action: int, plan: SignalPlan) -> SimOutcome:
    """Run one day under a given joint action and signal plan.

    Stop-line discharge per inlet: earliest instant inside the inlet's
    green window at or after ``max(arrival, previous discharge +
    saturation headway)``, which keeps each route strictly first-in
    first-out.
    """
    if not 0 <= action < (1 << cfg.n_av):
        raise ValueError(f"action {action} out of range for {cfg.n_av} strategic players")
    route = [0] * cfg.n_total
    for k, player in enumerate(cfg.av_ids):
        if action >> k & 1:
            route[player] = 1
    departures = cfg.departure_times()
    times = [0.0] * cfg.n_total
    windows = (
        (cfg.signal_offset, plan.green_west, cfg.free_flow_r0_to_j),
        (cfg.signal_offset + plan.south_start, plan.green_south, cfg.free_flow_r1_to_j),
    )
    for r, (window_start, window_len, free_flow) in enumerate(windows):
        vehicles = sorted((p for p in range(cfg.n_total) if route[p] == r),
                          key=lambda p: departures[p])
        previous = None
        for player in vehicles:
            arrival = departures[player] + free_flow
            ready = arrival if previous is None else max(arrival, previous + cfg.saturation_headway)
            discharge = _next_green_instant(ready, window_start, window_len, plan.cycle)
            previous = discharge
            total = discharge + cfg.free_flow_j_to_b - departures[player]
            times[player] = _quantize(total, cfg.payoff_quantum)
    counts = (route.count(0), route.count(1))
    means = tuple(
        (sum(times[p] for p in range(cfg.n_total) if route[p] == r) / counts[r])
        if counts[r] else None
        for r in (0, 1)
    )
    return SimOutcome(travel_times=tuple(times), route_counts=counts,
                      route_mean_times=means)  # type: ignore[arg-type]


def route1_demand(action: int) -> int:
    """Vehicles asking for route 1 under a joint action."""
    return action.bit_count()


def generate_payoff_matrix(cfg: ScenarioConfig, *,
                           av_limit: int = MAX_AV_PLAYERS) -> PayoffMatrix:
    """Price every joint action under its own converged signal plan.

    For each action the controller is assumed to have already adapted to
    that action's route split (the steady state of the one-day lag),
    then the day is simulated and payoffs recorded as negative quantized
    travel times for all vehicles, humans included.
    """
    if cfg.n_av > av_limit:
        raise PreconditionError(
            f"{cfg.n_av} strategic players need {1 << cfg.n_av} simulations, over the "
            f"cap of 2**{av_limit}; raise av_limit explicitly if you really mean it"
        )
    entries = {}
    for action in range(1 << cfg.n_av):
        plan = signal_plan(route1_demand(action), cfg.supply_mode)
        outcome = simulate(cfg, action, plan)
        entries[action] = tuple(-t for t in outcome.travel_times)
    return PayoffMatrix(
        n_players=cfg.n_total,
        av_ids=cfg.av_ids,
        entries=entries,
        quantum=cfg.payoff_quantum,
        supply_mode=cfg.supply_mode,
        scenario_hash=scenario_hash(cfg),
    )


def evaluate_lagged_day(cfg: ScenarioConfig, x_today: int, x_yesterday: int) -> SimOutcome:
    """Simulate today's split under the plan the controller derived yesterday."""
    plan = signal_plan(route1_demand(x_yesterday), cfg.supply_mode)
    return simulate(cfg, x_today, plan)


def scenario_hash(cfg: ScenarioConfig) -> str:
    """Short stable digest identifying a scenario configuration."""
    blob = json.dumps(asdict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def save_scenario(cfg: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n")


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read a scenario config from its JSON file."""
    try:
        data = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FormatError(f"scenario file {path} is not valid JSON: {e}") from None
    return _scenario_from_dict(data, source=str(path))


def _scenario_from_dict(data: object, source: str) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise FormatError(f"scenario file {source} must hold a JSON object")
    known = set(ScenarioConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise FormatError(f"scenario file {source} has unknown keys: {sorted(unknown)}")
    try:
        if "av_ids" in data:
            data = dict(data, av_ids=tuple(data["av_ids"]))
        return ScenarioConfig(**data)
    except (TypeError, ValueError) as e:
        raise FormatError(f"scenario file {source} is invalid: {e}") from None


def canonical_scenario() -> ScenarioConfig:
    """The calibrated scenario bundled with the package."""
    text = resources.files("routeclubs.data").joinpath(_CANONICAL_RESOURCE).read_text()
    return _scenario_from_dict(json.loads(text), source=_CANONICAL_RESOURCE)


def static_variant(cfg: ScenarioConfig) -> ScenarioConfig:
    """Same scenario with the signal pinned to its base split."""
    return replace(cfg, supply_mode="static")
