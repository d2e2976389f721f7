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
from math import floor, inf, isfinite
from pathlib import Path
from typing import ClassVar, Literal

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
    cycle: ClassVar[float] = CYCLE_SECONDS
    intergreen: ClassVar[float] = INTERGREEN_SECONDS

    def __post_init__(self) -> None:
        if min(self.green_west, self.green_south) <= 0:
            raise ValueError("green phases must be positive")
        if abs(self.green_west + self.green_south + 2 * self.intergreen - self.cycle) > 1e-9:
            raise ValueError("green phases plus intergreens must fill the cycle")

    @property
    def south_start(self) -> float:
        """Offset of the southern green within the cycle, west green starting at 0."""
        return self.green_west + self.intergreen


_BASE_PLAN = SignalPlan(*BASE_SPLIT)
_SURGE_PLAN = SignalPlan(*SURGE_SPLIT)


def signal_plan(route1_demand: int, mode: SupplyMode) -> SignalPlan:
    """Green split given the route-1 demand the controller has seen.

    Plans are immutable, so every caller shares the two prebuilt ones.
    """
    if route1_demand < 0:
        raise ValueError("route1_demand must be non-negative")
    if mode not in ("static", "adaptive"):
        raise ValueError(f"unknown supply mode {mode!r}")
    if mode == "adaptive" and route1_demand >= ROUTE1_SURGE_THRESHOLD:
        return _SURGE_PLAN
    return _BASE_PLAN


@dataclass(frozen=True)
class ScenarioConfig:
    """Demand, geometry and supply settings of one scenario.

    ``human_slot_period`` interleaves human-driven vehicles into the
    departure order: every period-th departure slot is taken by the next
    human, the rest by strategic vehicles in id order. ``signal_offset``
    shifts the signal clock against the departure clock (west green
    starts at ``signal_offset`` on the shared clock).

    ``schedule`` holds ``(player, departure time, strategic bit or -1)``
    per slot, earliest first: every ``human_slot_period``-th slot goes to
    the next human while humans remain, the others to the strategic
    players in ``av_ids`` order. Each config builds it when it is
    created, so it lives exactly as long as the config does.
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
        av = tuple(self.av_ids)
        integers = {"n_total": self.n_total, "human_slot_period": self.human_slot_period}
        integers.update((f"av_ids[{k}]", p) for k, p in enumerate(av))
        for name, value in integers.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        if self.n_total < 1:
            raise ValueError("n_total must be at least 1")
        if not av or len(set(av)) != len(av):
            raise ValueError("av_ids must be non-empty and free of duplicates")
        if not all(0 <= p < self.n_total for p in av):
            raise ValueError("av_ids must lie in [0, n_total)")
        positive = ("departure_headway", "free_flow_r0_to_j", "free_flow_r1_to_j",
                    "free_flow_j_to_b", "saturation_headway", "payoff_quantum")
        for name in (*positive, "signal_offset"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a number")
            if name in positive and value <= 0:
                raise ValueError(f"{name} must be positive")
            if not isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.free_flow_r1_to_j <= self.free_flow_r0_to_j:
            raise ValueError("route 1 must be longer than route 0")
        if self.supply_mode not in ("static", "adaptive"):
            raise ValueError(f"unknown supply mode {self.supply_mode!r}")
        if self.human_slot_period < 1:
            raise ValueError("human_slot_period must be at least 1")
        # no time of a day, counted in payoff quanta, exceeds this bound;
        # simulate's floor() needs it finite
        longest = (self.n_total * (self.departure_headway + self.saturation_headway + CYCLE_SECONDS)
                   + abs(self.signal_offset) + self.free_flow_r1_to_j + self.free_flow_j_to_b)
        if not isfinite(longest / self.payoff_quantum):
            raise ValueError("a day's times overflow when counted in payoff quanta")
        object.__setattr__(self, "av_ids", av)
        bit = {p: k for k, p in enumerate(av)}
        humans = [p for p in range(self.n_total) if p not in bit]
        h = a = 0
        slots = []
        for slot in range(self.n_total):
            if h < len(humans) and ((slot + 1) % self.human_slot_period == 0 or a == len(av)):
                player, h = humans[h], h + 1
            else:
                player, a = av[a], a + 1
            slots.append((player, slot * self.departure_headway, bit.get(player, -1)))
        object.__setattr__(self, "schedule", tuple(slots))

    @property
    def n_av(self) -> int:
        return len(self.av_ids)


@dataclass(frozen=True)
class SimOutcome:
    """Per-vehicle travel times of one day, in player-id order."""

    travel_times: tuple[float, ...]


def simulate(cfg: ScenarioConfig, action: int, plan: SignalPlan) -> SimOutcome:
    """Run one day under a given joint action and signal plan.

    Stop-line discharge per inlet: earliest instant inside the inlet's
    green window at or after ``max(arrival, previous discharge +
    saturation headway)``, which keeps each route strictly first-in
    first-out. Slots depart in order, so one walk over the schedule
    serves both queues. Travel times are quantized to the payoff
    resolution.
    """
    if not 0 <= action < (1 << cfg.n_av):
        raise ValueError(f"action {action} out of range for {cfg.n_av} strategic players")
    cycle = plan.cycle
    window_start = (cfg.signal_offset, cfg.signal_offset + plan.south_start)
    window_len = (plan.green_west, plan.green_south)
    free_flow = (cfg.free_flow_r0_to_j, cfg.free_flow_r1_to_j)
    saturation = cfg.saturation_headway
    exit_leg = cfg.free_flow_j_to_b
    quantum = cfg.payoff_quantum
    previous = [-inf, -inf]
    times = [0.0] * cfg.n_total
    for player, departure, bit in cfg.schedule:
        r = action >> bit & 1 if bit >= 0 else 0
        ready = max(departure + free_flow[r], previous[r] + saturation)
        phase = (ready - window_start[r]) % cycle
        discharge = ready if phase < window_len[r] else ready + cycle - phase
        previous[r] = discharge
        times[player] = floor((discharge + exit_leg - departure) / quantum + 0.5) * quantum
    return SimOutcome(tuple(times))


def route1_demand(action: int) -> int:
    """Vehicles asking for route 1 under a joint action."""
    return action.bit_count()


def generate_payoff_matrix(cfg: ScenarioConfig) -> PayoffMatrix:
    """Price every joint action under its own converged signal plan.

    For each action the controller is assumed to have already adapted to
    that action's route split (the steady state of the one-day lag),
    then the day is simulated and payoffs recorded as negative quantized
    travel times for all vehicles, humans included.
    """
    if cfg.n_av > MAX_AV_PLAYERS:
        raise PreconditionError(
            f"{cfg.n_av} strategic players need {1 << cfg.n_av} simulations, over the "
            f"cap of 2**{MAX_AV_PLAYERS}"
        )
    entries = {}
    for action in range(1 << cfg.n_av):
        plan = signal_plan(route1_demand(action), cfg.supply_mode)
        outcome = simulate(cfg, action, plan)
        entries[action] = tuple([-t for t in outcome.travel_times])
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
