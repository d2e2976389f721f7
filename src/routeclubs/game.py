"""Binary two-route games on explicit payoff matrices.

Strategic players each pick route 0 or route 1; a joint action is a bit
mask over them, bit k holding the choice of the k-th strategic player.
Payoffs are negative travel times in seconds. Human-driven vehicles may
appear as extra payoff columns but never carry a bit: they are pinned
to route 0 and take no part in deviations.

All types are immutable after construction and safe to share between
workers; every operation here is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from math import inf, isfinite
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import IncompleteMatrixError, PreconditionError

Coalition = frozenset[int]

# At 20 strategic players a matrix holds 2**20 rows and classify_all ANDs
# 2**20-bit sets 2**20 times, minutes of work by extrapolation from 16
# players (2.6 s); refuse past it.
MAX_AV_PLAYERS = 20


def action_to_string(action: int, n_av: int) -> str:
    """Render a joint action as a '0'/'1' string, lowest bit leftmost."""
    if action < 0 or action >> n_av:
        raise ValueError(f"action {action} out of range for {n_av} strategic players")
    return format(action, f"0{n_av}b")[::-1]


def action_from_string(text: str) -> int:
    """Parse the string form produced by :func:`action_to_string`."""
    # checked here, never by int(), which also takes "_", "+" and spaces
    if not text or text.strip("01"):
        raise ValueError(f"malformed action string {text!r}")
    return int(text[::-1], 2)


def sort_coalitions(coalitions: Iterable[Coalition]) -> list[Coalition]:
    """Canonical presentation order for coalition sets (size, then members)."""
    return sorted(coalitions, key=lambda c: (len(c), sorted(c)))


# Translation tables from one byte per action to "0"/"1" digits: where the
# byte exceeds r, and where it equals r
_GREATER = tuple(b"0" * (r + 1) + b"1" * (255 - r) for r in range(256))
_EQUAL = tuple(b"0" * r + b"1" + b"0" * (255 - r) for r in range(256))


class _PlayerLevels(dict):
    """One strategic player's deviation targets by payoff level, as 2**n-bit sets.

    ``self[v][x_b]`` holds bit ``y`` for every joint action ``y`` at which
    the player either keeps route ``x_b`` or strictly earns more than
    ``v``. Nothing earns more than ``inf``, so ``self[inf][x_b]`` is the
    set of actions that keep the route. Levels are built on first use.
    """

    def __init__(self, column: Sequence[float], bit: int):
        # column[i] is the payoff at joint action len(column) - 1 - i, so a
        # "0"/"1" string over it reads as a binary number with bit y for action y
        half = 1 << bit
        ones = int(("1" * half + "0" * half) * (len(column) // (2 * half)), 2)
        super().__init__({inf: (ones ^ ((1 << len(column)) - 1), ones)})
        levels = sorted(set(column))
        self.rank = {v: r for r, v in enumerate(levels)}
        # each action's payoff rank in base 256, one byte string per digit,
        # most significant first; one digit while there are 256 levels or fewer
        self.digits = []
        shift = 0
        while not self.digits or len(levels) > 1 << shift:
            digit = {v: r >> shift & 255 for v, r in self.rank.items()}
            self.digits.insert(0, (shift, bytes(map(digit.__getitem__, column))))
            shift += 8

    def __missing__(self, v: float) -> tuple[int, int]:
        r, above, equal = self.rank[v], 0, -1
        for shift, digits in self.digits:
            d = r >> shift & 255
            above |= equal & int(digits.translate(_GREATER[d]), 2)
            if shift:
                equal &= int(digits.translate(_EQUAL[d]), 2)
        stay0, stay1 = self[inf]
        self[v] = keep = (stay0 | above, stay1 | above)
        return keep


@dataclass(frozen=True)
class PayoffMatrix:
    """Deterministic payoff table of a binary routing game.

    ``entries`` maps each stored joint action (an ``n_av``-bit mask) to one
    payoff per player, ordered as ``player_ids``. A matrix is *complete*
    when it prices all ``2**n_av`` joint actions; several operations in
    this package demand completeness and fail naming the first missing
    action otherwise.

    ``player_ids`` defaults to ``0..n_players-1`` and exists so partial
    fixtures can keep the ids of the wider scenario they were cut from.
    """

    n_players: int
    av_ids: tuple[int, ...]
    entries: Mapping[int, tuple[float, ...]]
    player_ids: tuple[int, ...] = ()
    quantum: float = 1.0
    supply_mode: str = "unspecified"
    scenario_hash: str = ""

    def __post_init__(self) -> None:
        if self.n_players < 1:
            raise ValueError("n_players must be at least 1")
        player_ids = tuple(self.player_ids) or tuple(range(self.n_players))
        if len(player_ids) != self.n_players or len(set(player_ids)) != self.n_players:
            raise ValueError("player_ids must be n_players distinct ids")
        av_ids = tuple(self.av_ids)
        if not av_ids or len(set(av_ids)) != len(av_ids):
            raise ValueError("av_ids must be non-empty and free of duplicates")
        if not set(av_ids) <= set(player_ids):
            raise ValueError("av_ids must be a subset of player_ids")
        if self.quantum <= 0:
            raise ValueError("quantum must be positive")
        if not isfinite(self.quantum):
            raise ValueError("quantum must be finite")
        n_av = len(av_ids)
        entries: dict[int, tuple[float, ...]] = {}
        for action, row in self.entries.items():
            if not 0 <= action < (1 << n_av):
                raise ValueError(f"action {action} out of range for {n_av} strategic players")
            payoffs = row if type(row) is tuple else tuple(row)
            if len(payoffs) != self.n_players:
                raise ValueError(
                    f"action {action_to_string(action, n_av)} has {len(payoffs)} payoffs, "
                    f"expected {self.n_players}"
                )
            entries[action] = payoffs
        # rows of exact floats, as load_matrix and generate_payoff_matrix
        # build them, are kept; any other value converts every row
        if set(map(type, chain.from_iterable(entries.values()))) - {float}:
            entries = {action: tuple(map(float, row)) for action, row in entries.items()}
        # each distinct payoff is checked once; on failure the rows are
        # scanned in order to name the first offending value
        if not all(-inf < v <= 0 for v in set().union(*entries.values())):
            bad = next(v for row in entries.values() for v in row if not -inf < v <= 0)
            raise ValueError(f"payoffs must be finite and <= 0, got {bad}")
        object.__setattr__(self, "player_ids", player_ids)
        object.__setattr__(self, "av_ids", av_ids)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_column", {p: k for k, p in enumerate(player_ids)})
        object.__setattr__(self, "_bit", {p: k for k, p in enumerate(av_ids)})
        columns = tuple(map(player_ids.index, av_ids))
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_levels", None)  # set by _level_sets on first use
        object.__setattr__(self, "_flips", tuple((1 << k, c) for k, c in enumerate(columns)))

    @property
    def n_av(self) -> int:
        return len(self.av_ids)

    @property
    def complete(self) -> bool:
        return len(self.entries) == 1 << self.n_av

    def actions(self) -> list[int]:
        return sorted(self.entries)

    def action_string(self, action: int) -> str:
        return action_to_string(action, self.n_av)

    def require(self, action: int) -> tuple[float, ...]:
        try:
            return self.entries[action]
        except KeyError:
            raise IncompleteMatrixError(self.action_string(action)) from None

    def bit(self, player: int) -> int:
        try:
            return self._bit[player]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(f"player {player} is not a strategic player of this game") from None

    def column(self, player: int) -> int:
        try:
            return self._column[player]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(f"player {player} is not part of this game") from None

    def payoff(self, player: int, action: int) -> float:
        return self.require(action)[self.column(player)]

    def av_payoffs(self, action: int) -> tuple[float, ...]:
        return tuple(map(self.require(action).__getitem__, self._columns))  # type: ignore[attr-defined]

    def indicator(self, members: Iterable[int]) -> int:
        """Joint action with exactly the given players on route 1."""
        mask = 0
        for p in members:
            mask |= 1 << self.bit(p)
        return mask

    def members_of(self, mask: int) -> Coalition:
        return frozenset(self.av_ids[k] for k in range(self.n_av) if mask >> k & 1)

    def _level_sets(self) -> tuple[_PlayerLevels, ...]:
        """Each strategic player's :class:`_PlayerLevels` by bit, all built on first use.

        Needs a complete matrix. Not a ``cached_property``: its write through
        ``__dict__`` slows every later attribute read on the matrix (CPython 3.11).
        """
        if self._levels is None:  # type: ignore[attr-defined]
            actions = range((1 << self.n_av) - 1, -1, -1)
            table = list(zip(*map(self.entries.__getitem__, actions)))
            object.__setattr__(self, "_levels", tuple(
                _PlayerLevels(table[c], b) for b, c in enumerate(self._columns)))  # type: ignore[attr-defined]
        return self._levels  # type: ignore[attr-defined]


class EquilibriumTag(Enum):
    NOT_NASH = "not_nash"
    NASH = "nash"
    STRONG_NASH = "strong_nash"


@dataclass(frozen=True, eq=False)
class EquilibriumClass:
    """Classification of joint action ``action`` of ``matrix``.

    ``improving_coalitions`` holds every non-empty coalition whose joint
    deviation strictly improves each of its members; it is empty exactly
    for strong equilibria, contains a singleton exactly when the action
    is not Nash, and is enumerated on first access. ``club_found`` flags
    whether some coalition of two or more improves jointly while none of
    its members gains alone. Equality and hashing cover all three.
    """

    tag: EquilibriumTag
    club_found: bool
    matrix: PayoffMatrix = field(repr=False)
    action: int

    @cached_property
    def improving_coalitions(self) -> frozenset[Coalition]:
        return improving_coalitions(self.matrix, self.action)

    def _key(self) -> tuple:
        return self.tag, self.improving_coalitions, self.club_found

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EquilibriumClass) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _check_targets(g: PayoffMatrix, x: int) -> None:
    """Refuse past the cap, or when ``x`` or one of its deviation targets is unpriced.

    An unpriced ``x`` is named first, otherwise the unpriced target
    ``x ^ c`` with the least ``c``.
    """
    if g.n_av > MAX_AV_PLAYERS:
        raise PreconditionError(
            f"enumeration over {g.n_av} strategic players exceeds the cap of {MAX_AV_PLAYERS}"
        )
    g.require(x)
    if not g.complete:
        unpriced = set(range(1 << g.n_av)).difference(g.entries)
        raise IncompleteMatrixError(g.action_string(min(unpriced, key=x.__xor__)))


def _improving_targets(g: PayoffMatrix, x: int, fixed: int = 0) -> int:
    """The joint actions ``y != x`` whose flip ``x ^ y`` strictly improves every mover, as a bitset.

    Player ``b`` may keep its route or move where it earns more than at
    ``x``; the bits of ``fixed`` must stay. One AND per player; only the
    last can empty the set, as each keeps all actions that agree with
    ``x`` on its player's bit. Call :func:`_check_targets` first.
    """
    levels, row = g._level_sets(), g.entries[x]
    targets = ~(1 << x)
    for b, (bit, c) in enumerate(g._flips):  # type: ignore[attr-defined]
        targets &= levels[b][inf if fixed & bit else row[c]][x >> b & 1]
    return targets


def improving_coalitions(g: PayoffMatrix, x: int) -> frozenset[Coalition]:
    """Every non-empty coalition whose joint flip strictly improves all members.

    Singletons are included, so the result is empty iff ``x`` is a strong
    equilibrium and contains a singleton iff ``x`` is not Nash. Needs the
    payoffs of ``x`` and of every deviation target; on a partial matrix
    :class:`IncompleteMatrixError` names ``x`` or the first unpriced target.
    """
    _check_targets(g, x)
    digits = bin(_improving_targets(g, x))[:1:-1]  # digit y is bit y
    found = []
    y = digits.find("1")
    while y >= 0:
        found.append(g.members_of(x ^ y))
        y = digits.find("1", y + 1)
    return frozenset(found)


def _flip_gainers(g: PayoffMatrix, x: int, pool: int) -> Iterator[int]:
    """Ascending bits of ``pool`` whose player strictly gains by flipping alone from ``x``.

    ``x`` must be priced. Flips to unpriced actions are skipped, so on a
    partial matrix only priced flips witness a gain; :func:`_unpriced_flips`
    names the flips that could not be judged.
    """
    entries = g.entries
    base = g.require(x)
    for bit, c in g._flips:  # type: ignore[attr-defined]
        if pool & bit:
            row = entries.get(x ^ bit)
            if row is not None and row[c] > base[c]:
                yield bit


def _unpriced_flips(g: PayoffMatrix, x: int) -> int:
    """Bits whose single flip from ``x`` is unpriced; 0 on a complete matrix."""
    if g.complete:
        return 0
    return sum(bit for bit, _ in g._flips if x ^ bit not in g.entries)  # type: ignore[attr-defined]


def is_nash(g: PayoffMatrix, x: int) -> bool:
    """True iff no strategic player gains by flipping its own route.

    ``x`` itself must be priced. On a partial matrix the verdict is
    restricted to the players whose flipped action is priced; unpriced
    flips contribute no evidence of improvement.
    """
    return not any(_flip_gainers(g, x, (1 << g.n_av) - 1))


def is_strong(g: PayoffMatrix, x: int) -> bool:
    """True iff no coalition of any size can make all its members strictly better off.

    Like :func:`improving_coalitions`, it needs a complete matrix.
    """
    _check_targets(g, x)
    return not _improving_targets(g, x)


def find_clubs(g: PayoffMatrix, x0: int = 0) -> frozenset[Coalition]:
    """Clubs available at a Nash equilibrium ``x0``.

    A club is an improving coalition of two or more whose members would
    not gain alone; at a Nash action that is every improving coalition.

    Raises :class:`PreconditionError` when ``x0`` is not Nash: club
    formation is defined as a joint departure from equilibrium. A
    partial matrix is refused first, as by :func:`improving_coalitions`.
    """
    _check_targets(g, x0)
    if not is_nash(g, x0):
        raise PreconditionError(
            f"joint action {g.action_string(x0)} is not a Nash equilibrium"
        )
    return improving_coalitions(g, x0)


def classify_all(g: PayoffMatrix) -> dict[int, EquilibriumClass]:
    """Classify every joint action of a complete matrix.

    The solo gainers settle Nash-ness. The improving targets that leave
    every solo gainer in place settle the club flag and strong versus
    plain Nash. Improving-coalition sets wait for first access.
    """
    _check_targets(g, 0)
    full = (1 << g.n_av) - 1
    result: dict[int, EquilibriumClass] = {}
    for x in range(full + 1):
        solo = sum(_flip_gainers(g, x, full))
        group = _improving_targets(g, x, solo) != 0
        tag = (EquilibriumTag.NOT_NASH if solo else EquilibriumTag.NASH if group
               else EquilibriumTag.STRONG_NASH)
        result[x] = EquilibriumClass(tag=tag, club_found=group, matrix=g, action=x)
    return result
