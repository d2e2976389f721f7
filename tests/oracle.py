"""Naive reference implementations used only to cross-check the package.

Everything here is written the slow, obvious way on purpose: deviation
targets are materialized bit by bit, member inequalities are re-checked
one player at a time, the growth graph is closed recursively, each
route's queue is sorted by departure time and discharged on its own,
and matrix files are written and read one value, one character and one
stripped line at a time.
None of it shares code with the package beyond the PayoffMatrix
accessors and the scenario and signal-plan fields.
"""

from __future__ import annotations

import math
from itertools import combinations


def flip_one(g, action, player):
    text = list(g.action_string(action))
    k = list(g.av_ids).index(player)
    text[k] = "0" if text[k] == "1" else "1"
    return sum(1 << i for i, digit in enumerate(text) if digit == "1")


def flip_many(g, action, players):
    result = action
    for p in players:
        result = flip_one(g, result, p)
    return result


def all_coalitions(g, min_size=1):
    out = []
    for size in range(min_size, g.n_av + 1):
        for combo in combinations(sorted(g.av_ids), size):
            out.append(frozenset(combo))
    return out


def improving(g, action):
    result = set()
    for coalition in all_coalitions(g):
        target = flip_many(g, action, coalition)
        everyone_gains = True
        for player in coalition:
            before = g.payoff(player, action)
            after = g.payoff(player, target)
            if not after > before:
                everyone_gains = False
        if everyone_gains:
            result.add(coalition)
    return result


def nash(g, action):
    for player in g.av_ids:
        if g.payoff(player, flip_one(g, action, player)) > g.payoff(player, action):
            return False
    return True


def strong(g, action):
    return len(improving(g, action)) == 0


def clubs(g, action=0):
    result = set()
    for coalition in all_coalitions(g, min_size=2):
        ok = True
        for player in coalition:
            alone = flip_one(g, action, player)
            if g.payoff(player, alone) > g.payoff(player, action):
                ok = False
        together = flip_many(g, action, coalition)
        for player in coalition:
            if not g.payoff(player, together) > g.payoff(player, action):
                ok = False
        if ok:
            result.add(coalition)
    return result


def eager_joiners(g, members):
    members = frozenset(members)
    current = g.indicator(members)
    result = set()
    for outsider in g.av_ids:
        if outsider in members:
            continue
        joined = g.indicator(members | {outsider})
        if g.payoff(outsider, joined) > g.payoff(outsider, current):
            result.add(outsider)
    return result


def flip_verdict(g, action, players):
    """Does no one of ``players`` gain by flipping alone, on a possibly partial matrix?

    False on one priced witness; None when no priced flip gains but some
    flip is unpriced; True otherwise.
    """
    verdicts = []
    for player in players:
        target = flip_one(g, action, player)
        if target in g.entries:
            verdicts.append(not g.payoff(player, target) > g.payoff(player, action))
        else:
            verdicts.append(None)
    if False in verdicts:
        return False
    if None in verdicts:
        return None
    return True


def priced_joiners(g, members):
    """Eager joiners on a possibly partial matrix: an unpriced join witnesses nothing."""
    members = frozenset(members)
    current = g.indicator(members)
    result = set()
    for outsider in g.av_ids:
        joined = g.indicator(members | {outsider})
        if outsider not in members and joined in g.entries:
            if g.payoff(outsider, joined) > g.payoff(outsider, current):
                result.add(outsider)
    return result


def closure(g, root):
    """Recursive closure of the join relation: (nodes, edges)."""
    root = frozenset(root)
    nodes = set()
    edges = set()

    def visit(coalition):
        if coalition in nodes:
            return
        nodes.add(coalition)
        for joiner in eager_joiners(g, coalition):
            child = coalition | {joiner}
            edges.add((coalition, child, joiner))
            visit(child)

    visit(root)
    return nodes, edges


def leaf_set(g, root):
    nodes, _ = closure(g, root)
    return {c for c in nodes if not eager_joiners(g, c)}


def departure_order(cfg):
    """Every period-th slot goes to the next human while humans remain, the rest to AVs."""
    humans = [p for p in range(cfg.n_total) if p not in cfg.av_ids]
    avs = list(cfg.av_ids)
    order = []
    for slot in range(cfg.n_total):
        if humans and ((slot + 1) % cfg.human_slot_period == 0 or not avs):
            order.append(humans.pop(0))
        else:
            order.append(avs.pop(0))
    return order


def simulate(cfg, action, plan):
    """One day of the point-queue model: (travel_times, route_counts, route_mean_times)."""
    departure = {}
    for slot, player in enumerate(departure_order(cfg)):
        departure[player] = slot * cfg.departure_headway
    route = {}
    for player in range(cfg.n_total):
        route[player] = 0
        for k, av in enumerate(cfg.av_ids):
            if av == player and action >> k & 1:
                route[player] = 1
    south_start = plan.green_west + plan.intergreen
    windows = {
        0: (cfg.signal_offset, plan.green_west, cfg.free_flow_r0_to_j),
        1: (cfg.signal_offset + south_start, plan.green_south, cfg.free_flow_r1_to_j),
    }
    times = {}
    for r in (0, 1):
        start, length, free_flow = windows[r]
        queue = sorted((p for p in range(cfg.n_total) if route[p] == r),
                       key=lambda p: departure[p])
        previous = None
        for player in queue:
            t = departure[player] + free_flow
            if previous is not None and previous + cfg.saturation_headway > t:
                t = previous + cfg.saturation_headway
            phase = (t - start) % plan.cycle
            if phase >= length:
                t = t + plan.cycle - phase
            previous = t
            total = t + cfg.free_flow_j_to_b - departure[player]
            times[player] = math.floor(total / cfg.payoff_quantum + 0.5) * cfg.payoff_quantum
    travel_times = tuple(times[p] for p in range(cfg.n_total))
    counts = []
    means = []
    for r in (0, 1):
        members = [p for p in range(cfg.n_total) if route[p] == r]
        counts.append(len(members))
        total = 0
        for p in members:
            total = total + times[p]
        means.append(total / len(members) if members else None)
    return travel_times, tuple(counts), tuple(means)


# The matrix file writer and parser as first written: every payoff is
# formatted on its own, action strings are built and read one character
# at a time, and each line is stripped before it is split. The parser
# returns the keyword arguments it would pass to PayoffMatrix.

MATRIX_MAGIC = "routeclubs-matrix 1"

_HEADER_KEYS = ("n_players", "player_ids", "av_ids", "quantum", "supply_mode",
                "scenario_hash", "partial", "actions")


class MatrixFormatError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def format_number(value):
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def action_to_string(action, n_av):
    if action < 0 or action >> n_av:
        raise ValueError(f"action {action} out of range for {n_av} strategic players")
    return "".join("1" if action >> k & 1 else "0" for k in range(n_av))


def action_from_string(text):
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"malformed action string {text!r}")
    return sum(1 << k for k, ch in enumerate(text) if ch == "1")


def matrix_text(g):
    """The text of the matrix file that saving ``g`` writes."""
    lines = [MATRIX_MAGIC, f"n_players {g.n_players}"]
    if g.player_ids != tuple(range(g.n_players)):
        lines.append("player_ids " + " ".join(map(str, g.player_ids)))
    lines.append("av_ids " + " ".join(map(str, g.av_ids)))
    lines.append(f"quantum {format_number(g.quantum)}")
    lines.append(f"supply_mode {g.supply_mode}")
    if g.scenario_hash:
        lines.append(f"scenario_hash {g.scenario_hash}")
    lines.append(f"partial {'true' if not g.complete else 'false'}")
    lines.append(f"actions {len(g.entries)}")
    lines.append("---")
    for action in sorted(g.entries):
        row = g.entries[action]
        lines.append(action_to_string(action, g.n_av) + " "
                     + " ".join(format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text):
    """PayoffMatrix keyword arguments read from the text of a matrix file."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != MATRIX_MAGIC:
        raise MatrixFormatError(f"expected magic line {MATRIX_MAGIC!r}", line=1)

    header = {}
    body_start = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line == "---":
            body_start = lineno + 1
            break
        key, _, value = line.partition(" ")
        if key not in _HEADER_KEYS:
            raise MatrixFormatError(f"unknown header key {key!r}", line=lineno)
        if key in header:
            raise MatrixFormatError(f"duplicate header key {key!r}", line=lineno)
        if not value.strip():
            raise MatrixFormatError(f"header key {key!r} has no value", line=lineno)
        header[key] = value.strip()
    if body_start is None:
        raise MatrixFormatError("missing '---' separator before rows")

    for key in ("n_players", "av_ids", "quantum", "supply_mode", "partial", "actions"):
        if key not in header:
            raise MatrixFormatError(f"missing header key {key!r}")
    try:
        n_players = int(header["n_players"])
        av_ids = tuple(int(t) for t in header["av_ids"].split())
        quantum = float(header["quantum"])
        declared_rows = int(header["actions"])
        player_ids = (tuple(int(t) for t in header["player_ids"].split())
                      if "player_ids" in header else ())
    except ValueError as e:
        raise MatrixFormatError(f"malformed header value: {e}") from None
    if header["partial"] not in ("true", "false"):
        raise MatrixFormatError("header key 'partial' must be 'true' or 'false'")
    declared_partial = header["partial"] == "true"

    n_av = len(av_ids)
    entries = {}
    for lineno, raw in enumerate(lines[body_start - 1:], start=body_start):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        action_text = tokens[0]
        if len(action_text) != n_av or any(ch not in "01" for ch in action_text):
            raise MatrixFormatError(
                f"action string {action_text!r} is not {n_av} chars of 0/1", line=lineno)
        action = action_from_string(action_text)
        if action in entries:
            raise MatrixFormatError(f"duplicate action {action_text!r}", line=lineno)
        if len(tokens) - 1 != n_players:
            raise MatrixFormatError(
                f"row has {len(tokens) - 1} payoffs, expected {n_players}", line=lineno)
        try:
            payoffs = tuple(map(float, tokens[1:]))
        except ValueError:
            raise MatrixFormatError("malformed payoff number", line=lineno) from None
        entries[action] = payoffs

    if len(entries) != declared_rows:
        raise MatrixFormatError(
            f"header declares {declared_rows} actions but file holds {len(entries)}")
    actually_partial = len(entries) != 1 << n_av
    if declared_partial != actually_partial:
        raise MatrixFormatError(
            f"header declares partial={str(declared_partial).lower()} but the file is "
            f"{'partial' if actually_partial else 'complete'}")
    return dict(n_players=n_players, av_ids=av_ids, entries=entries,
                player_ids=player_ids, quantum=quantum,
                supply_mode=header["supply_mode"],
                scenario_hash=header.get("scenario_hash", ""))
