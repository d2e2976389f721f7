"""Naive reference implementations used only to cross-check the package.

Everything here is written the slow, obvious way on purpose: deviation
targets are materialized bit by bit, member inequalities are re-checked
one player at a time, the growth graph is closed recursively, and each
route's queue is sorted by departure time and discharged on its own.
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
    return g.parse_action("".join(text))


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
