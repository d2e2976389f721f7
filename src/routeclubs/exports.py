"""Deterministic exports: DOT club graphs and per-action scatter tables.

Both writers sort everything and use fixed numeric formatting, so
re-exporting identical inputs yields byte-identical files.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Mapping

from .errors import PreconditionError
from .game import Coalition, EquilibriumClass, PayoffMatrix, action_to_string, sort_coalitions
from .stability import ClubGraph


def _node_label(members: Coalition) -> str:
    return "{" + ",".join(str(p) for p in sorted(members)) + "}"


def export_dot(graph: ClubGraph, path: str | Path,
               se_nodes: Iterable[Coalition] = ()) -> None:
    """Write the club graph as a DOT digraph.

    Node labels are the sorted member lists, edge labels the joining
    player. The root is boxed, leaves double-bordered, nodes from
    ``se_nodes`` filled green and internally unstable nodes filled red.
    """
    se_set = frozenset(frozenset(c) for c in se_nodes)
    lines = ["digraph club_dynamics {", "  rankdir=LR;"]
    for members in sort_coalitions(graph.nodes):
        node = graph.nodes[members]
        attrs = [f'label="{_node_label(members)}"']
        if members == graph.root:
            attrs.append("shape=box")
        if node.externally_stable:
            attrs.append("peripheries=2")
        if members in se_set:
            attrs.append("style=filled")
            attrs.append("fillcolor=palegreen")
        elif node.internally_stable is False:
            attrs.append("style=filled")
            attrs.append("fillcolor=mistyrose")
        lines.append(f'  "{_node_label(members)}" [{", ".join(attrs)}];')
    for parent, child, joiner in sorted(
            graph.edges, key=lambda e: (len(e[0]), sorted(e[0]), e[2])):
        lines.append(
            f'  "{_node_label(parent)}" -> "{_node_label(child)}" [label="{joiner}"];')
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")


def export_scatter(g: PayoffMatrix, classification: Mapping[int, EquilibriumClass],
                   path: str | Path) -> None:
    """Write one CSV row per joint action of a complete matrix.

    Coordinates are the mean travel times per route, normalized so the
    all-on-route-0 action scores 1; the route-1 column is empty when
    nobody drives it. Per-group means (humans, strategic players, all)
    use the same normalization.
    """
    n_av = g.n_av
    n_actions = 1 << n_av
    if not g.complete:
        for action in range(n_actions):
            g.require(action)
    classes = list(map(classification.get, range(n_actions)))
    if None in classes:
        raise PreconditionError(
            f"classification lacks action {g.action_string(classes.index(None))}")

    # (column, route-1 bit) of every player in player_ids order, of the
    # strategic players in av_ids order and by id: the orders the sums run in
    bit = {p: 1 << k for k, p in enumerate(g.av_ids)}
    col_bits = [(c, bit.get(p, 0)) for c, p in enumerate(g.player_ids)]
    av_bits = [(g.column(p), bit[p]) for p in g.av_ids]
    id_bits = sorted(av_bits, key=lambda cb: g.player_ids[cb[0]])
    human_cols = [c for c, b in col_bits if not b]
    av_cols = [c for c, _ in av_bits]
    x0_times = [-v for v in g.entries[0]]
    anchor = sum(x0_times) / len(x0_times)
    if not anchor:
        raise PreconditionError("the all-on-route-0 action's mean travel time is zero; "
                                "the scatter has nothing to normalize by")

    def norm(total: float, count: int) -> str:
        return f"{total / count / anchor:.6f}" if count else ""

    def rows():
        for action, cls in enumerate(classes):
            times = [-v for v in g.entries[action]]
            at = times.__getitem__
            r0 = [c for c, b in col_bits if not action & b]
            a0 = [c for c, b in av_bits if not action & b]
            r1 = [c for c, b in id_bits if action & b]
            # humans never leave route 0, so together with t1 (strategic
            # players only, by construction) this completes the group-by-
            # route means
            yield [action_to_string(action, n_av), len(r0), len(r1),
                   norm(sum(map(at, r0)), len(r0)),
                   norm(sum(map(at, r1)), len(r1)),
                   norm(sum(map(at, a0)), len(a0)),
                   cls.tag.value, int(cls.club_found),
                   norm(sum(map(at, human_cols)), len(human_cols)),
                   norm(sum(map(at, av_cols)), n_av),
                   norm(sum(times), len(times))]

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["action", "q0", "q1", "t0", "t1", "t0_av", "class",
                         "club_found", "human_mean", "av_mean", "all_mean"])
        writer.writerows(rows())
